// Known-answer checks on a 2 x 3 x 4 tensor with X(i, j, k) = i + 2j + 6k + 1
// (the linearized values 1..24, mode 0 fastest). The mode-0/1/2 unfoldings,
// one TTM and one Tucker reconstruction are written out by hand below, in
// this repo's column order (before-indices fastest, after-indices slower),
// so the layout conventions are pinned against literal values rather than
// against another engine of the same library.

#include <gtest/gtest.h>

#include <vector>

#include "blas/matrix.hpp"
#include "core/tucker_tensor.hpp"
#include "tensor/tensor.hpp"
#include "tensor/ttm.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::Matrix;
using blas::MatView;
using tensor::Tensor;
using Rows = std::vector<std::vector<double>>;

Tensor<double> x234() {
  Tensor<double> x({2, 3, 4});
  for (index_t l = 0; l < x.size(); ++l)
    x.data()[l] = static_cast<double>(l + 1);
  return x;
}

// X_(0): 2 x 12, column c = j + 3k.
const Rows kUnfold0 = {
    {1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23},
    {2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24},
};
// X_(1): 3 x 8, column c = i + 2k.
const Rows kUnfold1 = {
    {1, 2, 7, 8, 13, 14, 19, 20},
    {3, 4, 9, 10, 15, 16, 21, 22},
    {5, 6, 11, 12, 17, 18, 23, 24},
};
// X_(2): 4 x 6, column c = i + 2j.
const Rows kUnfold2 = {
    {1, 2, 3, 4, 5, 6},
    {7, 8, 9, 10, 11, 12},
    {13, 14, 15, 16, 17, 18},
    {19, 20, 21, 22, 23, 24},
};

const Rows& literal_unfolding(std::size_t n) {
  static const Rows* all[] = {&kUnfold0, &kUnfold1, &kUnfold2};
  return *all[n];
}

TEST(KnownAnswerTest, UnfoldingsMatchHandWrittenMatrices) {
  const auto x = x234();
  for (std::size_t n = 0; n < 3; ++n) {
    const Rows& lit = literal_unfolding(n);
    for (index_t i = 0; i < x.dim(n); ++i)
      for (std::size_t c = 0; c < lit[0].size(); ++c)
        EXPECT_EQ(tensor::unfolding_entry(x, n, i, static_cast<index_t>(c)),
                  lit[static_cast<std::size_t>(i)][c])
            << "mode " << n << " (" << i << ", " << c << ")";
  }
}

TEST(KnownAnswerTest, FoldingTheLiteralUnfoldingsRoundTrips) {
  // Write each hand-written unfolding into a blank tensor through the
  // library's writable unfolding views (the mode-0 column-major matrix, or
  // the I_n^> row-major blocks of I_n x I_n^< for the other modes); the
  // result must be the original tensor.
  const auto x = x234();
  for (std::size_t n = 0; n < 3; ++n) {
    const Rows& lit = literal_unfolding(n);
    Tensor<double> t(x.dims());
    if (n == 0) {
      auto u = tensor::unfolding_mode0(t);
      for (index_t i = 0; i < u.rows(); ++i)
        for (index_t c = 0; c < u.cols(); ++c)
          u(i, c) = lit[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(c)];
    } else {
      const index_t before = tensor::prod_before(t.dims(), n);
      for (index_t b = 0; b < tensor::unfolding_num_blocks(t, n); ++b) {
        auto blk = tensor::unfolding_block(t, n, b);
        for (index_t i = 0; i < blk.rows(); ++i)
          for (index_t cb = 0; cb < before; ++cb)
            blk(i, cb) = lit[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(b * before + cb)];
      }
    }
    for (index_t l = 0; l < x.size(); ++l)
      EXPECT_EQ(t.data()[l], x.data()[l]) << "mode " << n << " element " << l;
  }
}

TEST(KnownAnswerTest, ModeOneTtm) {
  // Y = X x_1 U with U = [1 0 -1; 1 1 1]: Y(i, 0, k) = X(i,0,k) - X(i,2,k)
  // = -4 and Y(i, 1, k) = sum_j X(i,j,k) = 3i + 18k + 9.
  Matrix<double> u(2, 3);
  u(0, 0) = 1, u(0, 1) = 0, u(0, 2) = -1;
  u(1, 0) = 1, u(1, 1) = 1, u(1, 2) = 1;
  const auto y = tensor::ttm(x234(), 1, MatView<const double>(u.view()));
  ASSERT_EQ(y.dims(), (tensor::Dims{2, 2, 4}));
  const std::vector<double> want = {-4, -4, 9,  12, -4, -4, 27, 30,
                                    -4, -4, 45, 48, -4, -4, 63, 66};
  for (index_t l = 0; l < y.size(); ++l)
    EXPECT_EQ(y.data()[l], want[static_cast<std::size_t>(l)]) << l;
}

TEST(KnownAnswerTest, TuckerReconstruction) {
  // Xhat = G x_0 U0 x_1 U1 x_2 U2 with G (2 x 1 x 2) = [1 2 3 4] in
  // storage order, U0 = [1 0; 1 1], U1 = [1 2 3]^T and
  // U2 = [1 0; 0 1; 1 1; 1 -1]. By hand: Xhat(i, j, k) = (j + 1) K(i, k)
  // with K = [1 3 4 -2; 3 7 10 -4].
  core::TuckerTensor<double> tk;
  tk.core = Tensor<double>({2, 1, 2});
  for (index_t l = 0; l < 4; ++l) tk.core.data()[l] = static_cast<double>(l + 1);
  Matrix<double> u0(2, 2), u1(3, 1), u2(4, 2);
  u0(0, 0) = 1, u0(0, 1) = 0, u0(1, 0) = 1, u0(1, 1) = 1;
  u1(0, 0) = 1, u1(1, 0) = 2, u1(2, 0) = 3;
  u2(0, 0) = 1, u2(0, 1) = 0, u2(1, 0) = 0, u2(1, 1) = 1;
  u2(2, 0) = 1, u2(2, 1) = 1, u2(3, 0) = 1, u2(3, 1) = -1;
  tk.factors = {u0, u1, u2};
  const auto xhat = tk.reconstruct();
  ASSERT_EQ(xhat.dims(), (tensor::Dims{2, 3, 4}));
  const std::vector<double> want = {1,  3,  2,  6,  3,  9,  3,  7,
                                    6,  14, 9,  21, 4,  10, 8,  20,
                                    12, 30, -2, -4, -4, -8, -6, -12};
  for (index_t l = 0; l < xhat.size(); ++l)
    EXPECT_EQ(xhat.data()[l], want[static_cast<std::size_t>(l)]) << l;
}

}  // namespace
}  // namespace tucker
