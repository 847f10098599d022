// Tests for the leaf-parallel unfolding reductions (tensor_lq and
// gram_of_unfolding, DESIGN.md Sec 16):
//  - results are bitwise identical at widths {1, 2, 7} on shapes whose
//    mode 0, middle modes and last mode split into several leaves, in
//    float and double, with native and wide Gram accumulation;
//  - a one-leaf shape reproduces the single-block kernel bit for bit;
//  - L L^T and the Gram match X_(n) X_(n)^T accumulated in long double
//    from the explicit unfolding (an oracle outside the library's kernels)
//    to O(eps ||X||_F^2);
//  - the calling thread's arena high-water mark after a multi-leaf call is
//    the same at every width.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "common/precision.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "data/synthetic_tensor.hpp"
#include "lapack/qr.hpp"
#include "lapack/tpqrt.hpp"
#include "tensor/gram.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_lq.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::Matrix;
using blas::MatView;
using tensor::Dims;
using tensor::Tensor;

struct ThreadsGuard {
  int saved = parallel::max_threads();
  ~ThreadsGuard() { parallel::set_max_threads(saved); }
};

// Mode 0 splits into 5 leaves, modes 1 and 2 into 2 (uneven block counts),
// mode 3 stays one leaf.
const Dims kMixed{10, 24, 21, 47};
// The last mode splits into 2 leaves (and mode 0 into 2).
const Dims kLastSplit{16, 24, 30, 12};
// Every mode is one leaf.
const Dims kSmall{12, 10, 9, 8};

template <class T>
Tensor<T> make_tensor(const Dims& dims, std::uint64_t seed) {
  const auto d = data::random_tensor<double>(dims, seed);
  Tensor<T> x(dims);
  for (index_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<T>(d.data()[i]);
  return x;
}

template <class T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.rows() * a.cols())) ==
             0;
}

// The single-block LQ: one gelqf for the single-matrix modes, the
// merge-then-tplqt flat tree over every row-major block for the middle
// modes -- the algorithm one leaf runs, over the whole unfolding.
template <class T>
Matrix<T> single_block_lq(const Tensor<T>& y, std::size_t n) {
  const index_t m = y.dim(n);
  const index_t before = tensor::prod_before(y.dims(), n);
  const index_t after = tensor::prod_after(y.dims(), n);
  std::vector<T> tau;
  if (n == 0 || after == 1) {
    const MatView<const T> x = n == 0 ? tensor::unfolding_mode0(y)
                                      : tensor::unfolding_block(y, n, 0);
    Matrix<T> work(m, x.cols());
    blas::copy(x, work.view());
    la::gelqf(work.view(), tau);
    return la::extract_l<T>(MatView<const T>(work.view()));
  }
  const index_t merge = std::min(after, (m + before - 1) / before);
  Matrix<T> first(m, merge * before);
  for (index_t b = 0; b < merge; ++b)
    blas::copy(tensor::unfolding_block(y, n, b),
               first.view().block(0, b * before, m, before));
  la::gelqf(first.view(), tau);
  Matrix<T> l = la::extract_l<T>(MatView<const T>(first.view()));
  Matrix<T> scratch(m, before);
  for (index_t j = merge; j < after; ++j) {
    blas::copy(tensor::unfolding_block(y, n, j), scratch.view());
    la::tplqt(l.view(), scratch.view(), tau, la::Pentagon::kFull);
  }
  return l;
}

// The single-block Gram: one syrk chain over the whole unfolding.
template <class T, class TA>
Matrix<T> single_block_gram(const Tensor<T>& x, std::size_t n) {
  const index_t m = x.dim(n);
  Matrix<T> g(m, m);
  if (n == 0) {
    blas::syrk<T, TA>(T(1), tensor::unfolding_mode0(x), T(0), g.view());
    return g;
  }
  for (index_t j = 0; j < tensor::unfolding_num_blocks(x, n); ++j)
    blas::syrk<T, TA>(T(1), tensor::unfolding_block(x, n, j),
                      j == 0 ? T(0) : T(1), g.view());
  return g;
}

// X_(n) X_(n)^T from the explicit unfolding entries, in long double.
template <class T>
std::vector<long double> oracle_gram(const Tensor<T>& x, std::size_t n) {
  const index_t m = x.dim(n);
  const index_t cols = x.size() / m;
  std::vector<long double> g(static_cast<std::size_t>(m * m), 0.0L);
  std::vector<long double> col(static_cast<std::size_t>(m));
  for (index_t c = 0; c < cols; ++c) {
    for (index_t i = 0; i < m; ++i)
      col[static_cast<std::size_t>(i)] = tensor::unfolding_entry(x, n, i, c);
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < m; ++j)
        g[static_cast<std::size_t>(i * m + j)] +=
            col[static_cast<std::size_t>(i)] * col[static_cast<std::size_t>(j)];
  }
  return g;
}

// max |A - G| / ||X||_F^2 for an I_n x I_n candidate A.
template <class T>
double rel_gap(const Matrix<T>& a, const std::vector<long double>& g,
               double norm_sq) {
  long double worst = 0;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst, std::fabs(static_cast<long double>(a(i, j)) -
                                        g[static_cast<std::size_t>(
                                            i * a.cols() + j)]));
  return static_cast<double>(worst) / norm_sq;
}

template <class T>
Matrix<T> l_lt(const Matrix<T>& l) {
  const index_t m = l.rows();
  Matrix<T> out(m, m);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < m; ++j) {
      long double s = 0;
      for (index_t k = 0; k < l.cols(); ++k)
        s += static_cast<long double>(l(i, k)) * l(j, k);
      out(i, j) = static_cast<T>(s);
    }
  return out;
}

TEST(UnfoldingLeavesTest, CountIsAShapeOnlyRule) {
  EXPECT_EQ(tensor::unfolding_leaf_count(100, 4095), 1);
  EXPECT_EQ(tensor::unfolding_leaf_count(100, 8192), 2);
  EXPECT_EQ(tensor::unfolding_leaf_count(100, 80000), 8);  // capped
  EXPECT_EQ(tensor::unfolding_leaf_count(1000, 16000), 2);  // 8 I_n per leaf
  EXPECT_EQ(tensor::unfolding_leaf_count(4, 0), 1);

  const auto p0 = tensor::unfolding_leaves(kMixed, 0);
  EXPECT_TRUE(p0.single);
  EXPECT_EQ(p0.count, 5);
  EXPECT_EQ(p0.units, 24 * 21 * 47);
  const auto p1 = tensor::unfolding_leaves(kMixed, 1);
  EXPECT_FALSE(p1.single);
  EXPECT_EQ(p1.count, 2);
  EXPECT_EQ(p1.units, 21 * 47);  // whole row-major blocks
  EXPECT_EQ(tensor::unfolding_leaves(kMixed, 2).count, 2);
  EXPECT_EQ(tensor::unfolding_leaves(kMixed, 3).count, 1);
  const auto p3 = tensor::unfolding_leaves(kLastSplit, 3);
  EXPECT_TRUE(p3.single);
  EXPECT_EQ(p3.count, 2);
  for (std::size_t n = 0; n < kSmall.size(); ++n)
    EXPECT_EQ(tensor::unfolding_leaves(kSmall, n).count, 1) << n;

  // Leaves tile the units, larger leaves first.
  for (const auto& p : {p0, p1, p3}) {
    EXPECT_EQ(p.lo(0), 0);
    EXPECT_EQ(p.hi(p.count - 1), p.units);
    for (index_t i = 1; i < p.count; ++i) {
      EXPECT_EQ(p.hi(i - 1), p.lo(i));
      EXPECT_GE(p.hi(0) - p.lo(0), p.hi(i) - p.lo(i));
    }
  }
}

template <class T>
void expect_bitwise_across_widths(const Dims& dims, std::uint64_t seed) {
  ThreadsGuard tg;
  const auto x = make_tensor<T>(dims, seed);
  for (std::size_t n = 0; n < dims.size(); ++n) {
    parallel::set_max_threads(1);
    const auto lq1 = tensor::tensor_lq(x, n);
    const auto g1 = tensor::gram_of_unfolding(x, n);
    const auto w1 = tensor::gram_of_unfolding(x, n, Accum::kWide);
    for (int w : {2, 7}) {
      parallel::set_max_threads(w);
      EXPECT_TRUE(same_bits(tensor::tensor_lq(x, n), lq1))
          << "lq mode " << n << " width " << w;
      EXPECT_TRUE(same_bits(tensor::gram_of_unfolding(x, n), g1))
          << "gram mode " << n << " width " << w;
      EXPECT_TRUE(
          same_bits(tensor::gram_of_unfolding(x, n, Accum::kWide), w1))
          << "wide gram mode " << n << " width " << w;
    }
  }
}

TEST(UnfoldingTreeTest, BitwiseAcrossWidthsDouble) {
  expect_bitwise_across_widths<double>(kMixed, 201);
  expect_bitwise_across_widths<double>(kLastSplit, 202);
}

TEST(UnfoldingTreeTest, BitwiseAcrossWidthsFloat) {
  expect_bitwise_across_widths<float>(kMixed, 203);
  expect_bitwise_across_widths<float>(kLastSplit, 204);
}

template <class T>
void expect_one_leaf_is_single_block(const Dims& dims, std::size_t n,
                                     std::uint64_t seed) {
  ASSERT_EQ(tensor::unfolding_leaves(dims, n).count, 1);
  ThreadsGuard tg;
  const auto x = make_tensor<T>(dims, seed);
  for (int w : {1, 4}) {
    parallel::set_max_threads(w);
    EXPECT_TRUE(same_bits(tensor::tensor_lq(x, n), single_block_lq(x, n)))
        << "lq mode " << n << " width " << w;
    EXPECT_TRUE(same_bits(tensor::gram_of_unfolding(x, n),
                          single_block_gram<T, T>(x, n)))
        << "gram mode " << n << " width " << w;
    EXPECT_TRUE(same_bits(tensor::gram_of_unfolding(x, n, Accum::kWide),
                          single_block_gram<T, wide_t<T>>(x, n)))
        << "wide gram mode " << n << " width " << w;
  }
}

TEST(UnfoldingTreeTest, OneLeafIsTheSingleBlockKernel) {
  for (std::size_t n = 0; n < kSmall.size(); ++n) {
    expect_one_leaf_is_single_block<double>(kSmall, n, 210 + n);
    expect_one_leaf_is_single_block<float>(kSmall, n, 220 + n);
  }
  expect_one_leaf_is_single_block<double>(kMixed, 3, 230);
}

// Householder LQ is backward stable and a summed Gram is forward accurate:
// both land within a small multiple of eps ||X||_F^2 of the exact Gram.
// On these inputs the gaps measure 0.06-1.13 eps; 16 eps leaves room for
// other seeds without hiding a merge or summation-order bug (those show
// up as O(1) or O(sqrt(eps)) gaps).
template <class T>
void expect_matches_long_double_oracle(const Dims& dims, std::uint64_t seed) {
  const auto x = make_tensor<T>(dims, seed);
  const double norm_sq = x.norm_squared();
  const double tol = 16 * std::numeric_limits<T>::epsilon();
  for (std::size_t n = 0; n < dims.size(); ++n) {
    if (tensor::unfolding_leaves(dims, n).count == 1) continue;
    const auto g = oracle_gram(x, n);
    EXPECT_LT(rel_gap(l_lt(tensor::tensor_lq(x, n)), g, norm_sq), tol)
        << "L L^T mode " << n;
    EXPECT_LT(rel_gap(tensor::gram_of_unfolding(x, n), g, norm_sq), tol)
        << "gram mode " << n;
    EXPECT_LT(rel_gap(tensor::gram_of_unfolding(x, n, Accum::kWide), g,
                      norm_sq),
              tol)
        << "wide gram mode " << n;
  }
}

TEST(UnfoldingTreeTest, MatchesLongDoubleGramOracle) {
  expect_matches_long_double_oracle<double>(kMixed, 250);
  expect_matches_long_double_oracle<double>(kLastSplit, 251);
  expect_matches_long_double_oracle<float>(kMixed, 252);
  expect_matches_long_double_oracle<float>(kLastSplit, 253);
}

// Leaf working copies and partial Grams are slices of one frame on the
// calling thread's arena, and the caller always runs leaf 0 (the largest),
// so its high-water mark cannot depend on which threads ran the others.
// Each width runs on a fresh thread, i.e. a fresh arena.
TEST(UnfoldingTreeTest, CallerArenaHighWaterIsWidthInvariant) {
  ThreadsGuard tg;
  const auto x = make_tensor<double>(kMixed, 260);
  auto measure = [&](int w, std::size_t n, bool gram) {
    parallel::set_max_threads(w);
    std::size_t hwm = 0;
    std::thread([&] {
      if (gram) {
        tensor::gram_of_unfolding(x, n);
      } else {
        tensor::tensor_lq(x, n);
      }
      hwm = Workspace::local().high_water();
    }).join();
    return hwm;
  };
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    const std::size_t ref = measure(1, n, false);
    if (n == 0) {
      // At least the whole unfolding: every leaf's copy lives on the caller.
      EXPECT_GE(ref, static_cast<std::size_t>(x.size()) * sizeof(double));
    }
    for (int w : {2, 7})
      EXPECT_EQ(measure(w, n, false), ref) << "lq mode " << n << " width " << w;
    const std::size_t gref = measure(1, n, true);
    for (int w : {2, 7})
      EXPECT_EQ(measure(w, n, true), gref)
          << "gram mode " << n << " width " << w;
  }
}

}  // namespace
}  // namespace tucker
