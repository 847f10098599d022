// Tests for the leaf-parallel unfolding reductions (tensor_lq and
// gram_of_unfolding, DESIGN.md Sec 16):
//  - results are bitwise identical at widths {1, 2, 7} on shapes whose
//    mode 0, middle modes and last mode split into several leaves, in
//    float and double, with native and wide Gram accumulation;
//  - a one-leaf shape reproduces the single-block kernel (gelqf on the
//    first group, tplqt on every later one) bit for bit;
//  - L L^T and the Gram match X_(n) X_(n)^T accumulated in long double
//    from the explicit unfolding (an oracle outside the library's kernels)
//    to O(eps ||X||_F^2);
//  - the calling thread's arena high-water mark after a multi-leaf call is
//    the same at every width, and for the LQ stays below the unfolding's
//    bytes when the leaves span several groups.

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
// Modes 0, 1 (I_1^< = 40) and 3 split into 2 leaves whose LQ runs over at
// least 3 groups each in float (5 in double); mode 2 splits into 8
// one-group leaves.
const Dims kGrouped{40, 35, 6, 50};

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

// The one-leaf LQ: the unfolding's units (columns for the single-matrix
// modes, I_n x I_n^< row-major blocks for the middle modes) staged group by
// group into a row-major block straight from the unfolding's entries; gelqf
// factors the first group and tplqt folds every later one into the running
// triangle. A group is about 400 KiB of T in whole units, never fewer
// units than the first triangle needs columns -- the algorithm one leaf
// runs, over the whole unfolding.
template <class T>
Matrix<T> single_block_lq(const Tensor<T>& y, std::size_t n) {
  const index_t m = y.dim(n);
  const index_t before = tensor::prod_before(y.dims(), n);
  const index_t after = tensor::prod_after(y.dims(), n);
  const bool single = n == 0 || after == 1;
  const index_t unit_cols = single ? 1 : before;
  const index_t units = single ? before * after : after;
  const index_t group = std::max<index_t>(
      std::max<index_t>(index_t{400 * 1024 / sizeof(T)} / (m * unit_cols), 1),
      (m + unit_cols - 1) / unit_cols);
  auto stage = [&](index_t u0, index_t u1) {
    Matrix<T> w(m, (u1 - u0) * unit_cols);
    for (index_t i = 0; i < m; ++i)
      for (index_t c = 0; c < w.cols(); ++c)
        w(i, c) = tensor::unfolding_entry(y, n, i, u0 * unit_cols + c);
    return w;
  };
  std::vector<T> tau;
  index_t u0 = std::min(units, group);
  Matrix<T> first = stage(0, u0);
  la::gelqf(first.view(), tau);
  Matrix<T> l = la::extract_l<T>(MatView<const T>(first.view()));
  if (l.cols() < m) return l;
  for (; u0 < units; u0 += group) {
    Matrix<T> next = stage(u0, std::min(units, u0 + group));
    la::tplqt(l.view(), next.view(), tau, la::Pentagon::kFull);
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

TEST(UnfoldingLeavesTest, GroupIsAShapeOnlyRule) {
  // About 400 KiB of T in whole units...
  EXPECT_EQ(tensor::detail::lq_group_units<float>(100, 1), 1024);
  EXPECT_EQ(tensor::detail::lq_group_units<double>(100, 1), 512);
  EXPECT_EQ(tensor::detail::lq_group_units<float>(100, 15), 68);
  EXPECT_EQ(tensor::detail::lq_group_units<double>(8, 10000), 1);
  // ...but never fewer columns than the first triangle needs.
  EXPECT_EQ(tensor::detail::lq_group_units<double>(1000, 1), 1000);
  EXPECT_EQ(tensor::detail::lq_group_units<double>(1000, 300), 4);

  // The kGrouped leaves span >= 3 groups in float on modes 0, 1 and 3.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    const auto p = tensor::unfolding_leaves(kGrouped, n);
    const index_t unit_cols = p.single ? 1 : tensor::prod_before(kGrouped, n);
    const index_t g =
        tensor::detail::lq_group_units<float>(kGrouped[n], unit_cols);
    EXPECT_GE(p.count, 2) << n;
    for (index_t i = 0; i < p.count; ++i)
      EXPECT_GT(p.hi(i) - p.lo(i), 2 * g) << "mode " << n << " leaf " << i;
  }
  EXPECT_LT(tensor::prod_before(kGrouped, 1), 96);
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
  expect_bitwise_across_widths<double>(kGrouped, 205);
}

TEST(UnfoldingTreeTest, BitwiseAcrossWidthsFloat) {
  expect_bitwise_across_widths<float>(kMixed, 203);
  expect_bitwise_across_widths<float>(kLastSplit, 204);
  expect_bitwise_across_widths<float>(kGrouped, 206);
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
  // One leaf of several groups (5 in double, 3 in float).
  expect_one_leaf_is_single_block<double>(kMixed, 3, 230);
  expect_one_leaf_is_single_block<float>(kMixed, 3, 231);
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
  expect_matches_long_double_oracle<double>(kGrouped, 254);
  expect_matches_long_double_oracle<float>(kGrouped, 255);
}

// Leaf working copies and partial Grams are slices of one frame on the
// calling thread's arena, and the caller always runs leaf 0 (the largest),
// so its high-water mark cannot depend on which threads ran the others.
// Each width runs on a fresh thread, i.e. a fresh arena.
template <class T>
std::size_t caller_high_water(const Tensor<T>& x, int w, std::size_t n,
                              bool gram) {
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
}

TEST(UnfoldingTreeTest, CallerArenaHighWaterIsWidthInvariant) {
  ThreadsGuard tg;
  const auto x = make_tensor<double>(kMixed, 260);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    const std::size_t ref = caller_high_water(x, 1, n, false);
    for (int w : {2, 7})
      EXPECT_EQ(caller_high_water(x, w, n, false), ref)
          << "lq mode " << n << " width " << w;
    const std::size_t gref = caller_high_water(x, 1, n, true);
    for (int w : {2, 7})
      EXPECT_EQ(caller_high_water(x, w, n, true), gref)
          << "gram mode " << n << " width " << w;
  }
}

// A leaf stages one group at a time, so the LQ's arena frame is one group
// per leaf (plus kernel scratch) -- below the unfolding itself, and the
// same at every width -- however many groups the leaves span.
TEST(UnfoldingTreeTest, GroupedLeafArenaStaysBelowTheUnfolding) {
  ThreadsGuard tg;
  const auto x = make_tensor<double>(kGrouped, 261);
  const std::size_t bytes = static_cast<std::size_t>(x.size()) * sizeof(double);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    const std::size_t ref = caller_high_water(x, 1, n, false);
    EXPECT_LT(ref, bytes) << "lq mode " << n;
    for (int w : {2, 7})
      EXPECT_EQ(caller_high_water(x, w, n, false), ref)
          << "lq mode " << n << " width " << w;
  }
}

}  // namespace
}  // namespace tucker
