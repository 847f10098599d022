#pragma once
// LQ of a tensor unfolding (paper Alg 2), leaf-parallel.
//
// The triangular factor L of X_(n) = L*Q carries all the information the
// SVD step needs (singular values and left singular vectors). Every mode
// runs one flat-tree TSQR that streams the unfolding once and never
// reorders the tensor in place: the unfolding's units -- single columns
// for mode 0 (column-major) and the last mode (one row-major block),
// whole I_n x I_n^< row-major blocks for the middle modes -- are copied a
// cache-sized group at a time into one row-major arena block; gelqf
// factors the first group (which holds at least the columns a full
// triangle needs, paper Sec 3.3) and the structured tplqt annihilates
// every later group into the running triangle. If even the whole
// unfolding is tall, the resulting lower-trapezoidal factor is returned
// (callers zero-pad when a square triangle is required).
//
// Leaf parallelism (DESIGN.md Sec 16): the unfolding's columns are first
// cut into shape-determined leaves (tensor::unfolding_leaves). Each leaf
// runs the flat tree above on its own column range -- the leaves run on
// the pool -- and TriangleReducer folds the leaf triangles in leaf order:
// the same Iwen-Ong merge tree the streaming engine uses across slabs,
// which is exact for any column split, so neither leaves nor groups cost
// accuracy. Group size (detail::lq_group_units) and leaf count are pure
// functions of the shape, so the result is bitwise identical at every
// thread width.
//
// The input tensor is left untouched: ST-HOSVD still needs it for the TTM
// truncation. Each leaf's group buffer is a slice of one frame on the
// calling thread's arena -- one group per leaf, not the unfolding -- so
// the caller's high-water mark is small and does not depend on the
// thread width.

#include <algorithm>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/matrix.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "lapack/qr.hpp"
#include "lapack/tpqrt.hpp"
#include "tensor/tensor.hpp"

namespace tucker::tensor {

/// Binary merge tree over lower-triangular/trapezoidal LQ factors of
/// column-split pieces of one m-row unfolding (Iwen & Ong,
/// arXiv:1601.07010). Since L L^T = X X^T is invariant under column
/// permutation, per-piece triangles merge *exactly*: tplqt of [L_a | L_b]
/// yields the triangle of the column-concatenated data -- the merge step
/// the paper's butterfly TSQR uses, on the structured tpqrt kernel.
///
/// The reducer keeps a binary-counter stack of triangles (one per tree
/// level, O(log C) memory) and merges equal-level neighbours as leaves
/// arrive -- the sequential schedule of a binary merge tree, fixed by the
/// number of leaves alone. push() folds one leaf; reduce() folds the
/// remaining mixed-level stack and returns the m x m lower-triangular
/// factor of the full unfolding.
template <class T>
class TriangleReducer {
 public:
  explicit TriangleReducer(index_t m) : m_(m) {}

  index_t rows() const { return m_; }
  std::size_t pending() const { return tri_.size(); }

  /// Folds the LQ factor of one column block (m x c, c <= m, lower
  /// trapezoidal -- exactly what tensor_lq returns for a slab).
  void push(MatView<const T> l) { push_padded(pad(l)); }

  /// Folds a *dense* m x c block whose columns are scaled basis vectors
  /// (the per-chunk rand-sketch case: U_c diag(sigma_c)); it is LQ-reduced
  /// to a triangle first so the merge kernel can exploit structure.
  void push_dense(MatView<const T> b) {
    TUCKER_CHECK(b.rows() == m_ && b.cols() <= m_,
                 "TriangleReducer: dense leaf must be m x (<= m)");
    blas::Matrix<T> t(m_, m_);
    blas::copy(b, t.view().block(0, 0, m_, b.cols()));
    std::vector<T> tau;
    la::gelqf(t.view(), tau);
    blas::Matrix<T> l = la::extract_l<T>(t.view());
    push_padded(pad(MatView<const T>(l.view())));
  }

  /// Final triangle of all pushed leaves. An empty reducer returns the
  /// zero triangle. The reducer is reset afterwards.
  blas::Matrix<T> reduce() {
    if (tri_.empty()) return blas::Matrix<T>(m_, m_);
    // Fold the remaining binary-counter stack top-down (newest first), the
    // same order a left-leaning binary tree would.
    while (tri_.size() >= 2) merge_top_pair();
    blas::Matrix<T> out = std::move(tri_.back());
    tri_.clear();
    level_.clear();
    return out;
  }

 private:
  blas::Matrix<T> pad(MatView<const T> l) {
    TUCKER_CHECK(l.rows() == m_ && l.cols() <= m_,
                 "TriangleReducer: leaf must be m x (<= m) trapezoidal");
    blas::Matrix<T> t(m_, m_);  // zero-initialized; trapezoids pad
    blas::copy(l, t.view().block(0, 0, m_, l.cols()));
    return t;
  }

  void push_padded(blas::Matrix<T> t) {
    tri_.push_back(std::move(t));
    level_.push_back(0);
    // Binary-counter carry: two subtrees of equal height merge into one of
    // height + 1, keeping at most one pending triangle per level.
    while (tri_.size() >= 2 &&
           level_[tri_.size() - 1] == level_[tri_.size() - 2])
      merge_top_pair();
  }

  void merge_top_pair() {
    // tplqt([older | newer]): annihilate the newer triangle into the older
    // one. Both operands are m x m lower triangular, so the structured
    // (half-flop) variant applies.
    blas::Matrix<T>& dst = tri_[tri_.size() - 2];
    blas::Matrix<T>& src = tri_.back();
    std::vector<T> tau;
    la::tplqt(dst.view(), src.view(), tau, la::Pentagon::kTriangular);
    const int lv = std::max(level_[level_.size() - 2], level_.back()) + 1;
    tri_.pop_back();
    level_.pop_back();
    level_.back() = lv;
  }

  index_t m_;
  std::vector<blas::Matrix<T>> tri_;
  std::vector<int> level_;
};

namespace detail {

/// Units one leaf group holds: about 400 KiB of T (an L2-sized block that
/// gelqf/tplqt factor at cache speed), never fewer units than the first
/// triangle needs columns, and always whole units. `unit_cols` is 1 for the
/// single-matrix modes and I_n^< for the middle modes' row-major blocks.
/// A pure function of the shape, like the leaf split itself.
template <class T>
index_t lq_group_units(index_t m, index_t unit_cols) {
  constexpr index_t kGroupElems = index_t{400 * 1024} / index_t{sizeof(T)};
  const index_t unit_elems = std::max<index_t>(m * unit_cols, 1);
  const index_t fit = std::max<index_t>(kGroupElems / unit_elems, 1);
  const index_t first = (m + unit_cols - 1) / std::max<index_t>(unit_cols, 1);
  return std::max(fit, first);
}

/// Arena elements leaf `leaf` needs: one group of its units (or the whole
/// leaf, when shorter). Rounded to 64 bytes so every slice of the shared
/// frame keeps the arena's alignment.
template <class T>
index_t lq_leaf_elems(index_t m, index_t unit_cols, const UnfoldingLeaves& p,
                      index_t leaf) {
  const index_t units = std::min(p.hi(leaf) - p.lo(leaf),
                                 lq_group_units<T>(m, unit_cols));
  const index_t e = m * units * unit_cols;
  constexpr index_t kAlignElems = 64 / sizeof(T);
  return (e + kAlignElems - 1) / kAlignElems * kAlignElems;
}

/// L factor of one leaf's columns of the mode-n unfolding: the flat tree
/// of the file comment. Each group of lq_group_units units is copied into
/// `buf` (lq_leaf_elems elements) as one row-major I_n x (units * unit
/// columns) block; the first group is factored with gelqf, every later one
/// is annihilated into the running triangle with tplqt. A leaf too short
/// for a full triangle returns its lower-trapezoidal factor.
template <class T>
blas::Matrix<T> lq_leaf(const Tensor<T>& y, std::size_t n,
                        const UnfoldingLeaves& p, index_t leaf, T* buf) {
  const index_t m = y.dim(n);
  const index_t lo = p.lo(leaf), hi = p.hi(leaf);
  const index_t unit_cols = p.single ? 1 : prod_before(y.dims(), n);
  const index_t group = lq_group_units<T>(m, unit_cols);
  // Mode 0 is the column-major unfolding (the paper's gelq case); a single
  // row-major block (always true for the last mode) is the geqr case;
  // otherwise units are the middle mode's row-major blocks.
  auto stage = [&](index_t u0, index_t u1) {
    auto work = MatView<T>::row_major(buf, m, (u1 - u0) * unit_cols);
    if (p.single) {
      const MatView<const T> x =
          n == 0 ? unfolding_mode0(y) : unfolding_block(y, n, 0);
      blas::copy(x.block(0, u0, m, u1 - u0), work);
    } else {
      for (index_t b = u0; b < u1; ++b)
        blas::copy(unfolding_block(y, n, b),
                   work.block(0, (b - u0) * unit_cols, m, unit_cols));
    }
    return work;
  };

  std::vector<T> tau;
  index_t u0 = std::min(hi, lo + group);
  auto first = stage(lo, u0);
  la::gelqf(first, tau);
  blas::Matrix<T> l = la::extract_l<T>(first);
  if (l.cols() < m) return l;  // whole leaf is one short group: trapezoid
  for (; u0 < hi; u0 += group) {
    auto next = stage(u0, std::min(hi, u0 + group));
    la::tplqt(l.view(), next, tau, la::Pentagon::kFull);
  }
  return l;
}

}  // namespace detail

/// L factor (I_n x min(I_n, I_n^< * I_n^>), lower trapezoidal) of the
/// mode-n unfolding of y. Bitwise identical at every thread width.
template <class T>
blas::Matrix<T> tensor_lq(const Tensor<T>& y, std::size_t n) {
  TUCKER_CHECK(n < y.order(), "tensor_lq: mode out of range");
  const index_t m = y.dim(n);
  const UnfoldingLeaves p = unfolding_leaves(y.dims(), n);
  const index_t unit_cols = p.single ? 1 : prod_before(y.dims(), n);
  // Every leaf's working copy is a slice of one frame on *this* thread's
  // arena; only the returned L factor (and the leaf triangles) own heap
  // memory.
  std::vector<index_t> off(static_cast<std::size_t>(p.count) + 1, 0);
  for (index_t i = 0; i < p.count; ++i)
    off[static_cast<std::size_t>(i) + 1] =
        off[static_cast<std::size_t>(i)] +
        detail::lq_leaf_elems<T>(m, unit_cols, p, i);
  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  T* buf = ws.get<T>(static_cast<std::size_t>(off.back()));
  if (p.count == 1) return detail::lq_leaf(y, n, p, 0, buf);

  std::vector<blas::Matrix<T>> leaves(static_cast<std::size_t>(p.count));
  parallel::parallel_for_chunks(
      0, p.count, 1, [&](index_t leaf, index_t, index_t) {
        const auto i = static_cast<std::size_t>(leaf);
        leaves[i] = detail::lq_leaf(y, n, p, leaf, buf + off[i]);
      });
  TriangleReducer<T> red(m);
  for (const auto& l : leaves) red.push(MatView<const T>(l.view()));
  return red.reduce();
}

}  // namespace tucker::tensor
