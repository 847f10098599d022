#pragma once
// LQ of a tensor unfolding (paper Alg 2), leaf-parallel.
//
// The triangular factor L of X_(n) = L*Q carries all the information the
// SVD step needs (singular values and left singular vectors). Modes with a
// single-matrix unfolding (mode 0: column-major; last mode: row-major) are
// factored with one driver call; middle modes use a flat-tree TSQR that
// annihilates one row-major block at a time into the running triangle via
// the structured tplqt kernel, streaming the tensor once and never
// reordering it in memory. If the leading block is not short-fat, blocks
// are merged until the first LQ yields a triangle (paper Sec 3.3); if even
// the whole unfolding is tall, the resulting lower-trapezoidal factor is
// returned (callers zero-pad when a square triangle is required).
//
// Leaf parallelism (DESIGN.md Sec 16): the unfolding's columns are first
// cut into shape-determined leaves (tensor::unfolding_leaves). Each leaf
// runs the code above on its own column range -- the leaves run on the
// pool -- and TriangleReducer folds the leaf triangles in leaf order: the
// same Iwen-Ong merge tree the streaming engine uses across slabs. One
// leaf is exactly the single-block factorization.
//
// The input tensor is left untouched: ST-HOSVD still needs it for the TTM
// truncation. The leaves' working copies are slices of one frame on the
// calling thread's arena (together at most the whole unfolding, mirroring
// TuckerMPI's work-array behaviour), so the caller's high-water mark does
// not depend on the thread width.

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

/// Arena elements leaf `leaf` needs for its working copy: its whole column
/// range for the single-matrix modes; for middle modes the merged leading
/// blocks plus one streaming block. Rounded to 64 bytes so every slice of
/// the shared frame keeps the arena's alignment.
template <class T>
index_t lq_leaf_elems(index_t m, index_t before, const UnfoldingLeaves& p,
                      index_t leaf) {
  const index_t units = p.hi(leaf) - p.lo(leaf);
  index_t e = m * units;
  if (!p.single) {
    const index_t merge = std::min(units, (m + before - 1) / before);
    e = m * before * std::min(units, merge + 1);
  }
  constexpr index_t kAlignElems = 64 / sizeof(T);
  return (e + kAlignElems - 1) / kAlignElems * kAlignElems;
}

/// L factor of one leaf's columns of the mode-n unfolding, built in `buf`
/// (lq_leaf_elems elements). This is the whole single-block algorithm of
/// the file comment, restricted to the leaf's column range.
template <class T>
blas::Matrix<T> lq_leaf(const Tensor<T>& y, std::size_t n,
                        const UnfoldingLeaves& p, index_t leaf, T* buf) {
  const index_t m = y.dim(n);
  const index_t lo = p.lo(leaf), hi = p.hi(leaf);
  std::vector<T> tau;
  if (p.single) {
    // Mode 0 is the column-major unfolding (the paper's gelq case). A
    // single row-major block (always true for the last mode) is a QR of
    // the transpose (the geqr case); gelqf on a row-major copy is exactly
    // that computation.
    const MatView<const T> x =
        n == 0 ? unfolding_mode0(y) : unfolding_block(y, n, 0);
    auto work = MatView<T>::row_major(buf, m, hi - lo);
    blas::copy(x.block(0, lo, m, hi - lo), work);
    la::gelqf(work, tau);
    return la::extract_l<T>(work);
  }

  // Flat-tree TSQR over the leaf's row-major blocks. Merge enough leading
  // blocks that the first LQ produces a full triangle.
  const index_t before = prod_before(y.dims(), n);
  const index_t merge = std::min(hi - lo, (m + before - 1) / before);
  auto first = MatView<T>::row_major(buf, m, merge * before);
  for (index_t b = 0; b < merge; ++b)
    blas::copy(unfolding_block(y, n, lo + b),
               first.block(0, b * before, m, before));
  la::gelqf(first, tau);
  blas::Matrix<T> l = la::extract_l<T>(first);
  if (l.cols() < m) return l;  // leaf was tall: trapezoid, done

  auto scratch = MatView<T>::row_major(buf + m * merge * before, m, before);
  for (index_t j = lo + merge; j < hi; ++j) {
    blas::copy(unfolding_block(y, n, j), scratch);
    la::tplqt(l.view(), scratch, tau, la::Pentagon::kFull);
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
  const index_t before = prod_before(y.dims(), n);
  const UnfoldingLeaves p = unfolding_leaves(y.dims(), n);
  // Every leaf's working copy is a slice of one frame on *this* thread's
  // arena; only the returned L factor (and the leaf triangles) own heap
  // memory.
  std::vector<index_t> off(static_cast<std::size_t>(p.count) + 1, 0);
  for (index_t i = 0; i < p.count; ++i)
    off[static_cast<std::size_t>(i) + 1] =
        off[static_cast<std::size_t>(i)] +
        detail::lq_leaf_elems<T>(m, before, p, i);
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
