#pragma once
// Incremental hierarchical SVD building blocks (Iwen & Ong,
// arXiv:1601.07010), specialized to the QR-SVD ST-HOSVD pipeline.
//
// The streaming drivers split the tensor into slabs along the *last* mode.
// Under the mode-0-fastest layout that choice buys two structural facts:
//
//  1. A slab is a contiguous range of the linear buffer, so slab I/O is
//     sequential and a slab is itself a valid tensor.
//  2. For every mode n < N-1, the slab's mode-n unfolding is a column
//     subset of the full unfolding. Since L L^T = X_(n) X_(n)^T is
//     invariant under column permutation, per-slab LQ triangles carry all
//     the information and merge *exactly*: tplqt of [L_a | L_b] yields the
//     triangle of the column-concatenated data. This is Iwen-Ong's merge
//     step expressed with the structured tpqrt kernel the paper's butterfly
//     TSQR already uses.
//
// The merge tree itself is tensor::TriangleReducer (tensor/tensor_lq.hpp),
// shared with the in-memory leaf-parallel LQ: a binary-counter stack of
// triangles (one per tree level, O(log C) memory) that merges equal-level
// neighbours as slabs arrive. The last mode's
// unfolding is *row*-split across slabs instead, so it takes the TSQR dual
// (TsqrAccumulator): annihilate each slab's row block into a running
// upper-triangular R.
//
// Accuracy: each merge is one structured Householder QR, so the composed
// factorization is backward stable with a constant growing only with the
// tree depth; computed singular values stay on the eps*||A|| rung of the
// paper's Theorem 1 (tests/theorem_bounds_test.cpp asserts this, DESIGN.md
// Sec 11 gives the argument).

#include <algorithm>
#include <cstring>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/matrix.hpp"
#include "common/check.hpp"
#include "common/tuning.hpp"
#include "lapack/qr.hpp"
#include "lapack/tpqrt.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_lq.hpp"

namespace tucker::stream {

using blas::index_t;
using blas::Matrix;
using blas::MatView;

/// Folds the LQ factor of newly arrived columns into a persistent m x m
/// lower triangle in place -- the incremental-update step of
/// StreamingTucker::append (a degenerate two-leaf merge tree).
template <class T>
void merge_triangle(Matrix<T>& dst, MatView<const T> leaf) {
  const index_t m = dst.rows();
  TUCKER_CHECK(dst.cols() == m, "merge_triangle: dst must be square");
  TUCKER_CHECK(leaf.rows() == m && leaf.cols() <= m,
               "merge_triangle: leaf must be m x (<= m)");
  Matrix<T> padded(m, m);
  blas::copy(leaf, padded.view().block(0, 0, m, leaf.cols()));
  std::vector<T> tau;
  la::tplqt(dst.view(), padded.view(), tau, la::Pentagon::kTriangular);
}

/// TSQR accumulator for the row-split case (the slab axis itself): R of
/// the row-stacked matrix A = [A_1; A_2; ...] (rows x C), so that
/// R^T R = A^T A. Until C rows have arrived the blocks are kept as raw rows
/// and r() factors them with one Householder QR: an upper trapezoid with
/// min(rows, C) rows, exactly the rank the data can have. (A C x C triangle
/// of a wide A would be rank-deficient, and its small SVD would cost
/// O(C^3) for rows << C.) Once C rows are in, the stack is triangularized
/// in place and every later block is annihilated into the running C x C
/// triangle by the structured tpqrt, which overwrites them.
template <class T>
class TsqrAccumulator {
 public:
  explicit TsqrAccumulator(index_t cols) : r_(cols, cols) {}

  void push(MatView<T> block) {
    const index_t c = r_.cols();
    TUCKER_CHECK(block.cols() == c, "TsqrAccumulator: column count mismatch");
    std::vector<T> tau;
    if (rows_ < c) {
      const index_t take = std::min(block.rows(), c - rows_);
      blas::copy(MatView<const T>(block.block(0, 0, take, c)),
                 r_.view().block(rows_, 0, take, c));
      rows_ += take;
      if (rows_ < c) return;
      la::geqrf(r_.view(), tau);
      zero_below_diagonal(r_.view());
      block = block.block(take, 0, block.rows() - take, c);
      if (block.rows() == 0) return;
    }
    la::tpqrt(r_.view(), block, tau, la::Pentagon::kFull);
  }

  /// R factor of every row pushed so far: min(rows, C) x C, upper
  /// trapezoidal (the C x C triangle once C rows are in).
  Matrix<T> r() const {
    const index_t c = r_.cols();
    if (rows_ >= c) return r_;
    Matrix<T> q = Matrix<T>::from(r_.cview().block(0, 0, rows_, c));
    std::vector<T> tau;
    la::geqrf(q.view(), tau);
    zero_below_diagonal(q.view());
    return q;
  }

 private:
  static void zero_below_diagonal(MatView<T> a) {
    for (index_t i = 1; i < a.rows(); ++i)
      for (index_t j = 0; j < std::min(i, a.cols()); ++j) a(i, j) = T(0);
  }

  Matrix<T> r_;
  index_t rows_ = 0;  // rows pushed, counted up to C
};

/// Trailing-mode slices per chunk for a resident tensor under a byte
/// budget: how many last-mode slices fit in `budget_bytes` (at least 1).
template <class T>
index_t chunk_slices_for_budget(const tensor::Dims& dims,
                                std::size_t budget_bytes) {
  const index_t last = dims.back();
  if (last <= 1) return 1;
  const index_t slice_elems = tensor::num_elements(dims) / last;
  const std::size_t slice_bytes =
      static_cast<std::size_t>(slice_elems) * sizeof(T);
  if (slice_bytes == 0) return last;
  const auto fit = static_cast<index_t>(budget_bytes / slice_bytes);
  return std::clamp<index_t>(fit, 1, last);
}

/// Merged L factor of the mode-n unfolding of a *resident* tensor,
/// computed hierarchically over trailing-mode chunks of `chunk_slices`
/// slices each -- the in-memory face of the streaming engine. A single
/// chunk reduces to tensor_lq(y, n) exactly (same code path), which is
/// what makes the single-chunk == QR-SVD bitwise test possible. The slab
/// axis itself (n == N-1) is never column-split, so it falls through to
/// the direct factorization.
template <class T>
Matrix<T> chunked_unfolding_lq(const tensor::Tensor<T>& y, std::size_t n,
                               index_t chunk_slices) {
  TUCKER_CHECK(n < y.order(), "chunked_unfolding_lq: mode out of range");
  const std::size_t t = y.order() - 1;
  const index_t last = y.dim(t);
  TUCKER_CHECK(chunk_slices > 0,
               "chunked_unfolding_lq: chunk_slices must be positive");
  if (n == t || chunk_slices >= last) return tensor::tensor_lq(y, n);

  const index_t m = y.dim(n);
  const index_t slice_elems = last == 0 ? 0 : y.size() / last;
  tensor::TriangleReducer<T> red(m);
  tensor::Tensor<T> slab;
  tensor::Dims sdims = y.dims();
  for (index_t begin = 0; begin < last; begin += chunk_slices) {
    const index_t ext = std::min(chunk_slices, last - begin);
    sdims[t] = ext;
    slab.reshape(sdims);
    std::memcpy(slab.data(), y.data() + begin * slice_elems,
                static_cast<std::size_t>(ext * slice_elems) * sizeof(T));
    Matrix<T> l = tensor::tensor_lq(slab, n);
    red.push(blas::MatView<const T>(l.view()));
  }
  return red.reduce();
}

}  // namespace tucker::stream
