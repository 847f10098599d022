#pragma once
// Dense tensor with the TuckerMPI memory layout.
//
// Linear index: idx = i0 + I0*(i1 + I1*(i2 + ...)) -- mode 0 varies fastest
// (the N-dimensional generalization of column-major). Under this layout the
// mode-n unfolding X_(n) is a series of I_n^> contiguous row-major blocks of
// shape I_n x I_n^< (paper Sec 3.3), where I_n^< and I_n^> are the products
// of dimensions before and after mode n. Mode 0 is a single column-major
// matrix; the last mode is a single row-major matrix. All kernels operate on
// these block views in place -- tensor data is never reordered in memory.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "blas/matview.hpp"
#include "common/check.hpp"

namespace tucker::tensor {

using blas::index_t;
using blas::MatView;

using Dims = std::vector<index_t>;

inline index_t num_elements(const Dims& dims) {
  index_t p = 1;
  for (index_t d : dims) p *= d;
  return p;
}

/// num_elements for untrusted dims (file headers): the element count, or -1
/// when a dim is negative or count * elem_bytes would overflow index_t --
/// so callers can size a payload in bytes without overflowing either.
inline index_t checked_num_elements(const Dims& dims, index_t elem_bytes = 1) {
  index_t p = elem_bytes;
  for (index_t d : dims) {
    if (d < 0 || (d != 0 && p > std::numeric_limits<index_t>::max() / d))
      return -1;
    p *= d;
  }
  return p / elem_bytes;
}

/// Product of dimensions before mode n (I_n^< in the paper).
inline index_t prod_before(const Dims& dims, std::size_t n) {
  index_t p = 1;
  for (std::size_t k = 0; k < n; ++k) p *= dims[k];
  return p;
}

/// Product of dimensions after mode n (I_n^> in the paper).
inline index_t prod_after(const Dims& dims, std::size_t n) {
  index_t p = 1;
  for (std::size_t k = n + 1; k < dims.size(); ++k) p *= dims[k];
  return p;
}

template <class T>
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Dims dims)
      : dims_(std::move(dims)),
        data_(static_cast<std::size_t>(num_elements(dims_))) {
    for (index_t d : dims_) TUCKER_CHECK(d >= 0, "Tensor: negative dimension");
  }

  /// Re-dimensions the tensor in place, reusing the existing allocation
  /// whenever it has capacity (grow-only: capacity never shrinks). Contents
  /// are unspecified afterwards. This is what lets the ST-HOSVD truncation
  /// chain cycle two scratch tensors with zero steady-state heap traffic.
  void reshape(const Dims& dims) {
    for (index_t d : dims) TUCKER_CHECK(d >= 0, "Tensor: negative dimension");
    dims_ = dims;
    data_.resize(static_cast<std::size_t>(num_elements(dims_)));
  }

  /// reshape() to src's dims with mode n replaced by dn, without building a
  /// temporary Dims vector -- the steady-state path of ttm_into stays free
  /// of heap traffic (vector copy-assignment reuses this tensor's capacity).
  void reshape_mode_of(const Tensor& src, std::size_t n, index_t dn) {
    TUCKER_CHECK(dn >= 0, "Tensor: negative dimension");
    dims_ = src.dims_;
    dims_[n] = dn;
    data_.resize(static_cast<std::size_t>(num_elements(dims_)));
  }

  const Dims& dims() const { return dims_; }
  std::size_t order() const { return dims_.size(); }
  index_t dim(std::size_t n) const { return dims_[n]; }
  index_t size() const { return static_cast<index_t>(data_.size()); }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Multi-index access (mode 0 fastest).
  T& operator()(const std::vector<index_t>& idx) {
    return data_[static_cast<std::size_t>(linear_index(idx))];
  }
  const T& operator()(const std::vector<index_t>& idx) const {
    return data_[static_cast<std::size_t>(linear_index(idx))];
  }

  index_t linear_index(const std::vector<index_t>& idx) const {
    TUCKER_DCHECK(idx.size() == dims_.size(), "Tensor: index arity mismatch");
    index_t lin = 0;
    for (std::size_t k = dims_.size(); k-- > 0;) {
      TUCKER_DCHECK(idx[k] >= 0 && idx[k] < dims_[k],
                    "Tensor: index out of range");
      lin = lin * dims_[k] + idx[k];
    }
    return lin;
  }

  /// Inverse of linear_index.
  std::vector<index_t> multi_index(index_t lin) const {
    std::vector<index_t> idx(dims_.size());
    for (std::size_t k = 0; k < dims_.size(); ++k) {
      idx[k] = lin % dims_[k];
      lin /= dims_[k];
    }
    return idx;
  }

  /// Squared Frobenius norm, accumulated in double.
  double norm_squared() const {
    double s = 0;
    for (const T& v : data_) s += static_cast<double>(v) * v;
    return s;
  }

 private:
  Dims dims_;
  std::vector<T> data_;
};

// ----------------------------------------------------------- unfoldings

/// Number of row-major blocks in the mode-n unfolding (= I_n^>).
template <class T>
index_t unfolding_num_blocks(const Tensor<T>& t, std::size_t n) {
  return prod_after(t.dims(), n);
}

/// The j-th row-major block of the mode-n unfolding: shape I_n x I_n^<,
/// contiguous at offset j * I_n * I_n^<.
template <class T>
MatView<T> unfolding_block(Tensor<T>& t, std::size_t n, index_t j) {
  const index_t rows = t.dim(n);
  const index_t cols = prod_before(t.dims(), n);
  TUCKER_DCHECK(j >= 0 && j < prod_after(t.dims(), n),
                "unfolding_block: block out of range");
  return MatView<T>::row_major(t.data() + j * rows * cols, rows, cols);
}

template <class T>
MatView<const T> unfolding_block(const Tensor<T>& t, std::size_t n,
                                 index_t j) {
  const index_t rows = t.dim(n);
  const index_t cols = prod_before(t.dims(), n);
  TUCKER_DCHECK(j >= 0 && j < prod_after(t.dims(), n),
                "unfolding_block: block out of range");
  return MatView<const T>::row_major(t.data() + j * rows * cols, rows, cols);
}

/// Mode-0 unfolding as a single column-major matrix I_0 x (I_0^>).
template <class T>
MatView<T> unfolding_mode0(Tensor<T>& t) {
  return MatView<T>::col_major(t.data(), t.dim(0), prod_after(t.dims(), 0));
}

template <class T>
MatView<const T> unfolding_mode0(const Tensor<T>& t) {
  return MatView<const T>::col_major(t.data(), t.dim(0),
                                     prod_after(t.dims(), 0));
}

/// Element (i, c) of the mode-n unfolding, for tests/reference code:
/// column c encodes (before-indices fastest, after-indices slower).
template <class T>
const T& unfolding_entry(const Tensor<T>& t, std::size_t n, index_t i,
                         index_t c) {
  const index_t before = prod_before(t.dims(), n);
  const index_t cb = c % before;
  const index_t ca = c / before;
  const index_t rows = t.dim(n);
  return t.data()[(ca * rows + i) * before + cb];
}

// ------------------------------------------------ leaf-split reductions

/// Column split of the mode-n unfolding for the leaf-parallel reductions
/// (tensor_lq, gram_of_unfolding): `count` leaves, each a contiguous range
/// of `units`, factored independently on the pool and combined in leaf
/// order. A unit is one column for the single-matrix modes (mode 0 and any
/// mode with I_n^> == 1) and one whole I_n x I_n^< row-major block for the
/// middle modes. The count is a pure function of the shape -- never of the
/// thread width -- so the merge tree, and with it every result bit, is the
/// same at every TUCKER_NUM_THREADS (DESIGN.md Sec 16).
struct UnfoldingLeaves {
  index_t count = 1;
  index_t units = 0;
  bool single = true;  // columns (true) or row-major blocks (false)

  /// First unit of `leaf`. Leaf sizes differ by at most one unit and the
  /// larger leaves come first, so leaf 0 is never smaller than another.
  index_t lo(index_t leaf) const {
    const index_t base = units / count, rem = units % count;
    return leaf * base + std::min(leaf, rem);
  }
  index_t hi(index_t leaf) const { return lo(leaf + 1); }
};

/// Leaves for an unfolding of `rows` x `cols`: one per max(8 rows, 4096)
/// columns, at most 8. Every leaf then stays short-fat (its LQ factor is a
/// full triangle) and long enough that the per-leaf kernels keep their
/// full cache blocking.
inline index_t unfolding_leaf_count(index_t rows, index_t cols) {
  const index_t per_leaf = std::max<index_t>(8 * rows, 4096);
  return std::clamp<index_t>(cols / per_leaf, 1, 8);
}

inline UnfoldingLeaves unfolding_leaves(const Dims& dims, std::size_t n) {
  const index_t before = prod_before(dims, n);
  const index_t after = prod_after(dims, n);
  UnfoldingLeaves p;
  p.single = n == 0 || after == 1;
  p.units = p.single ? before * after : after;
  p.count = std::min(unfolding_leaf_count(dims[n], before * after),
                     std::max<index_t>(p.units, 1));
  return p;
}

}  // namespace tucker::tensor
