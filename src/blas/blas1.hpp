#pragma once
// Level-1 BLAS-style kernels over strided vectors and matrix views.

#include <cmath>
#include <cstdint>
#include <limits>

#include "blas/matview.hpp"
#include "common/flops.hpp"

namespace tucker::blas {

/// y += alpha * x over n elements with the given strides.
template <class T>
void axpy(index_t n, T alpha, const T* x, index_t incx, T* y, index_t incy) {
  if (incx == 1 && incy == 1) {
    for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
  } else {
    for (index_t i = 0; i < n; ++i) y[i * incy] += alpha * x[i * incx];
  }
  add_flops(2 * n);
}

/// x *= alpha over n elements.
template <class T>
void scal(index_t n, T alpha, T* x, index_t incx) {
  for (index_t i = 0; i < n; ++i) x[i * incx] *= alpha;
  add_flops(n);
}

namespace detail {

/// Dot product over contiguous vectors with eight explicit partial
/// accumulators. The reassociation is written out (not left to fast-math),
/// so the compiler can vectorize it under strict FP semantics; a single
/// accumulator would serialize on the FMA latency. Still one rounding per
/// operation -- as backward stable as the sequential sum.
template <class T>
T fast_dot(index_t n, const T* x, const T* y) {
  constexpr index_t kLanes = 8;
  T partial[kLanes] = {};
  index_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (index_t l = 0; l < kLanes; ++l) partial[l] += x[i + l] * y[i + l];
  T s = T(0);
  for (index_t l = 0; l < kLanes; ++l) s += partial[l];
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

}  // namespace detail

/// Dot product of two strided n-vectors.
template <class T>
T dot(index_t n, const T* x, index_t incx, const T* y, index_t incy) {
  add_flops(2 * n);
  if (incx == 1 && incy == 1) return detail::fast_dot(n, x, y);
  T s = T(0);
  for (index_t i = 0; i < n; ++i) s += x[i * incx] * y[i * incy];
  return s;
}

/// Euclidean norm with scaling to avoid overflow/underflow. Contiguous
/// vectors use a branch-free two-pass scheme (max, then scaled sum of
/// squares with explicit partial accumulators) that vectorizes; strided
/// vectors fall back to the classic one-pass update (as in dnrm2).
template <class T>
T nrm2(index_t n, const T* x, index_t incx) {
  add_flops(2 * n);
  if (n == 0) return T(0);
  if (incx == 1) {
    T amax = T(0);
    for (index_t i = 0; i < n; ++i) amax = std::max(amax, std::abs(x[i]));
    if (amax == T(0)) return T(0);
    // 1/amax overflows to inf when amax is subnormal (reachable in float
    // for heavily truncated tails); fall back to division there.
    const bool invertible = amax >= std::numeric_limits<T>::min();
    const T inv = invertible ? T(1) / amax : T(0);
    constexpr index_t kLanes = 8;
    T partial[kLanes] = {};
    index_t i = 0;
    if (invertible) {
      for (; i + kLanes <= n; i += kLanes)
        for (index_t l = 0; l < kLanes; ++l) {
          const T v = x[i + l] * inv;
          partial[l] += v * v;
        }
    } else {
      for (; i + kLanes <= n; i += kLanes)
        for (index_t l = 0; l < kLanes; ++l) {
          const T v = x[i + l] / amax;
          partial[l] += v * v;
        }
    }
    T ssq = T(0);
    for (index_t l = 0; l < kLanes; ++l) ssq += partial[l];
    for (; i < n; ++i) {
      const T v = invertible ? x[i] * inv : x[i] / amax;
      ssq += v * v;
    }
    return amax * std::sqrt(ssq);
  }
  T scale = T(0);
  T ssq = T(1);
  for (index_t i = 0; i < n; ++i) {
    const T v = x[i * incx];
    if (v != T(0)) {
      T a = std::abs(v);
      if (scale < a) {
        T r = scale / a;
        ssq = T(1) + ssq * r * r;
        scale = a;
      } else {
        T r = a / scale;
        ssq += r * r;
      }
    }
  }
  return scale * std::sqrt(ssq);
}

/// Sum of squares of all entries of a view (used for tensor norms).
template <class T>
double sum_squares(MatView<const T> a) {
  double s = 0;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) {
      double v = static_cast<double>(a(i, j));
      s += v * v;
    }
  add_flops(2 * a.rows() * a.cols());
  return s;
}

/// B = A elementwise (shapes must match).
template <class T>
void copy(MatView<const T> a, MatView<T> b) {
  TUCKER_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
               "copy: shape mismatch");
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) b(i, j) = a(i, j);
}

/// Fill a view with a constant.
template <class T>
void fill(MatView<T> a, T v) {
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) a(i, j) = v;
}

/// max_{ij} |A(i,j) - B(i,j)|
template <class T>
T max_abs_diff(MatView<const T> a, MatView<const T> b) {
  TUCKER_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
               "max_abs_diff: shape mismatch");
  T m = T(0);
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

}  // namespace tucker::blas
