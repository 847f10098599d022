#pragma once
// Register-tiled level-3 micro-kernels and panel packing.
//
// The gemm/syrk drivers in gemm.hpp feed packed panels to a single
// MR x NR micro-kernel: an MR x NR block of C is held in registers, the
// k loop streams one MR-sliver of packed A and one NR-sliver of packed B
// per step, and each C element accumulates with its own independent
// accumulator in serial k order. The NR axis is the vector axis.
//
// Two implementations of the same arithmetic are always compiled:
//  - mk_tile_simd: portable fixed-width SIMD via GNU vector extensions
//    (GCC/Clang). Each accumulator row is one NR-wide vector; the
//    per-element operation sequence is identical to the scalar kernel.
//    Every driver calls it; without vector extensions it is the scalar
//    kernel.
//  - mk_tile_scalar: the scalar reference, plain nested loops. It is the
//    test oracle: kernel_equivalence_test calls both tiles directly and
//    asserts they are bitwise identical over shape/special-value sweeps.
//
// Why bitwise determinism survives vectorization: every C element keeps a
// private accumulator, initialized from C and updated once per k step in
// the serial k order, as `c += (alpha * a(i,k)) * b(k,j)` (alpha is folded
// into the packed A panel, preserving the historical rounding grouping).
// Lanes never exchange or reduce into each other, so vector width, tile
// shape, cache-block sizes and thread partition all change *where* the
// arithmetic runs, never *what* is accumulated into which element in which
// order. The only remaining degree of freedom is FMA contraction, which the
// compiler applies uniformly to both kernels in this translation unit at
// fixed flags -- the equivalence tests pin that assumption.
//
// Packed layouts (zero-padded to full tiles):
//  - A panel: ceil(ib/MR) sub-panels of kn*MR values, sub-panel p holding
//    rows [p*MR, p*MR+MR) as [kk][r] (MR consecutive rows per k step),
//    with alpha pre-multiplied.
//  - B panel: ceil(jn/NR) sub-panels of kn*NR values, sub-panel q holding
//    columns [q*NR, q*NR+NR) as [kk][j] (NR consecutive columns per k
//    step).

// Wide accumulation (Accum::kWide, DESIGN.md Sec 13): every kernel below
// also compiles with a second template parameter TA -- the accumulator
// type -- defaulting to T. With TA = wide_t<T> (double for float storage)
// loads and stores stay at storage width but every private accumulator is
// TA; the float*float products are exact in double, so the per-element
// error drops from O(k)*eps_s to one storage rounding per spill. The
// determinism argument is unchanged: accumulators are still private and
// k-ordered, so thread width / SIMD width / tile shape never change bits
// for either TA instantiation.

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "blas/matview.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define TUCKER_HAVE_VEC_EXT 1
#else
#define TUCKER_HAVE_VEC_EXT 0
#endif

// The wide-accumulator SIMD kernels manipulate 64-byte double vectors,
// which gcc flags with -Wpsabi ("vector return without AVX512F changes the
// ABI") even though every such value is produced and consumed inside one
// inlined kernel body -- no cross-TU vector call ever exists. Silence the
// note for this header.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace tucker::blas::detail {

/// Register tile shape. MR x NR accumulators fit comfortably in 16
/// architectural vector registers at every vector width from SSE2 (NR=8
/// doubles = 4 x 128-bit) to AVX-512 (1 x 512-bit), leaving room for the
/// A broadcast and the B load.
inline constexpr index_t kMicroMR = 4;
inline constexpr index_t kMicroNR = 8;

inline index_t round_up(index_t v, index_t unit) {
  return (v + unit - 1) / unit * unit;
}

/// Packs A(i0:i0+ib, k0:k0+kn) * alpha into MR-row sub-panels (layout
/// above). Rows beyond ib are zero-padded so the micro-kernel never reads
/// uninitialized lanes.
template <class T>
void pack_a(MatView<const T> a, index_t i0, index_t ib, index_t k0,
            index_t kn, T alpha, T* ap) {
  const index_t rs = a.row_stride(), cs = a.col_stride();
  const T* base = a.data() + i0 * rs + k0 * cs;
  for (index_t p = 0; p < ib; p += kMicroMR) {
    const index_t mr = std::min(kMicroMR, ib - p);
    T* dst = ap + p * kn;  // sub-panel stride: kn * kMicroMR
    if (cs == 1) {
      // Row-major A: each row is contiguous in k; write strided.
      for (index_t r = 0; r < mr; ++r) {
        const T* src = base + (p + r) * rs;
        for (index_t kk = 0; kk < kn; ++kk)
          dst[kk * kMicroMR + r] = alpha * src[kk];
      }
    } else {
      for (index_t r = 0; r < mr; ++r) {
        const T* src = base + (p + r) * rs;
        for (index_t kk = 0; kk < kn; ++kk)
          dst[kk * kMicroMR + r] = alpha * src[kk * cs];
      }
    }
    if (mr < kMicroMR)
      for (index_t kk = 0; kk < kn; ++kk)
        for (index_t r = mr; r < kMicroMR; ++r) dst[kk * kMicroMR + r] = T(0);
  }
}

/// Packs B(k0:k0+kn, j0:j0+jn) into NR-column sub-panels (layout above),
/// zero-padding columns beyond jn. Reads along whichever of B's axes is
/// contiguous so the pack streams memory.
template <class T>
void pack_b(MatView<const T> b, index_t k0, index_t kn, index_t j0,
            index_t jn, T* bp) {
  const index_t rs = b.row_stride(), cs = b.col_stride();
  const T* base = b.data() + k0 * rs + j0 * cs;
  for (index_t p = 0; p < jn; p += kMicroNR) {
    const index_t nr = std::min(kMicroNR, jn - p);
    T* dst = bp + p * kn;  // sub-panel stride: kn * kMicroNR
    if (cs == 1) {
      for (index_t kk = 0; kk < kn; ++kk) {
        const T* src = base + kk * rs + p;
        index_t j = 0;
        for (; j < nr; ++j) dst[kk * kMicroNR + j] = src[j];
        for (; j < kMicroNR; ++j) dst[kk * kMicroNR + j] = T(0);
      }
    } else if (rs == 1) {
      // Column-major B: stream down each column.
      for (index_t j = 0; j < nr; ++j) {
        const T* src = base + (p + j) * cs;
        for (index_t kk = 0; kk < kn; ++kk) dst[kk * kMicroNR + j] = src[kk];
      }
      for (index_t j = nr; j < kMicroNR; ++j)
        for (index_t kk = 0; kk < kn; ++kk) dst[kk * kMicroNR + j] = T(0);
    } else {
      for (index_t j = 0; j < kMicroNR; ++j)
        for (index_t kk = 0; kk < kn; ++kk)
          dst[kk * kMicroNR + j] =
              j < nr ? base[kk * rs + (p + j) * cs] : T(0);
    }
  }
}

/// Scalar reference micro-kernel: C(r, 0:NR) += sum_kk ap[kk*MR+r] *
/// bp[kk*NR+0:NR], full MR x NR tile, ldc = row stride of C. The register
/// tile is TA; C is loaded (widened) once and stored (rounded) once per
/// call, so a gemm k-block is exactly one TA accumulation run.
template <class T, class TA = T>
inline void mk_tile_scalar(index_t kn, const T* ap, const T* bp, T* c,
                           index_t ldc) {
  TA acc[kMicroMR][kMicroNR];
  for (index_t r = 0; r < kMicroMR; ++r)
    for (index_t j = 0; j < kMicroNR; ++j)
      acc[r][j] = static_cast<TA>(c[r * ldc + j]);
  for (index_t kk = 0; kk < kn; ++kk) {
    const T* av = ap + kk * kMicroMR;
    const T* bv = bp + kk * kMicroNR;
    for (index_t r = 0; r < kMicroMR; ++r)
      for (index_t j = 0; j < kMicroNR; ++j)
        acc[r][j] += static_cast<TA>(av[r]) * static_cast<TA>(bv[j]);
  }
  for (index_t r = 0; r < kMicroMR; ++r)
    for (index_t j = 0; j < kMicroNR; ++j)
      c[r * ldc + j] = static_cast<T>(acc[r][j]);
}

#if TUCKER_HAVE_VEC_EXT

template <class T>
struct MicroVec {
  // Element-aligned (not vector-aligned) so loads/stores may hit any C row;
  // may_alias because we access T arrays through it. For TA = double under
  // float storage the accumulator vector is 64 bytes wide; the compiler
  // legalizes it to however many hardware registers the target has.
  typedef T type __attribute__((vector_size(kMicroNR * sizeof(T)),
                                aligned(alignof(T)), may_alias));
};

/// Lane-wise conversion between the NR-wide vector types of two scalar
/// types; the identity when they match (so the native instantiations are
/// untouched). Always inlined into the kernels, so the by-value vector
/// "ABI" gcc warns about (-Wpsabi) never materializes as a real call.
template <class To, class From>
__attribute__((always_inline)) inline typename MicroVec<To>::type convert_vec(
    typename MicroVec<From>::type v) {
  if constexpr (std::is_same_v<To, From>) {
    return v;
  } else {
    return __builtin_convertvector(v, typename MicroVec<To>::type);
  }
}

/// SIMD micro-kernel: one NR-wide vector accumulator per C row. Identical
/// per-element arithmetic to mk_tile_scalar (see header comment).
template <class T, class TA = T>
inline void mk_tile_simd(index_t kn, const T* ap, const T* bp, T* c,
                         index_t ldc) {
  using vec = typename MicroVec<T>::type;
  using avec = typename MicroVec<TA>::type;
  static_assert(kMicroMR == 4, "unrolled for MR = 4");
  avec acc0 = convert_vec<TA, T>(*reinterpret_cast<const vec*>(c + 0 * ldc));
  avec acc1 = convert_vec<TA, T>(*reinterpret_cast<const vec*>(c + 1 * ldc));
  avec acc2 = convert_vec<TA, T>(*reinterpret_cast<const vec*>(c + 2 * ldc));
  avec acc3 = convert_vec<TA, T>(*reinterpret_cast<const vec*>(c + 3 * ldc));
  for (index_t kk = 0; kk < kn; ++kk) {
    const T* av = ap + kk * kMicroMR;
    const avec bv =
        convert_vec<TA, T>(*reinterpret_cast<const vec*>(bp + kk * kMicroNR));
    acc0 += static_cast<TA>(av[0]) * bv;
    acc1 += static_cast<TA>(av[1]) * bv;
    acc2 += static_cast<TA>(av[2]) * bv;
    acc3 += static_cast<TA>(av[3]) * bv;
  }
  *reinterpret_cast<vec*>(c + 0 * ldc) = convert_vec<T, TA>(acc0);
  *reinterpret_cast<vec*>(c + 1 * ldc) = convert_vec<T, TA>(acc1);
  *reinterpret_cast<vec*>(c + 2 * ldc) = convert_vec<T, TA>(acc2);
  *reinterpret_cast<vec*>(c + 3 * ldc) = convert_vec<T, TA>(acc3);
}

#else  // !TUCKER_HAVE_VEC_EXT: the SIMD entry point degrades to scalar.

template <class T, class TA = T>
inline void mk_tile_simd(index_t kn, const T* ap, const T* bp, T* c,
                         index_t ldc) {
  mk_tile_scalar<T, TA>(kn, ap, bp, c, ldc);
}

#endif  // TUCKER_HAVE_VEC_EXT

// ------------------------------------------------------ TTM kernels
//
// The ST-HOSVD truncation TTM multiplies every unfolding block by the same
// short-fat factor U^T (R x I_n with R << I_n). At these shapes the packed
// gemm above is bound by panel-packing traffic, not arithmetic: pack_b
// copies each X block once per k-block before the micro-kernel reads the
// copy, tripling the streamed bytes of a kernel whose arithmetic intensity
// is only ~R/4 flops per byte. The two kernels below read X straight from
// the unfolding (the caller chunks columns so any re-reads across register
// row-groups stay cache-resident) and preserve the reference
// accumulation chain: every output element starts from zero and accumulates
// `c += a * b` once per k step in ascending k order, exactly as the packed
// micro-kernel does, so the engines are bitwise-interchangeable. Both come
// in the same scalar/SIMD pair as the gemm tile: the drivers run the SIMD
// kernels and ttm_equivalence_test holds them to the scalar oracles.

/// Largest factor-row count R routed to the packing-free TTM kernels; above
/// it the output slab no longer stays cache-resident and the packed gemm
/// path wins. Also bounds the mode-0 kernel's stack accumulator.
inline constexpr index_t kTtmAxpyMaxR = 64;

/// Packing-free TTM kernel for modes n > 0. Computes columns [j0, j1) of
/// C = A * B from scratch, with A (m x k) contiguous row-major (the staged
/// factor, cache-resident), B (k x n) row-major with leading dimension ldb
/// (the streamed unfolding block) and C row-major with leading dimension
/// ldc. The scalar variant zero-fills its C range and accumulates row
/// updates; its per-element chain -- start from zero, one `c += a * b` per
/// k step in ascending k order -- is exactly the chain of the register-tile
/// SIMD variant and of the packed gemm, so all three are interchangeable
/// bit for bit.
/// The output slab C is typed on the accumulator TA: natively that is the
/// destination itself; under wide accumulation the caller hands a TA
/// scratch slab and rounds it to storage once at the end (ttm.hpp), so
/// every element still sees a single full-k TA chain and the walks below
/// stay bitwise-interchangeable.
template <class T, class TA>
inline void ttm_cols_scalar(index_t m, index_t k, const T* a, const T* b,
                            index_t ldb, TA* c, index_t ldc, index_t j0,
                            index_t j1) {
  for (index_t r = 0; r < m; ++r)
    for (index_t j = j0; j < j1; ++j) c[r * ldc + j] = TA(0);
  for (index_t kk = 0; kk < k; ++kk) {
    const T* bv = b + kk * ldb;
    for (index_t r = 0; r < m; ++r) {
      const TA av = static_cast<TA>(a[r * k + kk]);
      TA* cv = c + r * ldc;
      for (index_t j = j0; j < j1; ++j)
        cv[j] += av * static_cast<TA>(bv[j]);
    }
  }
}

#if TUCKER_HAVE_VEC_EXT

/// SIMD variant of ttm_cols_scalar: C-stationary register tiles. Each
/// MR x NR tile of C lives in registers across the whole k sweep (one
/// B vector load and MR broadcasts per step), so -- unlike a row-update
/// formulation, whose accumulators round-trip through cache every k step --
/// the kernel is bound by the B stream. A is read directly from the staged
/// factor (rows are k apart; no panel pack), B directly from the unfolding
/// block. Row/column remainders run the same ascending-k chains with fewer
/// accumulators.
template <class T, class TA>
inline void ttm_cols_simd(index_t m, index_t k, const T* a, const T* b,
                          index_t ldb, TA* c, index_t ldc, index_t j0,
                          index_t j1) {
  using vec = typename MicroVec<T>::type;
  using avec = typename MicroVec<TA>::type;
  const index_t jv = j0 + (j1 - j0) / kMicroNR * kMicroNR;
  static_assert(kMicroMR == 4, "unrolled for MR = 4");
  index_t i = 0;
  for (; i + kMicroMR <= m; i += kMicroMR) {
    const T* a0 = a + (i + 0) * k;
    const T* a1 = a + (i + 1) * k;
    const T* a2 = a + (i + 2) * k;
    const T* a3 = a + (i + 3) * k;
    TA* c0 = c + (i + 0) * ldc;
    TA* c1 = c + (i + 1) * ldc;
    TA* c2 = c + (i + 2) * ldc;
    TA* c3 = c + (i + 3) * ldc;
    index_t j = j0;
    for (; j < jv; j += kMicroNR) {
      avec s0{}, s1{}, s2{}, s3{};
      const T* bj = b + j;
      for (index_t kk = 0; kk < k; ++kk) {
        // The B walk is strided by ldb, which outruns hardware stride
        // prefetchers at large leading dimensions; prefetch a few rows
        // ahead (pure hint, no effect on values).
        __builtin_prefetch(bj + (kk + 8) * ldb);
        const avec bv = convert_vec<TA, T>(
            *reinterpret_cast<const vec*>(bj + kk * ldb));
        s0 += static_cast<TA>(a0[kk]) * bv;
        s1 += static_cast<TA>(a1[kk]) * bv;
        s2 += static_cast<TA>(a2[kk]) * bv;
        s3 += static_cast<TA>(a3[kk]) * bv;
      }
      *reinterpret_cast<avec*>(c0 + j) = s0;
      *reinterpret_cast<avec*>(c1 + j) = s1;
      *reinterpret_cast<avec*>(c2 + j) = s2;
      *reinterpret_cast<avec*>(c3 + j) = s3;
    }
    for (; j < j1; ++j) {
      TA s0{}, s1{}, s2{}, s3{};
      for (index_t kk = 0; kk < k; ++kk) {
        const TA bv = static_cast<TA>(b[kk * ldb + j]);
        s0 += static_cast<TA>(a0[kk]) * bv;
        s1 += static_cast<TA>(a1[kk]) * bv;
        s2 += static_cast<TA>(a2[kk]) * bv;
        s3 += static_cast<TA>(a3[kk]) * bv;
      }
      c0[j] = s0;
      c1[j] = s1;
      c2[j] = s2;
      c3[j] = s3;
    }
  }
  for (; i < m; ++i) {
    const T* ai = a + i * k;
    TA* ci = c + i * ldc;
    index_t j = j0;
    for (; j < jv; j += kMicroNR) {
      avec s{};
      const T* bj = b + j;
      for (index_t kk = 0; kk < k; ++kk) {
        __builtin_prefetch(bj + (kk + 8) * ldb);
        s += static_cast<TA>(ai[kk]) *
             convert_vec<TA, T>(
                 *reinterpret_cast<const vec*>(bj + kk * ldb));
      }
      *reinterpret_cast<avec*>(ci + j) = s;
    }
    for (; j < j1; ++j) {
      TA s{};
      for (index_t kk = 0; kk < k; ++kk)
        s += static_cast<TA>(ai[kk]) * static_cast<TA>(b[kk * ldb + j]);
      ci[j] = s;
    }
  }
}

#else

template <class T, class TA>
inline void ttm_cols_simd(index_t m, index_t k, const T* a, const T* b,
                          index_t ldb, TA* c, index_t ldc, index_t j0,
                          index_t j1) {
  ttm_cols_scalar(m, k, a, b, ldb, c, ldc, j0, j1);
}

#endif  // TUCKER_HAVE_VEC_EXT

#if TUCKER_HAVE_VEC_EXT

/// Streaming twin of ttm_cols_simd for DRAM-resident blocks: walks B rows
/// sequentially (the unfolding block's natural layout, so the whole X
/// stream is one forward walk at full sequential bandwidth) and applies
/// each row as a rank-1 update to the C slab, four C rows per pass to
/// amortize the shared B load. The caller chunks columns so the m x chunk
/// C slab stays cache-resident across the k sweep. Per-element chain is
/// identical to ttm_cols_scalar: zero start, one `c += a * b` per k step,
/// ascending k.
template <class T, class TA>
inline void ttm_rows_simd(index_t m, index_t k, const T* a, const T* b,
                          index_t ldb, TA* c, index_t ldc, index_t j0,
                          index_t j1) {
  using vec = typename MicroVec<T>::type;
  using avec = typename MicroVec<TA>::type;
  for (index_t r = 0; r < m; ++r)
    for (index_t j = j0; j < j1; ++j) c[r * ldc + j] = TA(0);
  const index_t jv = j0 + (j1 - j0) / kMicroNR * kMicroNR;
  for (index_t kk = 0; kk < k; ++kk) {
    const T* bv = b + kk * ldb;
    index_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const TA a0 = static_cast<TA>(a[(i + 0) * k + kk]);
      const TA a1 = static_cast<TA>(a[(i + 1) * k + kk]);
      const TA a2 = static_cast<TA>(a[(i + 2) * k + kk]);
      const TA a3 = static_cast<TA>(a[(i + 3) * k + kk]);
      TA* c0 = c + (i + 0) * ldc;
      TA* c1 = c + (i + 1) * ldc;
      TA* c2 = c + (i + 2) * ldc;
      TA* c3 = c + (i + 3) * ldc;
      index_t j = j0;
      for (; j < jv; j += kMicroNR) {
        // Keep several B lines in flight ahead of the walk (pure hint).
        __builtin_prefetch(bv + j + 16 * kMicroNR);
        const avec bw =
            convert_vec<TA, T>(*reinterpret_cast<const vec*>(bv + j));
        avec* w0 = reinterpret_cast<avec*>(c0 + j);
        avec* w1 = reinterpret_cast<avec*>(c1 + j);
        avec* w2 = reinterpret_cast<avec*>(c2 + j);
        avec* w3 = reinterpret_cast<avec*>(c3 + j);
        *w0 += a0 * bw;
        *w1 += a1 * bw;
        *w2 += a2 * bw;
        *w3 += a3 * bw;
      }
      for (; j < j1; ++j) {
        const TA bs = static_cast<TA>(bv[j]);
        c0[j] += a0 * bs;
        c1[j] += a1 * bs;
        c2[j] += a2 * bs;
        c3[j] += a3 * bs;
      }
    }
    for (; i < m; ++i) {
      const TA ai = static_cast<TA>(a[i * k + kk]);
      TA* ci = c + i * ldc;
      index_t j = j0;
      for (; j < jv; j += kMicroNR) {
        avec* w = reinterpret_cast<avec*>(ci + j);
        *w += ai * convert_vec<TA, T>(*reinterpret_cast<const vec*>(bv + j));
      }
      for (; j < j1; ++j) ci[j] += ai * static_cast<TA>(bv[j]);
    }
  }
}

#else

template <class T, class TA>
inline void ttm_rows_simd(index_t m, index_t k, const T* a, const T* b,
                          index_t ldb, TA* c, index_t ldc, index_t j0,
                          index_t j1) {
  ttm_cols_scalar(m, k, a, b, ldb, c, ldc, j0, j1);
}

#endif  // TUCKER_HAVE_VEC_EXT

/// Dispatches one column range of a TTM block. `stream` selects the
/// B-walk: register tiles over a cache-resident block, or the sequential
/// row-update walk for DRAM-resident blocks. Both walks share the
/// per-element accumulation chain of ttm_cols_scalar, so engine and walk
/// order are bitwise-interchangeable (for either accumulator width).
template <class T, class TA>
inline void ttm_cols(bool stream, index_t m, index_t k, const T* a,
                     const T* b, index_t ldb, TA* c, index_t ldc, index_t j0,
                     index_t j1) {
  if (stream) {
    ttm_rows_simd(m, k, a, b, ldb, c, ldc, j0, j1);
  } else {
    ttm_cols_simd(m, k, a, b, ldb, c, ldc, j0, j1);
  }
}

/// Mode-0 TTM kernel: for each column c in [c0, c1) of the column-major
/// mode-0 unfolding (columns are contiguous I_0-fibers), computes the
/// length-r output fiber y_c = U x_c with a register/stack accumulator.
/// `ut` is U^T staged contiguously as k x ldut row-major (ldut >= r,
/// zero-padded columns beyond r), so both operands stream unit-stride --
/// this replaces the strided `.t()` gemm views of the reference path.
/// Requires r <= kTtmAxpyMaxR.
template <class T, class TA = T>
inline void ttm_mode0_scalar(index_t k, index_t r, const T* ut, index_t ldut,
                             const T* x, T* y, index_t c0, index_t c1) {
  TA acc[kTtmAxpyMaxR];
  for (index_t c = c0; c < c1; ++c) {
    const T* xc = x + c * k;
    for (index_t q = 0; q < r; ++q) acc[q] = TA(0);
    for (index_t kk = 0; kk < k; ++kk) {
      const TA xv = static_cast<TA>(xc[kk]);
      const T* uv = ut + kk * ldut;
      for (index_t q = 0; q < r; ++q) acc[q] += xv * static_cast<TA>(uv[q]);
    }
    T* yc = y + c * r;
    for (index_t q = 0; q < r; ++q) yc[q] = static_cast<T>(acc[q]);
  }
}

#if TUCKER_HAVE_VEC_EXT

/// SIMD twin of ttm_mode0_scalar, specialized at compile time on the number
/// of NR-wide accumulator vectors NV = ceil(r / NR) so the accumulators are
/// register-resident (a runtime-length accumulator array spills to the
/// stack and turns every k step into a load/store round-trip). Small NV
/// processes two columns per pass for extra independent FMA chains; large
/// NV has enough chains per column. ldut padding keeps the trailing lanes
/// at exact zero, and those lanes are never stored. Per-element arithmetic
/// is identical to the scalar kernel.
template <class T, class TA, int NV>
inline void ttm_mode0_cols_nv(index_t k, index_t r, const T* ut, index_t ldut,
                              const T* x, T* y, index_t c0, index_t c1) {
  using vec = typename MicroVec<T>::type;
  using avec = typename MicroVec<TA>::type;
  auto store_fiber = [r](const avec* acc, T* yc) {
    index_t q = 0;
    for (; (q + 1) * kMicroNR <= r; ++q)
      *reinterpret_cast<vec*>(yc + q * kMicroNR) = convert_vec<T, TA>(acc[q]);
    for (index_t j = q * kMicroNR; j < r; ++j)
      yc[j] = static_cast<T>(acc[q][j - q * kMicroNR]);
  };
  index_t c = c0;
  // Pair columns only while 2*NV accumulators plus the U row still fit the
  // architectural register file; beyond that the chains per column already
  // cover FMA latency and pairing would spill.
  if constexpr (NV <= 2) {
    for (; c + 2 <= c1; c += 2) {
      const T* xa = x + c * k;
      const T* xb = xa + k;
      avec sa[NV], sb[NV];
      for (int q = 0; q < NV; ++q) {
        sa[q] = avec{};
        sb[q] = avec{};
      }
      for (index_t kk = 0; kk < k; ++kk) {
        const T* urow = ut + kk * ldut;
        const TA va = static_cast<TA>(xa[kk]);
        const TA vb = static_cast<TA>(xb[kk]);
        for (int q = 0; q < NV; ++q) {
          const avec uw = convert_vec<TA, T>(
              *reinterpret_cast<const vec*>(urow + q * kMicroNR));
          sa[q] += va * uw;
          sb[q] += vb * uw;
        }
      }
      store_fiber(sa, y + c * r);
      store_fiber(sb, y + (c + 1) * r);
    }
  }
  for (; c < c1; ++c) {
    const T* xc = x + c * k;
    avec s[NV];
    for (int q = 0; q < NV; ++q) s[q] = avec{};
    for (index_t kk = 0; kk < k; ++kk) {
      const T* urow = ut + kk * ldut;
      const TA xv = static_cast<TA>(xc[kk]);
      for (int q = 0; q < NV; ++q)
        s[q] += xv * convert_vec<TA, T>(
                         *reinterpret_cast<const vec*>(urow + q * kMicroNR));
    }
    store_fiber(s, y + c * r);
  }
}

template <class T, class TA = T>
inline void ttm_mode0_simd(index_t k, index_t r, const T* ut, index_t ldut,
                           const T* x, T* y, index_t c0, index_t c1) {
  static_assert(kTtmAxpyMaxR / kMicroNR == 8, "dispatch covers NV = 1..8");
  switch ((r + kMicroNR - 1) / kMicroNR) {
    case 1: return ttm_mode0_cols_nv<T, TA, 1>(k, r, ut, ldut, x, y, c0, c1);
    case 2: return ttm_mode0_cols_nv<T, TA, 2>(k, r, ut, ldut, x, y, c0, c1);
    case 3: return ttm_mode0_cols_nv<T, TA, 3>(k, r, ut, ldut, x, y, c0, c1);
    case 4: return ttm_mode0_cols_nv<T, TA, 4>(k, r, ut, ldut, x, y, c0, c1);
    case 5: return ttm_mode0_cols_nv<T, TA, 5>(k, r, ut, ldut, x, y, c0, c1);
    case 6: return ttm_mode0_cols_nv<T, TA, 6>(k, r, ut, ldut, x, y, c0, c1);
    case 7: return ttm_mode0_cols_nv<T, TA, 7>(k, r, ut, ldut, x, y, c0, c1);
    case 8: return ttm_mode0_cols_nv<T, TA, 8>(k, r, ut, ldut, x, y, c0, c1);
    default: return ttm_mode0_scalar<T, TA>(k, r, ut, ldut, x, y, c0, c1);
  }
}

#else

template <class T, class TA = T>
inline void ttm_mode0_simd(index_t k, index_t r, const T* ut, index_t ldut,
                           const T* x, T* y, index_t c0, index_t c1) {
  ttm_mode0_scalar<T, TA>(k, r, ut, ldut, x, y, c0, c1);
}

#endif  // TUCKER_HAVE_VEC_EXT

/// Edge tile (mr < MR and/or nr < NR): runs the full kernel into a local
/// MR x NR buffer seeded from the live C entries, then stores back only the
/// live region. Padded A rows / B columns are zero, so the live elements
/// see exactly the same accumulation chain as in a full tile.
template <class T, class TA = T>
inline void mk_tile_edge(index_t kn, const T* ap, const T* bp, T* c,
                         index_t ldc, index_t mr, index_t nr) {
  T ctmp[kMicroMR * kMicroNR];
  for (index_t r = 0; r < kMicroMR; ++r)
    for (index_t j = 0; j < kMicroNR; ++j)
      ctmp[r * kMicroNR + j] =
          (r < mr && j < nr) ? c[r * ldc + j] : T(0);
  mk_tile_simd<T, TA>(kn, ap, bp, ctmp, kMicroNR);
  for (index_t r = 0; r < mr; ++r)
    for (index_t j = 0; j < nr; ++j) c[r * ldc + j] = ctmp[r * kMicroNR + j];
}

}  // namespace tucker::blas::detail

#pragma GCC diagnostic pop
