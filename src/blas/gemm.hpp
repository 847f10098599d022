#pragma once
// Level-3 kernels: general matrix multiply and symmetric rank-k update.
//
// These are the flop-dominant kernels of both SVD paths: the Gram approach
// spends nearly all its time in syrk on unfolding blocks (TuckerMPI Alg 2),
// and both approaches share gemm inside the TTM truncation. Kernels take
// stride-generic views; transposition is expressed with MatView::t().
//
// Both kernels run on the register-tiled micro-kernel of microkernel.hpp:
// A and B are packed into contiguous MR-row / NR-column panels (alpha
// folded into the A pack), and an MR x NR block of C is computed with
// independent per-element accumulators, the NR axis vectorized. Packing
// scratch comes from the per-thread Workspace arena, so steady-state calls
// never touch the heap.
//
// Both kernels are multithreaded through tucker::parallel by partitioning
// the *output*: gemm over row or column panels of C, syrk over balanced row
// bands of the triangle. Partitions write disjoint elements and every
// element keeps the serial k-accumulation order, so results are bitwise
// identical for every thread count (see thread_pool.hpp) and for every
// cache-block size (blocking only changes when partial sums spill to
// memory, which does not round). Small problems and exotic layouts take
// scalar fallback paths.

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/matview.hpp"
#include "blas/microkernel.hpp"
#include "common/flops.hpp"
#include "common/thread_pool.hpp"
#include "common/tuning.hpp"
#include "common/workspace.hpp"

namespace tucker::blas {

/// C = alpha * A * B + beta * C.
/// Shapes: A is m x k, B is k x n, C is m x n. Any strides: a C stored
/// column-major is handled by computing C^T = B^T A^T; A and B panels are
/// packed into contiguous tiles whatever their strides, so every layout
/// runs at the micro-kernel rate.
///
/// TA is the register-tile accumulator (Accum::kWide passes wide_t<T>).
/// Wide accumulation still spills C at storage width once per k block, so
/// its bits depend on TUCKER_GEMM_KB (one storage rounding per spill, error
/// ~(k/kb + 1) * eps_s instead of k * eps_s) -- but, like every blocking
/// knob, never on thread count, SIMD variant or output partition.
template <class T, class TA = T>
void gemm(T alpha, MatView<const T> a, MatView<const T> b, T beta,
          MatView<T> c) {
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  TUCKER_CHECK(a.rows() == m && b.rows() == k && b.cols() == n,
               "gemm: shape mismatch");

  // Column-contiguous C: flip to the transposed product, which is
  // row-contiguous.
  if (c.col_stride() != 1 && c.row_stride() == 1) {
    gemm<T, TA>(alpha, b.t(), a.t(), beta, c.t());
    return;
  }

  // Flops count the arithmetic (performed at TA width under kWide); bytes
  // count the streamed words, which stay at storage width. The two ledgers
  // are deliberately independent -- see flops.hpp.
  add_flops(2 * m * n * k);
  add_traffic(flops::gemm_bytes(m, n, k, sizeof(T)));

  if (beta == T(0)) {
    fill(c, T(0));
  } else if (beta != T(1)) {
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < n; ++j) c(i, j) *= beta;
  }
  if (alpha == T(0) || k == 0 || m == 0 || n == 0) return;

  if (c.col_stride() == 1) {
    // GEBP structure: j panels (keep a C/B column block resident), k blocks
    // (bound the packed tile depth), i blocks (keep the packed A panel in
    // L2), then the register-tiled micro-kernel over NR x MR sub-tiles.
    // Each parallel task runs the same code over its own panel with
    // per-worker pack scratch from Workspace::local(). The k-accumulation
    // order per element never depends on the panel bounds, so any partition
    // of C yields bits identical to the serial run.
    using detail::kMicroMR;
    using detail::kMicroNR;
    const index_t ldc = c.row_stride();
    auto run_panel = [&](index_t ilo, index_t ihi, index_t jlo, index_t jhi) {
      if (ihi <= ilo || jhi <= jlo) return;
      const index_t jb = std::min(tune::gemm_jb(), jhi - jlo);
      const index_t kb = std::min(tune::gemm_kb(), k);
      const index_t mc = std::min(tune::gemm_mc(), ihi - ilo);
      Workspace& ws = Workspace::local();
      auto scratch = ws.frame();
      T* bpack = ws.get<T>(
          static_cast<std::size_t>(detail::round_up(jb, kMicroNR) * kb));
      T* apack = ws.get<T>(
          static_cast<std::size_t>(detail::round_up(mc, kMicroMR) * kb));
      for (index_t j0 = jlo; j0 < jhi; j0 += jb) {
        const index_t jn = std::min(jb, jhi - j0);
        for (index_t k0 = 0; k0 < k; k0 += kb) {
          const index_t kn = std::min(kb, k - k0);
          detail::pack_b(b, k0, kn, j0, jn, bpack);
          for (index_t i0 = ilo; i0 < ihi; i0 += mc) {
            const index_t ib = std::min(mc, ihi - i0);
            detail::pack_a(a, i0, ib, k0, kn, alpha, apack);
            for (index_t jt = 0; jt < jn; jt += kMicroNR) {
              const index_t nr = std::min(kMicroNR, jn - jt);
              const T* bp = bpack + jt * kn;
              for (index_t it = 0; it < ib; it += kMicroMR) {
                const index_t mr = std::min(kMicroMR, ib - it);
                const T* ap = apack + it * kn;
                T* cp = c.data() + (i0 + it) * ldc + (j0 + jt);
                if (mr == kMicroMR && nr == kMicroNR) {
                  detail::mk_tile_simd<T, TA>(kn, ap, bp, cp, ldc);
                } else {
                  detail::mk_tile_edge<T, TA>(kn, ap, bp, cp, ldc, mr, nr);
                }
              }
            }
          }
        }
      }
    };

    const double work = 2.0 * static_cast<double>(m) * n * k;
    if (parallel::this_thread_width() > 1 &&
        work >= tune::par_flop_threshold()) {
      // Split the larger C dimension; columns preferred (each panel packs
      // its own B tiles, so column panels never duplicate packing work).
      if (n >= m || n >= 256) {
        parallel::parallel_for(0, n, 64, [&](index_t jlo, index_t jhi) {
          run_panel(0, m, jlo, jhi);
        });
      } else {
        parallel::parallel_for(0, m, 16, [&](index_t ilo, index_t ihi) {
          run_panel(ilo, ihi, 0, n);
        });
      }
    } else {
      run_panel(0, m, 0, n);
    }
  } else if constexpr (std::is_same_v<T, TA>) {
    // Fully generic fallback (neither C orientation contiguous).
    for (index_t i = 0; i < m; ++i)
      for (index_t kk = 0; kk < k; ++kk) {
        const T av = alpha * a(i, kk);
        if (av == T(0)) continue;
        for (index_t j = 0; j < n; ++j) c(i, j) += av * b(kk, j);
      }
  } else {
    // Wide generic fallback: mimic the tiled path's chain exactly -- per
    // element, widen C, accumulate one k block in TA, round to storage --
    // so exotic layouts produce the same bits as the packed path.
    const index_t kb = std::min(tune::gemm_kb(), k);
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < n; ++j)
        for (index_t k0 = 0; k0 < k; k0 += kb) {
          const index_t kn = std::min(kb, k - k0);
          TA s = static_cast<TA>(c(i, j));
          for (index_t kk = k0; kk < k0 + kn; ++kk)
            s += static_cast<TA>(alpha * a(i, kk)) *
                 static_cast<TA>(b(kk, j));
          c(i, j) = static_cast<T>(s);
        }
  }
}

namespace detail {

/// Elements a full-k prepacked A panel occupies for an m x k matrix
/// (ceil(m/MR) sub-panels of k*MR values, see pack_a's layout).
inline index_t prepacked_a_elems(index_t m, index_t k) {
  return round_up(m, kMicroMR) * k;
}

/// C = A * B (beta = 0) where A (m x k) was prepacked over its *full* k
/// range by `pack_a(a, 0, m, 0, k, alpha, apack)`. Because a sub-panel
/// stores its MR rows k-contiguously, the tile for k block [k0, k0+kn)
/// starts at `apack + it*k + k0*MR` -- the one-time pack supports every
/// later k blocking, which is what lets the TTM engine pack the factor
/// matrix once and reuse it across all unfolding blocks. Runs serially on
/// the calling thread (callers partition blocks or columns); B-panel
/// scratch comes from the caller's Workspace. C must be row-contiguous.
///
/// Bitwise contract: same jb/kb blocking, same packed values and the same
/// mk_tile_simd per-element ascending-k accumulation chain as `gemm` with
/// beta = 0, so the result is bit-identical to the reference call.
template <class T, class TA = T>
void gemm_prepacked_a(const T* apack, index_t m, index_t k, MatView<const T> b,
                      MatView<T> c) {
  const index_t n = c.cols();
  TUCKER_CHECK(c.rows() == m && b.rows() == k && b.cols() == n,
               "gemm_prepacked_a: shape mismatch");
  TUCKER_CHECK(c.col_stride() == 1, "gemm_prepacked_a: C must be row-major");
  add_flops(2 * m * n * k);
  // The prepacked A panel is reused across calls; charge only B and C.
  add_traffic(static_cast<std::int64_t>(sizeof(T)) * (k * n + 2 * m * n));
  fill(c, T(0));
  if (m == 0 || n == 0 || k == 0) return;

  const index_t ldc = c.row_stride();
  const index_t jb = std::min(tune::gemm_jb(), n);
  const index_t kb = std::min(tune::gemm_kb(), k);
  Workspace& ws = Workspace::local();
  auto scratch = ws.frame();
  T* bpack =
      ws.get<T>(static_cast<std::size_t>(round_up(jb, kMicroNR) * kb));
  for (index_t j0 = 0; j0 < n; j0 += jb) {
    const index_t jn = std::min(jb, n - j0);
    for (index_t k0 = 0; k0 < k; k0 += kb) {
      const index_t kn = std::min(kb, k - k0);
      pack_b(b, k0, kn, j0, jn, bpack);
      for (index_t jt = 0; jt < jn; jt += kMicroNR) {
        const index_t nr = std::min(kMicroNR, jn - jt);
        const T* bp = bpack + jt * kn;
        for (index_t it = 0; it < m; it += kMicroMR) {
          const index_t mr = std::min(kMicroMR, m - it);
          const T* ap = apack + it * k + k0 * kMicroMR;
          T* cp = c.data() + it * ldc + (j0 + jt);
          if (mr == kMicroMR && nr == kMicroNR) {
            mk_tile_simd<T, TA>(kn, ap, bp, cp, ldc);
          } else {
            mk_tile_edge<T, TA>(kn, ap, bp, cp, ldc, mr, nr);
          }
        }
      }
    }
  }
}

}  // namespace detail

/// C = alpha * A * A^T + beta * C, with A m x n and C m x m.
/// Computes the lower triangle with the register-tiled micro-kernel (the
/// "B" operand is A^T, packed from the same matrix), then mirrors to the
/// upper triangle (the Gram eigensolver wants the full symmetric matrix).
/// TA as in gemm: wide accumulation spills at storage width per k block.
template <class T, class TA = T>
void syrk(T alpha, MatView<const T> a, T beta, MatView<T> c) {
  const index_t m = a.rows(), n = a.cols();
  TUCKER_CHECK(c.rows() == m && c.cols() == m, "syrk: C must be m x m");
  // Nominal cost: m(m+1)n mults+adds over the triangle.
  add_flops(static_cast<std::int64_t>(m) * (m + 1) * n);
  add_traffic(flops::syrk_bytes(m, n, sizeof(T)));

  if (beta == T(0)) {
    fill(c, T(0));
  } else if (beta != T(1)) {
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < m; ++j) c(i, j) *= beta;
  }
  if (alpha == T(0) || n == 0) {
    return;
  }

  // Parallel decomposition: row bands [rlo, rhi) of the lower triangle.
  // Band b of nb bands spans rows [m*sqrt(b/nb), m*sqrt((b+1)/nb)), which
  // equalizes triangle area per band. Each element keeps the serial
  // k-accumulation order c += (alpha * a(i,k)) * a(j,k), so neither banding
  // nor tiling ever changes the bits.
  using detail::kMicroMR;
  using detail::kMicroNR;
  constexpr index_t kSyrkKB = 256;
  const MatView<const T> at = a.t();
  const index_t ldc = c.col_stride() == 1 ? c.row_stride() : 0;
  auto run_band = [&](index_t rlo, index_t rhi) {
    if (rhi <= rlo) return;
    if (c.col_stride() != 1) {
      // Generic-C fallback (not used by the library's own row-major Grams).
      if constexpr (std::is_same_v<T, TA>) {
        for (index_t kk = 0; kk < n; ++kk)
          for (index_t i = rlo; i < rhi; ++i) {
            const T av = alpha * a(i, kk);
            for (index_t j = 0; j <= i; ++j) c(i, j) += av * a(j, kk);
          }
      } else {
        // Wide: per element, one TA run per k block with a storage-width
        // spill, matching the tiled chain (kSyrkKB below).
        const index_t kb = std::min<index_t>(kSyrkKB, n);
        for (index_t i = rlo; i < rhi; ++i)
          for (index_t j = 0; j <= i; ++j)
            for (index_t k0 = 0; k0 < n; k0 += kb) {
              const index_t kn = std::min(kb, n - k0);
              TA s = static_cast<TA>(c(i, j));
              for (index_t kk = k0; kk < k0 + kn; ++kk)
                s += static_cast<TA>(alpha * a(i, kk)) *
                     static_cast<TA>(a(j, kk));
              c(i, j) = static_cast<T>(s);
            }
      }
      return;
    }
    const index_t band_h = rhi - rlo;
    const index_t kb = std::min<index_t>(kSyrkKB, n);
    Workspace& ws = Workspace::local();
    auto scratch = ws.frame();
    T* apack = ws.get<T>(
        static_cast<std::size_t>(detail::round_up(band_h, kMicroMR) * kb));
    T* rpack = ws.get<T>(
        static_cast<std::size_t>(detail::round_up(rhi, kMicroNR) * kb));
    for (index_t k0 = 0; k0 < n; k0 += kb) {
      const index_t kn = std::min(kb, n - k0);
      // Right operand: columns j in [0, rhi) of A^T, i.e. rows of A.
      detail::pack_b(at, k0, kn, 0, rhi, rpack);
      detail::pack_a(a, rlo, band_h, k0, kn, alpha, apack);
      for (index_t it = 0; it < band_h; it += kMicroMR) {
        const index_t i0 = rlo + it;
        const index_t mr = std::min(kMicroMR, band_h - it);
        const T* ap = apack + it * kn;
        const index_t jmax = i0 + mr - 1;  // widest valid column in tile
        for (index_t jt = 0; jt <= jmax; jt += kMicroNR) {
          const T* bp = rpack + jt * kn;
          T* cp = c.data() + i0 * ldc + jt;
          if (mr == kMicroMR && jt + kMicroNR - 1 <= i0) {
            detail::mk_tile_simd<T, TA>(kn, ap, bp, cp, ldc);
          } else {
            // Diagonal-crossing or edge tile: compute the full tile into a
            // local buffer, store back only the lower-triangle entries.
            T ctmp[kMicroMR * kMicroNR];
            for (index_t r = 0; r < kMicroMR; ++r)
              for (index_t j = 0; j < kMicroNR; ++j) {
                const bool live = r < mr && jt + j <= i0 + r;
                ctmp[r * kMicroNR + j] = live ? cp[r * ldc + j] : T(0);
              }
            detail::mk_tile_simd<T, TA>(kn, ap, bp, ctmp, kMicroNR);
            for (index_t r = 0; r < mr; ++r) {
              const index_t jn = std::min(kMicroNR, i0 + r - jt + 1);
              for (index_t j = 0; j < jn; ++j)
                cp[r * ldc + j] = ctmp[r * kMicroNR + j];
            }
          }
        }
      }
    }
  };

  const double work = static_cast<double>(m) * (m + 1) * n;
  if (parallel::this_thread_width() > 1 &&
      work >= tune::par_flop_threshold() && m >= 4) {
    // Band count from problem size only (not thread count): ~32k triangle
    // elements per band, at most m bands.
    const index_t area = m * (m + 1) / 2;
    const index_t nbands =
        std::clamp<index_t>(area / 32768 + 1, 1, std::min<index_t>(m, 64));
    std::vector<index_t> bnd(static_cast<std::size_t>(nbands) + 1, 0);
    for (index_t b = 1; b < nbands; ++b)
      bnd[static_cast<std::size_t>(b)] = std::min<index_t>(
          m, static_cast<index_t>(
                 std::ceil(m * std::sqrt(static_cast<double>(b) / nbands))));
    bnd[static_cast<std::size_t>(nbands)] = m;
    parallel::parallel_for_chunks(
        0, nbands, 1, [&](index_t band, index_t, index_t) {
          run_band(bnd[static_cast<std::size_t>(band)],
                   bnd[static_cast<std::size_t>(band) + 1]);
        });
    // Mirror in parallel too: row i of the upper triangle only reads
    // already-final lower entries (the bands above finished at the barrier).
    parallel::parallel_for(0, m, 64, [&](index_t rlo, index_t rhi) {
      for (index_t i = rlo; i < rhi; ++i)
        for (index_t j = i + 1; j < m; ++j) c(i, j) = c(j, i);
    });
    return;
  }

  run_band(0, m);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = i + 1; j < m; ++j) c(i, j) = c(j, i);
}

}  // namespace tucker::blas
