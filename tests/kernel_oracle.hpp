#pragma once
// The scalar micro-kernels of blas/microkernel.hpp as test oracles. Every
// driver (gemm, syrk, the packed TTM) runs the SIMD kernels; these sweeps
// call each SIMD kernel and its scalar twin directly on the same operands
// and require bitwise-identical output. Shared by kernel_equivalence_test
// (native accumulation), ttm_equivalence_test (the TTM kernels) and
// precision_test (wide accumulation).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "blas/microkernel.hpp"
#include "common/rng.hpp"

namespace tucker::oracle {

template <class T>
std::vector<T> random_values(std::size_t n, Rng& rng) {
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.normal<double>());
  return v;
}

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// mk_tile_simd against mk_tile_scalar over packed panels of every k depth
/// around the vector and blocking widths, into a C tile with a row stride
/// wider than the tile (as in a live gemm block). The special-value pass
/// plants a NaN in A and an Inf in B, which must propagate identically.
template <class T, class TA = T>
void expect_gemm_tile_matches_oracle() {
  using blas::index_t;
  using blas::detail::kMicroMR;
  using blas::detail::kMicroNR;
  Rng rng(51);
  const index_t ldc = kMicroNR + 3;
  for (index_t kn : {0, 1, 3, 8, 17, 256}) {
    for (bool special : {false, true}) {
      auto ap = random_values<T>(static_cast<std::size_t>(kn * kMicroMR), rng);
      auto bp = random_values<T>(static_cast<std::size_t>(kn * kMicroNR), rng);
      if (special && kn >= 3) {
        ap[1] = std::numeric_limits<T>::quiet_NaN();
        bp[2 * kMicroNR + 5] = std::numeric_limits<T>::infinity();
      }
      const auto c0 =
          random_values<T>(static_cast<std::size_t>(kMicroMR * ldc), rng);
      auto simd = c0, scalar = c0;
      blas::detail::mk_tile_simd<T, TA>(kn, ap.data(), bp.data(), simd.data(),
                                        ldc);
      blas::detail::mk_tile_scalar<T, TA>(kn, ap.data(), bp.data(),
                                          scalar.data(), ldc);
      EXPECT_TRUE(same_bits(simd, scalar))
          << "kn=" << kn << " special=" << special;
    }
  }
}

/// The packing-free TTM kernels against their scalar oracles: both B walks
/// of ttm_cols (register tiles and streaming row updates) against
/// ttm_cols_scalar on column ranges that start and end off the vector
/// grid, and ttm_mode0_simd against ttm_mode0_scalar at every accumulator
/// vector count NV = 1..8 and its remainders.
template <class T, class TA = T>
void expect_ttm_kernels_match_oracle() {
  using blas::index_t;
  using blas::detail::kMicroNR;
  using blas::detail::kTtmAxpyMaxR;
  Rng rng(52);
  for (index_t m : {1, 3, 4, 9}) {
    for (index_t k : {1, 7, 40}) {
      const index_t ldb = 45, ldc = 47;
      const auto a = random_values<T>(static_cast<std::size_t>(m * k), rng);
      const auto b = random_values<T>(static_cast<std::size_t>(k * ldb), rng);
      for (auto [j0, j1] : {std::pair<index_t, index_t>{0, 45}, {3, 29}}) {
        std::vector<TA> ref(static_cast<std::size_t>(m * ldc), TA(-1));
        auto tiles = ref, rows = ref;
        blas::detail::ttm_cols_scalar(m, k, a.data(), b.data(), ldb,
                                      ref.data(), ldc, j0, j1);
        blas::detail::ttm_cols(false, m, k, a.data(), b.data(), ldb,
                               tiles.data(), ldc, j0, j1);
        blas::detail::ttm_cols(true, m, k, a.data(), b.data(), ldb,
                               rows.data(), ldc, j0, j1);
        EXPECT_TRUE(same_bits(tiles, ref))
            << "register tiles m=" << m << " k=" << k << " j0=" << j0;
        EXPECT_TRUE(same_bits(rows, ref))
            << "row walk m=" << m << " k=" << k << " j0=" << j0;
      }
    }
  }
  for (index_t r : {index_t{1}, kMicroNR, kMicroNR + 1, index_t{29},
                    kTtmAxpyMaxR}) {
    const index_t k = 13, cols = 11;
    const index_t ldut = blas::detail::round_up(r, kMicroNR);
    auto ut = random_values<T>(static_cast<std::size_t>(k * ldut), rng);
    for (index_t kk = 0; kk < k; ++kk)
      for (index_t q = r; q < ldut; ++q)
        ut[static_cast<std::size_t>(kk * ldut + q)] = T(0);
    const auto x = random_values<T>(static_cast<std::size_t>(k * cols), rng);
    std::vector<T> ref(static_cast<std::size_t>(r * cols), T(-1));
    auto simd = ref;
    blas::detail::ttm_mode0_scalar<T, TA>(k, r, ut.data(), ldut, x.data(),
                                          ref.data(), 1, cols);
    blas::detail::ttm_mode0_simd<T, TA>(k, r, ut.data(), ldut, x.data(),
                                        simd.data(), 1, cols);
    EXPECT_TRUE(same_bits(simd, ref)) << "mode-0 r=" << r;
  }
}

}  // namespace tucker::oracle
