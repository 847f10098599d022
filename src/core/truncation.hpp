#pragma once
// The truncation policy of ST-HOSVD (lines 5-6 of Alg 1), shared by every
// driver: core::sthosvd, core::par_sthosvd, stream::stream_sthosvd and
// stream::StreamingTucker. Each driver produces a mode's ModeSvd its own way
// (resident kernels, distributed kernels, slab passes) and applies the
// truncation TTM its own way; what they must agree on lives here, once:
//
//  - check_spec: which specs and mode orders a driver accepts;
//  - mode_threshold_sq: the per-mode budget eps^2 ||X||^2 / N;
//  - take_rank / take_mode: record the mode's singular values, pick its
//    rank, copy the leading left singular vectors as the factor;
//  - tail_relative_error: the certificate from the discarded tails;
//  - RandSvdOptions / initial_sketch_width: the randomized engine's knobs
//    and first sketch width, shared by core::rand_svd and the distributed
//    sketch (dist::par_rand_svd).
//
// Tolerance mode: pick the smallest R_n whose discarded tail energy
// sum_{i>R_n} sigma_i^2 is at most eps^2 ||X||^2 / N -- the split that
// guarantees the overall approximation error is at most eps in exact
// arithmetic. Fixed-rank mode (used by the scaling experiments and the
// video dataset, which follow prior work in specifying ranks) bypasses the
// test. When the computed sigma_i^2 are dominated by roundoff noise (the
// Gram-single regime of the paper), the tail never falls under the
// threshold and the selected rank stays at the full dimension -- exactly
// the "fails to compress" behaviour in Tables 2 and 3.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/matrix.hpp"
#include "common/check.hpp"
#include "common/tuning.hpp"
#include "tensor/sketch.hpp"

namespace tucker::core {

using blas::index_t;

/// How ST-HOSVD truncates each mode.
struct TruncationSpec {
  /// Relative error tolerance (tolerance mode). Ignored if ranks is set.
  double epsilon = 0;
  /// Fixed ranks per mode (fixed-rank mode); empty selects tolerance mode.
  std::vector<blas::index_t> ranks;

  static TruncationSpec tolerance(double eps) {
    TUCKER_CHECK(eps > 0, "TruncationSpec: tolerance must be positive");
    TruncationSpec s;
    s.epsilon = eps;
    return s;
  }
  static TruncationSpec fixed_ranks(std::vector<blas::index_t> r) {
    TruncationSpec s;
    s.ranks = std::move(r);
    return s;
  }
  bool is_fixed_rank() const { return !ranks.empty(); }
};

/// Result of the truncated-SVD step for one mode.
template <class T>
struct ModeSvd {
  /// Squared singular values of the unfolding, descending. Gram-SVD reports
  /// |lambda_i|; QR-SVD reports sigma_i^2. Stored in working precision: the
  /// rank-selection noise floor is part of the behaviour under study.
  std::vector<T> sigma_sq;
  /// Left singular vectors: I_n x (number of reported values).
  blas::Matrix<T> u;
};

/// Knobs of the randomized range finder. Defaults follow the HMT
/// recommendations (small constant oversampling, one power iteration).
struct RandSvdOptions {
  /// Extra sketch columns beyond the (guessed or fixed) target rank. Also
  /// the accepted slack in tolerance mode: a selected rank is only trusted
  /// when it leaves `oversample` unused basis columns (otherwise the sketch
  /// widens), so the kept singular vectors are always oversampled.
  index_t oversample = 8;
  /// Subspace (power) iterations: each one sharpens the basis by a factor
  /// of the squared spectral decay, at 2x the sketch's gemm cost.
  int power_iters = 1;
  /// User seed; the engine derives a per-mode stream via rng::substream, so
  /// one seed draws independent test matrices for every mode.
  std::uint64_t seed = 0x5eed;
  /// Tolerance mode's initial rank guess (0 = max(8, m/8)). The adaptive
  /// loop doubles the sketch width from here until the energy budget is
  /// met, reusing all previously drawn columns.
  index_t rank_guess = 0;
  /// Storage width of the Gaussian test matrix (tensor::SketchPayload).
  /// Defaults from TUCKER_SKETCH_HALF.
  tensor::SketchPayload payload = tune::sketch_half_default()
                                      ? tensor::SketchPayload::kHalf
                                      : tensor::SketchPayload::kNative;
};

/// First-round sketch width of the randomized engine on an m-row unfolding
/// whose rank cannot exceed `cap`: the fixed rank (fixed_rank > 0) or the
/// tolerance-mode guess, plus the oversampling, clamped to [1, cap].
inline index_t initial_sketch_width(const RandSvdOptions& opt,
                                    index_t fixed_rank, index_t m,
                                    index_t cap) {
  const index_t p = std::max<index_t>(opt.oversample, 0);
  const index_t target =
      fixed_rank > 0 ? fixed_rank
      : opt.rank_guess > 0 ? opt.rank_guess
                           : std::max<index_t>(8, m / 8);
  return std::max<index_t>(std::min(cap, target + p), 1);
}

/// Why a driver would refuse (spec, order) on an order-`nmodes` tensor, or
/// nullptr when it is valid: fixed ranks name one rank >= 1 per mode, a
/// tolerance is finite and positive, and a non-empty order is a permutation
/// of 0..nmodes-1 (an empty order means "let the driver pick").
inline const char* check_spec(const TruncationSpec& spec,
                              const std::vector<std::size_t>& order,
                              std::size_t nmodes) {
  if (spec.is_fixed_rank()) {
    if (spec.ranks.size() != nmodes)
      return "fixed-rank spec needs one rank per mode";
    for (index_t r : spec.ranks)
      if (r < 1) return "fixed ranks must be >= 1";
  } else if (!(std::isfinite(spec.epsilon) && spec.epsilon > 0)) {
    return "tolerance must be finite and positive";
  }
  if (order.empty()) return nullptr;
  if (order.size() != nmodes) return "order must list every mode";
  std::vector<bool> seen(nmodes, false);
  for (std::size_t n : order) {
    if (n >= nmodes || seen[n]) return "order must be a permutation of 0..N-1";
    seen[n] = true;
  }
  return nullptr;
}

/// Per-mode tail budget eps^2 ||X||^2 / N (0 for fixed ranks). The
/// association order is part of the result bits: keep it.
inline double mode_threshold_sq(const TruncationSpec& spec, double norm_sq,
                                std::size_t nmodes) {
  return spec.is_fixed_rank() ? 0.0
                              : spec.epsilon * spec.epsilon * norm_sq /
                                    static_cast<double>(nmodes);
}

/// Smallest R (>= 1) such that the tail energy of sigma_sq (descending,
/// squared singular values) beyond R is <= threshold_sq. Accumulates the
/// tail from the smallest values up, in the order that adds the values most
/// accurately. An empty spectrum selects R = 1 (the contract promises a
/// positive rank even for degenerate inputs; callers clamp against the
/// factor width separately).
///
/// The randomized engine appends one *residual* pseudo-entry (the energy
/// outside the sketch basis, which has no matching singular vector) at the
/// end of sigma_sq; the walk below then charges it to every candidate tail,
/// which is exactly the discarded energy of a sketched truncation.
template <class T>
blas::index_t select_rank(const std::vector<T>& sigma_sq,
                          double threshold_sq) {
  const auto k = static_cast<blas::index_t>(sigma_sq.size());
  if (k == 0) return 1;
  double tail = 0;
  blas::index_t r = k;
  // Walk from the smallest value: while adding sigma_{r-1}^2 keeps the tail
  // within budget, mode index r-1 can be discarded.
  while (r > 1) {
    tail += static_cast<double>(sigma_sq[static_cast<std::size_t>(r - 1)]);
    if (tail > threshold_sq) break;
    --r;
  }
  return r;
}

/// Rank half of the take-mode step for mode n: writes the mode's singular
/// values (sqrt of each sigma_sq) into `sigmas` and returns the kept rank
/// -- spec.ranks[n] for fixed ranks, select_rank against threshold_sq
/// otherwise -- clamped to the number of computed left vectors.
template <class T>
index_t take_rank(const ModeSvd<T>& svd, const TruncationSpec& spec,
                  std::size_t n, double threshold_sq, std::vector<T>& sigmas) {
  sigmas.resize(svd.sigma_sq.size());
  for (std::size_t i = 0; i < sigmas.size(); ++i)
    sigmas[i] = std::sqrt(svd.sigma_sq[i]);
  const index_t r = spec.is_fixed_rank()
                        ? spec.ranks[n]
                        : select_rank(svd.sigma_sq, threshold_sq);
  return std::min(r, svd.u.cols());
}

/// The take-mode step: take_rank, then the factor -- a copy of the leading
/// `rank` left singular vectors.
template <class T>
blas::Matrix<T> take_mode(const ModeSvd<T>& svd, const TruncationSpec& spec,
                          std::size_t n, double threshold_sq,
                          std::vector<T>& sigmas, index_t& rank) {
  rank = take_rank(svd, spec, n, threshold_sq, sigmas);
  const index_t m = svd.u.rows();
  blas::Matrix<T> u(m, rank);
  blas::copy(blas::MatView<const T>(svd.u.view().block(0, 0, m, rank)),
             u.view());
  return u;
}

/// Certified relative error from the discarded tails:
/// sqrt(sum_n sum_{i >= R_n} sigma_{n,i}^2) / ||X||. Exact in exact
/// arithmetic; in floating point it is as trustworthy as the computed
/// singular values (down to eps for QR-SVD and sqrt(eps) for Gram-SVD, the
/// paper's Sec 3.2). TuckerMPI reports the same bound.
template <class T>
double tail_relative_error(const std::vector<std::vector<T>>& mode_sigmas,
                           const std::vector<index_t>& ranks,
                           double norm_sq) {
  double tail = 0;
  for (std::size_t n = 0; n < mode_sigmas.size(); ++n) {
    const auto& sig = mode_sigmas[n];
    for (std::size_t i = static_cast<std::size_t>(ranks[n]); i < sig.size();
         ++i)
      tail += static_cast<double>(sig[i]) * static_cast<double>(sig[i]);
  }
  return norm_sq > 0 ? std::sqrt(tail / norm_sq) : 0.0;
}

}  // namespace tucker::core
