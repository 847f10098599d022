#pragma once
// Metric math of the benchmark: percentiles with their sample-support
// rule, medians and quartiles, geometric means, latency from due time and
// the serving ladder's SLO rule. Pure functions over plain vectors so
// tests/metrics_test.cpp can pin every definition the report relies on.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave beyond it before the report trusts it
/// (the tail of a p99 over 200 samples is two points, not a distribution).
inline constexpr std::size_t kTailSupport = 10;

/// Nearest-rank index of the p-th percentile (0 < p <= 100) in n sorted
/// samples: the smallest index i with (i + 1) / n >= p / 100.
inline std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const auto i = static_cast<std::size_t>(std::max(1.0, r)) - 1;
  return std::min(i, n - 1);
}

/// Nearest-rank percentile; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[percentile_rank(v.size(), p)];
}

/// True when at least kTailSupport samples lie strictly beyond the p-th
/// percentile's rank.
inline bool percentile_supported(std::size_t n, double p) {
  return n > 0 && n - 1 - percentile_rank(n, p) >= kTailSupport;
}

/// The highest of the candidate percentiles (descending) the sample
/// supports, or 50 when none does.
inline double highest_supported_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0})
    if (percentile_supported(n, p)) return p;
  return 50.0;
}

/// Median as the mean of the two middle samples (even n), matching
/// Python's statistics.median.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Geometric mean of positive values; 0 when any value is non-positive or
/// the sample is empty (a ratio of 0 must not vanish into the mean).
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(v.size()));
}

/// Open-loop latency of one request, timed from when it was due: the
/// generator's lateness in sending it (submit_s - due_s, clamped at 0 --
/// a request is never early) plus the service's own submit-to-response
/// time. A stall therefore also charges every request due during it.
inline double latency_from_due(double due_s, double submit_s,
                               double service_s) {
  return std::max(0.0, submit_s - due_s) + service_s;
}

/// Outcome of one rate of the serving ladder.
struct RungResult {
  double rate = 0;         ///< nominal arrivals per second
  double p99_ms = 0;       ///< reconstruct latency percentile from due time
  std::size_t samples = 0; ///< reconstruct latencies behind p99_ms
  std::size_t failed = 0;  ///< failed checks + shed + refused, all kinds
  double drain_s = 0;      ///< last due time -> last reconstruct response
};

/// A rung's backlog is growing when the service cannot finish the
/// reconstructs already offered within the latency limit once arrivals
/// stop: a queue that keeps pace drains within about one request's
/// latency. (A compress job due near the end legitimately runs longer
/// than the limit, so only reconstructs count.)
inline bool backlog_growing(const RungResult& r, double limit_ms) {
  return r.drain_s * 1e3 > limit_ms;
}

/// A rung meets the SLO when its reconstruct p99 is supported by enough
/// samples and within the limit, nothing failed, and no backlog grew.
inline bool rung_meets_slo(const RungResult& r, double limit_ms) {
  return r.samples > 0 && percentile_supported(r.samples, 99.0) &&
         r.p99_ms <= limit_ms && r.failed == 0 &&
         !backlog_growing(r, limit_ms);
}

/// slo_rps: the highest ladder rate meeting the SLO such that every lower
/// rate meets it too (a ladder that passes at 1000 rps after failing at
/// 500 is noise, not capacity). 0 when the lowest rate already fails.
inline double slo_rps(std::vector<RungResult> rungs, double limit_ms) {
  std::sort(rungs.begin(), rungs.end(),
            [](const RungResult& a, const RungResult& b) {
              return a.rate < b.rate;
            });
  double best = 0;
  for (const auto& r : rungs) {
    if (!rung_meets_slo(r, limit_ms)) break;
    best = r.rate;
  }
  return best;
}

}  // namespace perfbench
