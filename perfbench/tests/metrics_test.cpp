// Tests of the benchmark's metric math (src/metrics.hpp): percentiles and
// their ten-samples-beyond rule, medians, the geometric mean, latency from
// due time, and the serving ladder's SLO rule with its backlog test.
// Self-contained (no test framework): exits non-zero on the first failure
// after printing every failed check.

#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentiles() {
  using namespace perfbench;
  // Nearest rank on 1..100: p50 = 50, p99 = 99, p100 = 100.
  check(near(percentile(iota(100), 50), 50), "p50 of 1..100");
  check(near(percentile(iota(100), 99), 99), "p99 of 1..100");
  check(near(percentile(iota(100), 100), 100), "p100 of 1..100");
  check(near(percentile(iota(1), 99), 1), "p99 of one sample");
  check(near(percentile({}, 50), 0), "empty sample");
  // Order of the input does not matter.
  check(near(percentile({5, 1, 4, 2, 3}, 50), 3), "p50 unsorted");
  // p99 needs >= 10 samples strictly beyond its rank: 1000 samples put
  // it at index 989 with 10 beyond; 999 put it at index 989 with 9.
  check(percentile_supported(1000, 99), "p99 supported at n=1000");
  check(!percentile_supported(999, 99), "p99 unsupported at n=999");
  check(!percentile_supported(100, 99), "p99 unsupported at n=100");
  check(percentile_supported(200, 90), "p90 supported at n=200");
  check(near(highest_supported_percentile(2000), 99), "best pct, n=2000");
  check(near(highest_supported_percentile(250), 95), "best pct, n=250");
  check(near(highest_supported_percentile(20), 50), "best pct, n=20");
  check(near(highest_supported_percentile(20000), 99.9), "best pct, n=2e4");
}

void medians_and_means() {
  using namespace perfbench;
  check(near(median({3, 1, 2}), 2), "odd median");
  check(near(median({4, 1, 3, 2}), 2.5), "even median is the midpoint");
  check(near(geomean({1, 4, 16}), 4), "geomean");
  check(near(geomean({2}), 2), "geomean of one");
  check(near(geomean({1, 0, 4}), 0), "geomean with a zero");
  check(near(geomean({}), 0), "geomean of none");
}

void due_time_latency() {
  using namespace perfbench;
  // On time: latency is the service time.
  check(near(latency_from_due(1.0, 1.0, 0.002), 0.002), "on-time request");
  // Sent 5 ms late because the generator stalled: the stall counts.
  check(near(latency_from_due(1.0, 1.005, 0.002), 0.007), "late request");
  // Clock jitter never makes a request early.
  check(near(latency_from_due(1.0, 0.999, 0.002), 0.002), "early clamp");
}

void slo_ladder() {
  using namespace perfbench;
  const double limit = 25;
  auto rung = [](double rate, double p99, std::size_t n, std::size_t failed,
                 double drain) {
    RungResult r;
    r.rate = rate;
    r.p99_ms = p99;
    r.samples = n;
    r.failed = failed;
    r.drain_s = drain;
    return r;
  };
  check(!backlog_growing(rung(1, 1, 2000, 0, 0.020), limit),
        "20 ms drain is no backlog under a 25 ms limit");
  check(backlog_growing(rung(1, 1, 2000, 0, 0.030), limit),
        "30 ms drain is a growing backlog");
  // All rungs pass: the top rate.
  check(near(slo_rps({rung(500, 5, 2000, 0, 0.01), rung(1000, 9, 2000, 0, 0.01),
                      rung(1500, 20, 2000, 0, 0.01)},
                     limit),
             1500),
        "all rungs pass");
  // p99 over the limit at 1500: capacity is 1000 (input order irrelevant).
  check(near(slo_rps({rung(1500, 30, 2000, 0, 0.01), rung(500, 5, 2000, 0, 0.01),
                      rung(1000, 9, 2000, 0, 0.01)},
                     limit),
             1000),
        "p99 over the limit");
  // A failure disqualifies the rung even with a good p99.
  check(near(slo_rps({rung(500, 5, 2000, 0, 0.01), rung(1000, 9, 2000, 1, 0.01)},
                     limit),
             500),
        "a failed request");
  // A growing backlog disqualifies the rung.
  check(near(slo_rps({rung(500, 5, 2000, 0, 0.01), rung(1000, 9, 2000, 0, 0.5)},
                     limit),
             500),
        "a growing backlog");
  // Too few samples for a p99: the rung cannot certify the SLO.
  check(near(slo_rps({rung(500, 5, 900, 0, 0.01)}, limit), 0),
        "unsupported p99");
  // A pass above a failing rung does not count.
  check(near(slo_rps({rung(500, 30, 2000, 0, 0.01), rung(1000, 9, 2000, 0, 0.01)},
                     limit),
             0),
        "no pass above a failure");
}

}  // namespace

int main() {
  percentiles();
  medians_and_means();
  due_time_latency();
  slo_ladder();
  if (failures == 0) std::printf("metrics_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
