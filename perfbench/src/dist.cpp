// Workload dist-p4: the paper's parallel ST-HOSVD (core::par_sthosvd) on
// the simulated MPI runtime, 4 ranks on a 2x2x1x1 grid, over the same
// HCCI stand-in as hcci-compress. Variants qr_single and gram_double.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "metrics.hpp"

namespace perfbench {
namespace {

using namespace tucker;
using core::SvdMethod;

constexpr int kRanks = 4;
const Dims kGrid = {2, 2, 1, 1};

/// One simmpi job's outcome: wall time, the runtime's statistics, and the
/// result pieces the checks compare (replicated factors, per-rank core
/// blocks, and -- on a checked job -- the decomposition gathered on rank 0).
template <class T>
struct Outcome {
  double wall = 0;
  mpi::RunStats stats;
  std::vector<blas::Matrix<T>> factors;
  std::vector<index_t> ranks;
  std::vector<Tensor<T>> local_cores = std::vector<Tensor<T>>(kRanks);
  core::TuckerTensor<T> gathered;
};

template <class T>
Outcome<T> run_job(const Tensor<T>& x, SvdMethod m, bool gather) {
  Outcome<T> out;
  const auto spec = core::TruncationSpec::tolerance(kEpsilon);
  const auto t0 = Clock::now();
  out.stats = mpi::Runtime::run(kRanks, [&](mpi::Comm& world) {
    dist::DistTensor<T> dt(world, dist::ProcessorGrid(kGrid), x.dims());
    dt.fill_from(x);
    world.sync_cpu_clock();
    world.breakdown().set_region("other");
    auto res = core::par_sthosvd(dt, spec, m, core::SthosvdOptions{});
    const auto r = static_cast<std::size_t>(world.rank());
    out.local_cores[r] = res.core.local();
    if (r == 0) {
      out.factors = res.factors;
      out.ranks = res.ranks;
    }
    if (gather) {
      auto tk = res.gather_to_root();
      if (r == 0) out.gathered = std::move(tk);
    }
  });
  out.wall = seconds_between(t0, Clock::now());
  return out;
}

template <class T>
bool same_outcome(const Outcome<T>& a, const Outcome<T>& b) {
  if (a.ranks != b.ranks || a.factors.size() != b.factors.size())
    return false;
  for (std::size_t n = 0; n < a.factors.size(); ++n)
    if (!same_matrix(a.factors[n], b.factors[n])) return false;
  for (std::size_t r = 0; r < a.local_cores.size(); ++r)
    if (!same_tensor(a.local_cores[r], b.local_cores[r])) return false;
  return true;
}

/// Seconds of the slowest rank's compute + comm regions whose label ends
/// in `suffix` ("/LQ", "/TTM", ...; "norm" matches the norm regions).
double region_seconds(const mpi::RankStats& s, const std::string& suffix) {
  double t = 0;
  auto add = [&](const std::map<std::string, double>& m) {
    for (const auto& [k, v] : m)
      if (k.size() >= suffix.size() &&
          k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0)
        t += v;
  };
  add(s.region_compute);
  add(s.region_comm);
  return t;
}

struct VariantRuns {
  const Variant* v;
  std::vector<double> wall, makespan;
  std::map<std::string, std::vector<double>> layer;
  double ratio = 0;
};

void record(VariantRuns& vr, const mpi::RunStats& st, double wall) {
  vr.wall.push_back(wall);
  vr.makespan.push_back(st.makespan());
  const auto& slow = st.slowest();
  double mean_vtime = 0;
  for (const auto& r : st.ranks) mean_vtime += r.vtime;
  mean_vtime /= static_cast<double>(st.ranks.size());
  auto& l = vr.layer;
  l["simmpi.compute_s"].push_back(slow.compute_seconds);
  l["simmpi.comm_s"].push_back(slow.comm_seconds);
  l["simmpi.comm_hidden_s"].push_back(slow.comm_hidden);
  l["simmpi.messages"].push_back(static_cast<double>(st.total_messages()));
  l["simmpi.bytes"].push_back(static_cast<double>(st.total_bytes()));
  l["simmpi.imbalance"].push_back(mean_vtime > 0 ? st.makespan() / mean_vtime
                                                 : 0.0);
  const std::string v = vr.v->name;
  const bool qr = vr.v->method == SvdMethod::kQr;
  if (qr) {
    l["dist.lq.s." + v].push_back(region_seconds(slow, "/LQ"));
    l["dist.svd.s." + v].push_back(region_seconds(slow, "/SVD"));
  } else {
    l["dist.gram.s." + v].push_back(region_seconds(slow, "/Gram"));
    l["dist.evd.s." + v].push_back(region_seconds(slow, "/EVD"));
  }
  l["dist.ttm.s." + v].push_back(region_seconds(slow, "/TTM"));
  l["dist.norm.s." + v].push_back(region_seconds(slow, "norm"));
}

/// Checked job + timed rounds of one precision's variant.
template <class T>
struct Runner {
  VariantRuns runs;
  const Tensor<T>* x;
  const Tensor<double>* x64;
  Outcome<T> ref;

  void check(Report& rep) {
    ref = run_job(*x, runs.v->method, /*gather=*/true);
    const double err = tucker_error(*x64, ref.gathered);
    runs.ratio = ref.gathered.compression_ratio();
    char what[96];
    std::snprintf(what, sizeof what, "%s gathered error %.3e > eps",
                  runs.v->name, err);
    rep.attempt(err <= kEpsilon, what);
  }

  double timed(Report& rep) {
    auto o = run_job(*x, runs.v->method, /*gather=*/false);
    rep.attempt(same_outcome(o, ref),
                std::string(runs.v->name) + " job differs from checked job");
    record(runs, o.stats, o.wall);
    return o.wall;
  }
};

}  // namespace

void run_dist_p4(const Options& opt, Report& rep) {
  const double scale = opt.smoke ? kSmokeScale : kHcciScale;
  Tensor<double> x64;
  Tensor<float> x32;
  const double setup = median_seconds(3, [&] {
    x64 = hcci_input(scale, opt.seed);
    x32 = data::round_tensor_to<float>(x64);
  });
  rep.e2e("setup_s", setup, "s");
  const double me = melem(x64.dims());

  Runner<float> qr{{&variant_named("qr_single"), {}, {}, {}, 0}, &x32, &x64,
                   {}};
  Runner<double> gram{{&variant_named("gram_double"), {}, {}, {}, 0}, &x64,
                      &x64, {}};
  qr.check(rep);
  gram.check(rep);
  rep.e2e("compression_ratio", geomean({qr.runs.ratio, gram.runs.ratio}),
          "x");

  std::vector<double> rounds;
  const auto t0 = Clock::now();
  double timed = 0;
  while (rounds.empty() || timed < opt.seconds) {
    const double r = qr.timed(rep) + gram.timed(rep);
    rounds.push_back(r);
    timed += r;
    if (seconds_between(t0, Clock::now()) > 4 * opt.seconds) break;
  }

  std::vector<double> rates;
  double makespan = 0;
  for (const VariantRuns* vr : {&qr.runs, &gram.runs}) {
    const double rate = me / median(vr->wall);
    rates.push_back(rate);
    rep.e2e(std::string("compress_melem_s.") + vr->v->name, rate, "Melem/s");
    makespan += median(vr->makespan);
  }
  rep.e2e("compress_melem_s", geomean(rates), "Melem/s");
  rep.e2e("sim_makespan_s", makespan, "s");
  // The paper's method: one QR-single simmpi job.
  rep.e2e("op_p50_ms", median(qr.runs.wall) * 1e3, "ms");

  if (!opt.trace) return;
  // simmpi.* sum over both variants (imbalance: the worse of the two);
  // dist.* are per variant already.
  std::map<std::string, double> sums;
  for (const VariantRuns* vr : {&qr.runs, &gram.runs})
    for (const auto& [name, vals] : vr->layer) {
      const double m = median(vals);
      if (name == "simmpi.imbalance")
        sums[name] = std::max(sums[name], m);
      else
        sums[name] += m;
    }
  for (const auto& [name, v] : sums) {
    const char* unit = name == "simmpi.messages" ? "count"
                       : name == "simmpi.bytes"   ? "B"
                       : name == "simmpi.imbalance" ? "ratio"
                                                    : "s";
    rep.layer(name, v, unit);
  }
}

}  // namespace perfbench
