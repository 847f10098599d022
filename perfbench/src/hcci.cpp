// Workload hcci-compress: in-memory core::sthosvd at the library defaults
// on the HCCI stand-in, five variants run one job at a time. The traced
// run replays every job mode by mode through the public kernels and must
// match core::sthosvd byte for byte.

#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace tucker;
using core::SvdMethod;

const core::TruncationSpec& spec() {
  static const core::TruncationSpec s =
      core::TruncationSpec::tolerance(kEpsilon);
  return s;
}

/// The library-default entry point the untraced run times.
template <class T>
core::SthosvdResult<T> compress(const Tensor<T>& x, SvdMethod m) {
  return core::sthosvd(x, spec(), m, core::SthosvdOptions{});
}

/// Outside-in replica of core::sthosvd(x, spec, m, SthosvdOptions{}): the
/// same public calls in the same order, each wrapped in a span.
/// `buf` is the caller's ping-pong scratch, kept across calls the way
/// core::sthosvd keeps its stashed pair, so both run on warm memory.
template <class T>
core::SthosvdResult<T> replay(const Tensor<T>& x, SvdMethod m, Trace& tr,
                              Tensor<T> (&buf)[2]) {
  using Span = Trace::Span;
  const core::SthosvdOptions o;
  Span root(tr, "core.sthosvd");
  core::SthosvdResult<T> out;
  {
    Span s(tr, "core.resolve_order");
    out.order = core::resolve_order(x.dims(), spec(), m, o);
  }
  const std::size_t nmodes = x.order();
  out.mode_sigmas.resize(nmodes);
  out.ranks.assign(nmodes, 0);
  out.tucker.factors.resize(nmodes);
  {
    Span s(tr, "tensor.norm");
    out.norm_squared = x.norm_squared();
  }
  const double threshold_sq = spec().epsilon * spec().epsilon *
                              out.norm_squared / static_cast<double>(nmodes);
  const Tensor<T>* ycur = &x;
  int slot = 0;
  for (std::size_t n : out.order) {
    const Tensor<T>& y = *ycur;
    core::ModeSvd<T> svd;
    switch (m) {
      case SvdMethod::kQr: {
        blas::Matrix<T> l;
        {
          Span s(tr, "tensor.lq");
          l = tensor::tensor_lq(y, n);
        }
        Span s(tr, "lapack.small_svd");
        svd = core::svd_of_l(std::move(l), core::SmallSvdBackend::kAuto,
                             o.accum);
        break;
      }
      case SvdMethod::kGram: {
        blas::Matrix<T> g;
        {
          Span s(tr, "tensor.gram");
          g = tensor::gram_of_unfolding(y, n, o.accum);
        }
        Span s(tr, "lapack.evd");
        auto eig = la::tridiag_eig(blas::MatView<const T>(g.view()));
        svd.sigma_sq.reserve(eig.lambda.size());
        for (T lam : eig.lambda) svd.sigma_sq.push_back(std::abs(lam));
        svd.u = std::move(eig.v);
        break;
      }
      case SvdMethod::kRand: {
        Span s(tr, "core.rand_svd");
        svd = core::rand_svd(y, n, 0, threshold_sq, o.rand, o.accum);
        break;
      }
      case SvdMethod::kStream:
        TUCKER_CHECK(false, "replay: the stream engine is not a variant");
        break;
    }
    blas::Matrix<T> u;
    {
      Span s(tr, "core.select_rank");
      std::vector<T>& sig = out.mode_sigmas[n];
      sig.resize(svd.sigma_sq.size());
      for (std::size_t i = 0; i < sig.size(); ++i)
        sig[i] = std::sqrt(svd.sigma_sq[i]);
      const index_t r = std::min(core::select_rank(svd.sigma_sq, threshold_sq),
                                 svd.u.cols());
      out.ranks[n] = r;
      u = blas::Matrix<T>(y.dim(n), r);
      blas::copy(
          blas::MatView<const T>(svd.u.view().block(0, 0, y.dim(n), r)),
          u.view());
    }
    {
      Span s(tr, "tensor.ttm");
      tensor::ttm_into(y, n, blas::MatView<const T>(u.view().t()), buf[slot],
                       o.accum);
    }
    ycur = &buf[slot];
    slot ^= 1;
    out.tucker.factors[n] = std::move(u);
  }
  Span s(tr, "core.assemble");
  out.tucker.core = *ycur;
  return out;
}

template <class T>
bool same_result(const core::SthosvdResult<T>& a,
                 const core::SthosvdResult<T>& b) {
  if (a.ranks != b.ranks || a.order != b.order ||
      a.mode_sigmas.size() != b.mode_sigmas.size() ||
      std::memcmp(&a.norm_squared, &b.norm_squared, sizeof(double)) != 0)
    return false;
  for (std::size_t n = 0; n < a.mode_sigmas.size(); ++n) {
    const auto& sa = a.mode_sigmas[n];
    const auto& sb = b.mode_sigmas[n];
    if (sa.size() != sb.size() || !same_bytes(sa.data(), sb.data(), sa.size()))
      return false;
  }
  return same_tucker(a.tucker, b.tucker);
}

/// The error a variant's checked job must meet. Every variant must meet
/// eps, except that Gram-single cannot certify eps below the accuracy of
/// its computed singular values, sqrt(u_single) ~ 3.5e-4 relative (the
/// paper's Theorem 2): at eps = 1e-4 it selects ranks from noise and its
/// error lands on either side of eps depending on rounding. Its misses of
/// eps are counted (eps_miss.gram_single), not failed.
double accuracy_bound(const Variant& v) {
  if (v.method == SvdMethod::kGram && v.single)
    return std::max(kEpsilon, std::sqrt(static_cast<double>(
                                  std::numeric_limits<float>::epsilon())));
  return kEpsilon;
}

struct Inputs {
  Tensor<double> x64;
  Tensor<float> x32;
};

/// Type-erased job runner so the round loops stay variant-generic.
struct Job {
  Job(const Variant* variant, const Inputs* inputs) : v(variant), in(inputs) {}

  const Variant* v;
  const Inputs* in;
  // First (checked) result per precision; later jobs must equal it.
  core::SthosvdResult<float> ref32;
  core::SthosvdResult<double> ref64;
  // Exact flop and computed-traffic counts of the checked job.
  double flops = 0, traffic = 0;
  // The checked job missed eps itself (only a Gram-single job may, within
  // its accuracy bound).
  bool eps_miss = false;
  // The replica's ping-pong scratch.
  Tensor<float> buf32[2];
  Tensor<double> buf64[2];

  double compression() const {
    return v->single ? ref32.tucker.compression_ratio()
                     : ref64.tucker.compression_ratio();
  }

  /// Runs the warm-up job and checks it against the fp64 original.
  void warm_and_check(Report& rep) {
    {
      FlopScope fs;
      if (v->single)
        ref32 = compress(in->x32, v->method);
      else
        ref64 = compress(in->x64, v->method);
      flops = static_cast<double>(fs.flops());
      traffic = static_cast<double>(fs.traffic());
    }
    const double err = v->single ? tucker_error(in->x64, ref32.tucker)
                                 : tucker_error(in->x64, ref64.tucker);
    char what[96];
    std::snprintf(what, sizeof what, "%s error %.3e > %.3e", v->name, err,
                  accuracy_bound(*v));
    rep.attempt(err <= accuracy_bound(*v), what);
    eps_miss = err > kEpsilon;
  }

  /// One timed job (untraced); returns wall seconds, checks outside.
  double timed(Report& rep) {
    bool ok;
    double s;
    if (v->single) {
      const auto t0 = Clock::now();
      auto r = compress(in->x32, v->method);
      s = seconds_between(t0, Clock::now());
      ok = same_result(r, ref32);
    } else {
      const auto t0 = Clock::now();
      auto r = compress(in->x64, v->method);
      s = seconds_between(t0, Clock::now());
      ok = same_result(r, ref64);
    }
    rep.attempt(ok, std::string(v->name) + " job differs from checked job");
    return s;
  }

  /// One traced replay; returns wall seconds. The replica must equal the
  /// checked core::sthosvd result byte for byte, or the run is rejected.
  double traced(Trace& tr, Report& rep) {
    bool ok;
    const auto t0 = Clock::now();
    if (v->single) {
      auto r = replay(in->x32, v->method, tr, buf32);
      const double s = seconds_between(t0, Clock::now());
      ok = same_result(r, ref32);
      if (!ok) rep.reject(std::string(v->name) + " replay != core::sthosvd");
      return s;
    }
    auto r = replay(in->x64, v->method, tr, buf64);
    const double s = seconds_between(t0, Clock::now());
    ok = same_result(r, ref64);
    if (!ok) rep.reject(std::string(v->name) + " replay != core::sthosvd");
    return s;
  }
};

/// The replica's spans that are per-layer metrics (the rest -- order,
/// norm, rank selection, assembly -- are there for coverage).
const std::set<std::string> kLayerSpans = {
    "tensor.lq",  "lapack.small_svd", "tensor.gram",
    "lapack.evd", "core.rand_svd",    "tensor.ttm"};

void run_traced(const Options& opt, std::vector<Job>& jobs,
                Report& rep) {
  Trace tr;
  const std::size_t nv = jobs.size();
  std::vector<std::vector<double>> plain(nv), traced(nv), cover(nv);
  // Per variant, per layer: self seconds and flops of each traced rep.
  std::vector<std::map<std::string, std::vector<double>>> self_s(nv),
      gflops(nv);
  const auto t0 = Clock::now();
  std::int64_t job_id = 0;
  for (;;) {
    for (std::size_t i = 0; i < nv; ++i) {
      plain[i].push_back(jobs[i].timed(rep));
      const std::size_t first = tr.size();
      tr.set_job(++job_id);
      traced[i].push_back(jobs[i].traced(tr, rep));
      cover[i].push_back(tr.coverage(first));
      for (const auto& [name, l] : tr.rollup(first)) {
        if (kLayerSpans.count(name) == 0) continue;
        self_s[i][name].push_back(l.self_s);
        gflops[i][name].push_back(
            l.self_s > 0 ? static_cast<double>(l.flops) / l.self_s / 1e9 : 0);
      }
    }
    // Half the run: the other half goes to the single-thread baselines,
    // counts and export, and a traced run must not take twice as long.
    if (seconds_between(t0, Clock::now()) >= opt.seconds / 2) break;
  }

  double sum_plain = 0, sum_traced = 0;
  std::map<std::string, double> flops_of;
  for (std::size_t i = 0; i < nv; ++i) {
    const std::string v = jobs[i].v->name;
    sum_plain += median(plain[i]);
    sum_traced += median(traced[i]);
    rep.layer("trace.coverage." + v, median(cover[i]), "frac");
    for (const auto& [layer, s] : self_s[i]) {
      rep.layer(layer + ".s." + v, median(s), "s");
      if (layer.rfind("tensor.", 0) == 0)  // the kernels with a flop rate
        rep.layer(layer + ".gflops." + v, median(gflops[i][layer]), "GF/s");
    }
    const double flops = jobs[i].flops, traffic = jobs[i].traffic;
    flops_of[v] = flops;
    rep.layer("core.flops." + v, flops, "flop");
    rep.layer("core.flop_per_byte." + v, traffic > 0 ? flops / traffic : 0,
              "flop/B");
  }
  rep.layer("trace.overhead_frac", sum_traced / sum_plain - 1.0, "frac");
  if (flops_of["gram_double"] > 0)
    rep.layer("core.flops_ratio.qr_over_gram",
              flops_of["qr_double"] / flops_of["gram_double"], "ratio");

  // Single-thread baseline of the paper's two headline variants.
  for (std::size_t i = 0; i < nv; ++i) {
    const std::string v = jobs[i].v->name;
    if (v != "qr_single" && v != "gram_double") continue;
    double one;
    {
      parallel::ThreadWidthCap cap(1);
      one = jobs[i].timed(rep);
    }
    rep.layer("common.pool_speedup." + v, one / median(plain[i]), "x");
  }

  const std::string path = std::string(kOutDir) + "/hcci-compress-seed" +
                           std::to_string(opt.seed) + ".trace.json";
  if (!tr.write_chrome(path)) rep.reject("cannot write " + path);
  std::printf("# rollup (self time over all traced jobs)\n");
  for (const auto& [name, l] : tr.rollup())
    std::printf("#   %-20s n=%-5lld self=%9.4fs total=%9.4fs\n", name.c_str(),
                static_cast<long long>(l.count), l.self_s, l.total_s);
  std::printf("# chrome trace: %s\n", path.c_str());
}

}  // namespace

void run_hcci_compress(const Options& opt, Report& rep) {
  const double scale = opt.smoke ? kSmokeScale : kHcciScale;
  Inputs in;
  const double setup = median_seconds(3, [&] {
    in.x64 = hcci_input(scale, opt.seed);
    in.x32 = data::round_tensor_to<float>(in.x64);
  });
  rep.e2e("setup_s", setup, "s");
  const double me = melem(in.x64.dims());

  std::vector<Job> jobs;
  for (const auto& v : all_variants()) jobs.emplace_back(&v, &in);
  for (auto& j : jobs) j.warm_and_check(rep);

  std::vector<double> ratios;
  for (const auto& j : jobs) ratios.push_back(j.compression());
  rep.e2e("compression_ratio", geomean(ratios), "x");
  // The result line's keys are fixed, so the traced run carries the miss
  // as a per-layer count beside the printed line.
  for (const auto& j : jobs)
    if (j.v->method == SvdMethod::kGram && j.v->single) {
      rep.e2e("eps_miss.gram_single", j.eps_miss ? 1 : 0, "count");
      rep.layer("core.eps_miss.gram_single", j.eps_miss ? 1 : 0, "count");
    }

  if (opt.trace) {
    run_traced(opt, jobs, rep);
    return;
  }

  // Interleaved rounds; each variant stops once it has used its equal
  // share of the measured time, so the cheap variants collect more samples
  // than the randomized one instead of idling behind it.
  const double share = opt.seconds / static_cast<double>(jobs.size());
  std::vector<std::vector<double>> t(jobs.size());
  std::vector<double> used(jobs.size(), 0);
  const auto t0 = Clock::now();
  for (bool more = true; more;) {
    more = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!t[i].empty() && used[i] >= share) continue;
      t[i].push_back(jobs[i].timed(rep));
      used[i] += t[i].back();
      more |= used[i] < share;
    }
    if (seconds_between(t0, Clock::now()) > 4 * opt.seconds) break;
  }
  // The bounded rate leaves out rand_single: its adaptive sketch widens
  // (doubling its work) or not depending on the data, so its time moves
  // up to 2x from seed to seed. It is reported on its own line.
  std::vector<double> rates;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    print_samples(jobs[i].v->name, t[i]);
    const double r = me / median(t[i]);
    if (jobs[i].v->method != SvdMethod::kRand) rates.push_back(r);
    rep.e2e(std::string("compress_melem_s.") + jobs[i].v->name, r,
            "Melem/s");
  }
  rep.e2e("compress_melem_s", geomean(rates), "Melem/s");
  // The paper's method: one QR-single compress job.
  rep.e2e("op_p50_ms", median(t.front()) * 1e3, "ms");
}

}  // namespace perfbench
