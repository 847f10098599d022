// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke 1]
//
// It prints the run header, every end-to-end metric the workload reports
// (name, value, unit), with --trace 1 every per-layer metric and a span
// rollup, and as its last line one JSON object: correct, attempted,
// failed and the declared metrics (end-to-end with --trace 0, per-layer
// with --trace 1). README.md maps each layer metric to the end-to-end
// metric it should move.

#include <sys/resource.h>

#include <cpuid.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "metrics.hpp"

namespace perfbench {

namespace {

struct Named {
  std::string name;
  std::string unit;
};

/// End-to-end metrics every workload reports (the result line with
/// --trace 0). What each means per workload is in README.md.
const std::vector<Named> kResultEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"compress_melem_s", "Melem/s"},
    {"op_p50_ms", "ms"},
};

/// Per-layer metrics (the result line with --trace 1). A layer a
/// workload does not exercise reports 0.
const std::vector<Named>& per_layer() {
  static const std::vector<Named> v = [] {
    std::vector<Named> out;
    auto add = [&](const std::string& n, const char* u) {
      out.push_back({n, u});
    };
    add("tensor.lq.s.qr_single", "s");
    add("tensor.lq.s.qr_double", "s");
    add("tensor.lq.gflops.qr_single", "GF/s");
    add("tensor.lq.gflops.qr_double", "GF/s");
    add("lapack.small_svd.s.qr_single", "s");
    add("lapack.small_svd.s.qr_double", "s");
    add("tensor.gram.s.gram_single", "s");
    add("tensor.gram.s.gram_double", "s");
    add("tensor.gram.gflops.gram_single", "GF/s");
    add("tensor.gram.gflops.gram_double", "GF/s");
    add("lapack.evd.s.gram_single", "s");
    add("lapack.evd.s.gram_double", "s");
    for (const char* v : {"qr_single", "qr_double", "gram_single",
                          "gram_double", "rand_single"}) {
      add(std::string("tensor.ttm.s.") + v, "s");
      add(std::string("tensor.ttm.gflops.") + v, "GF/s");
      add(std::string("core.flops.") + v, "flop");
      add(std::string("core.flop_per_byte.") + v, "flop/B");
      add(std::string("trace.coverage.") + v, "frac");
    }
    add("core.rand_svd.s.rand_single", "s");
    add("core.eps_miss.gram_single", "count");
    add("core.flops_ratio.qr_over_gram", "ratio");
    add("trace.overhead_frac", "frac");
    add("blas.peak_gflops.f32", "GF/s");
    add("blas.peak_gflops.f64", "GF/s");
    add("common.pool_speedup.qr_single", "x");
    add("common.pool_speedup.gram_double", "x");
    add("common.arena_hwm_mb", "MB");
    add("simmpi.compute_s", "s");
    add("simmpi.comm_s", "s");
    add("simmpi.comm_hidden_s", "s");
    add("simmpi.messages", "count");
    add("simmpi.bytes", "B");
    add("simmpi.imbalance", "ratio");
    add("dist.lq.s.qr_single", "s");
    add("dist.svd.s.qr_single", "s");
    add("dist.gram.s.gram_double", "s");
    add("dist.evd.s.gram_double", "s");
    add("dist.ttm.s.qr_single", "s");
    add("dist.ttm.s.gram_double", "s");
    add("dist.norm.s.qr_single", "s");
    add("dist.norm.s.gram_double", "s");
    add("io.read_mbps", "MB/s");
    add("io.append_s", "s");
    add("stream.slabs_read", "count");
    add("stream.spill_mb", "MB");
    add("stream.gathered_after", "mode");
    add("stream.arena_hwm_over_budget", "ratio");
    add("stream.build_s", "s");
    add("stream.append_s.p50", "s");
    add("stream.inmem_ratio", "ratio");
    add("stream.full_width_ratio", "ratio");
    add("serve.submit_ms.p99", "ms");
    add("serve.gen_lag_ms.p99", "ms");
    add("serve.wait_ms.p50", "ms");
    add("serve.fused_frac", "frac");
    add("serve.batch_size_mean", "count");
    add("serve.flops_saved_frac", "frac");
    add("serve.shed_budget", "count");
    add("serve.shed_queue", "count");
    add("serve.queue_hwm", "count");
    add("serve.worker_arena_hwm_mb", "MB");
    add("serve.compress_bitwise_mismatch", "count");
    add("core.reconstruct.full_ms", "ms");
    add("core.reconstruct.region_ms", "ms");
    add("core.reconstruct_batch.per_req_ms", "ms");
    add("tensor.ttm_packed.gflops", "GF/s");
    return out;
  }();
  return v;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<hcci-compress|dist-p4|stream-append|serve-zipf> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke 1]\n",
               why);
  return 2;
}

void print_value(const char* kind, const std::string& name,
                 const Report::Value& v) {
  std::printf("%s %-36s %.6g %s\n", kind, name.c_str(), v.value,
              v.unit.c_str());
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char s[49] = {};
  std::memcpy(s, regs, 48);
  std::string out(s);
  while (!out.empty() && out.front() == ' ') out.erase(out.begin());
  for (char& c : out)
    if (c == '"' || c == '\\') c = ' ';
  return out;
}

std::string isa_flags() {
  std::string f;
  __builtin_cpu_init();
  auto add = [&](const char* name, bool on) {
    if (!on) return;
    if (!f.empty()) f += ' ';
    f += name;
  };
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  return f;
}

std::string compiled_isa() {
  std::string f;
#ifdef __AVX512F__
  f += "avx512f ";
#endif
#ifdef __AVX2__
  f += "avx2 ";
#endif
#ifdef __FMA__
  f += "fma ";
#endif
  if (f.empty()) return "baseline";
  f.pop_back();
  return f;
}

}  // namespace

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool print_header(const Options& opt) {
  namespace tune = tucker::tune;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const std::string build = PERFBENCH_BUILD_TYPE;
  std::printf(
      "# header {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"smoke\":%d,\"nproc\":%u,\"cpu\":\"%s\","
      "\"isa\":\"%s\",\"compiled_isa\":\"%s\",\"build_type\":\"%s\","
      "\"ndebug\":%d,\"TUCKER_SIMD\":%d,\"pool_threads\":%d,"
      "\"knobs\":{\"gemm_jb\":%ld,\"gemm_kb\":%ld,\"gemm_mc\":%ld,"
      "\"par_flop_threshold\":%g,\"stream_chunk_bytes\":%zu,"
      "\"accum_wide\":%d,\"sketch_half\":%d,\"overlap\":%d,"
      "\"mode_window\":%ld,\"serve_workers\":%ld,\"serve_queue_depth\":%ld,"
      "\"serve_flop_budget\":%g,\"serve_batch_max\":%ld,"
      "\"serve_batch_wait_us\":%ld,\"serve_cache_models\":%ld}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.smoke ? 1 : 0,
      std::thread::hardware_concurrency(), cpu_model().c_str(),
      isa_flags().c_str(), compiled_isa().c_str(), build.c_str(),
      ndebug ? 1 : 0, TUCKER_SIMD, tucker::parallel::max_threads(),
      static_cast<long>(tune::gemm_jb()), static_cast<long>(tune::gemm_kb()),
      static_cast<long>(tune::gemm_mc()), tune::par_flop_threshold(),
      tune::stream_chunk_bytes(), tune::accum_wide_default() ? 1 : 0,
      tune::sketch_half_default() ? 1 : 0, tune::overlap_default() ? 1 : 0,
      static_cast<long>(tune::mode_window_default()),
      static_cast<long>(tune::serve_workers()),
      static_cast<long>(tune::serve_queue_depth()), tune::serve_flop_budget(),
      static_cast<long>(tune::serve_batch_max()),
      static_cast<long>(tune::serve_batch_wait_us()),
      static_cast<long>(tune::serve_cache_models()));
  if (!ndebug || build != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a non-Release build "
                 "(build type '%s', NDEBUG %s)\n",
                 build.c_str(), ndebug ? "set" : "unset");
    return false;
  }
  return true;
}

double blas_peak_gflops(bool single) {
  auto run = [](auto zero) {
    using T = decltype(zero);
    const index_t n = 192;  // 3 x 192^2 x 8 B = 864 KB: cache-resident
    tucker::blas::Matrix<T> a(n, n), b(n, n), c(n, n);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j) {
        a(i, j) = static_cast<T>(((i * 7 + j * 3) % 17) - 8) / T(16);
        b(i, j) = static_cast<T>(((i * 5 + j * 11) % 13) - 6) / T(16);
      }
    std::vector<double> rates;
    for (int rep = 0; rep < 7; ++rep) {
      const int inner = 8;
      const auto t0 = Clock::now();
      for (int k = 0; k < inner; ++k)
        tucker::blas::gemm(T(1), a.cview(), b.cview(), T(0), c.view());
      const double s = seconds_between(t0, Clock::now());
      rates.push_back(2.0 * n * n * n * inner / s / 1e9);
    }
    return median(rates);
  };
  return single ? run(0.0f) : run(0.0);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--smoke") {
      opt.smoke = v == "1";
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_trace || !(opt.seconds > 0))
    return usage("--workload, --seconds > 0 and --trace are required");

  // Never more busy threads than the cores this process may run on.
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  if (tucker::parallel::max_threads() > hw)
    tucker::parallel::set_max_threads(hw);
  if (!print_header(opt)) return 3;
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);

  Report rep;
  if (opt.workload == "hcci-compress") {
    run_hcci_compress(opt, rep);
  } else if (opt.workload == "dist-p4") {
    run_dist_p4(opt, rep);
  } else if (opt.workload == "stream-append") {
    run_stream_append(opt, rep);
  } else if (opt.workload == "serve-zipf") {
    run_serve_zipf(opt, rep);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.trace) {
    rep.layer("blas.peak_gflops.f32", blas_peak_gflops(true), "GF/s");
    rep.layer("blas.peak_gflops.f64", blas_peak_gflops(false), "GF/s");
    rep.layer("common.arena_hwm_mb",
              static_cast<double>(tucker::Workspace::local().high_water()) /
                  1e6,
              "MB");
  }
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.e2e("failed_frac",
          rep.attempted() > 0
              ? static_cast<double>(rep.failed()) /
                    static_cast<double>(rep.attempted())
              : 1.0,
          "frac");

  for (const auto& [name, v] : rep.e2e()) print_value("e2e", name, v);
  if (opt.trace)
    for (const auto& [name, v] : rep.layers()) print_value("layer", name, v);

  // Result line: exactly the declared metrics, in declaration order.
  std::string json = "{\"correct\": ";
  json += rep.correct() && rep.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted());
  json += ", \"failed\": " + std::to_string(rep.failed());
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Named& m, double value) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  int missing = 0;
  if (opt.trace) {
    for (const auto& m : per_layer()) {
      auto it = rep.layers().find(m.name);
      emit(m, it == rep.layers().end() ? 0.0 : it->second.value);
    }
    for (const auto& [name, v] : rep.layers()) {
      bool declared = false;
      for (const auto& m : per_layer()) declared |= name == m.name;
      if (!declared) {
        std::fprintf(stderr, "undeclared layer metric %s\n", name.c_str());
        ++missing;
      }
    }
  } else {
    for (const auto& m : kResultEndToEnd) {
      auto it = rep.e2e().find(m.name);
      if (it == rep.e2e().end()) {
        std::fprintf(stderr, "workload did not report %s\n", m.name.c_str());
        ++missing;
      }
      emit(m, it == rep.e2e().end() ? 0.0 : it->second.value);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return missing == 0 ? 0 : 4;
}
