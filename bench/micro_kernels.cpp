// Microbenchmarks (google-benchmark) for the local computational kernels
// the paper's performance discussion rests on (Sec 4.2.1): gemm, syrk
// (the Gram kernel), Householder LQ on row- and column-major layouts
// (geqr vs gelq), the structured tpqrt merge, and the small dense
// SVD/EVD solvers. Reported flop rates feed the cost-model sanity checks
// in EXPERIMENTS.md.
//
// Threaded-vs-serial cases (BM_*_threads) sweep the tucker::parallel pool
// width. Running with --kernels-json[=PATH] skips the google-benchmark
// harness and instead writes a machine-readable serial/threaded sweep to
// BENCH_kernels.json (default PATH), which CI and later PRs use to track
// the kernel-throughput trajectory. Each row carries both GFLOPS and the
// minimum-traffic GB/s (roofline coordinates: compute-bound kernels should
// sit near the flop peak, memory-bound ones near bandwidth).
// --compare[=PATH] runs the same sweep and diffs it against the committed
// JSON instead of overwriting it, printing per-row speedups -- the
// regression check for kernel work (bench/harness.hpp gates both sweeps).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/tuning.hpp"
#include "data/synthetic_matrix.hpp"
#include "harness.hpp"
#include "lapack/eig.hpp"
#include "lapack/tridiag_eig.hpp"
#include "lapack/qr.hpp"
#include "lapack/svd.hpp"
#include "lapack/tpqrt.hpp"
#include "tensor/sketch.hpp"
#include "tensor/ttm.hpp"

namespace {

using tucker::bench::Row;
using tucker::bench::time_best;
using tucker::blas::index_t;
using tucker::blas::Matrix;
using tucker::blas::MatView;

template <class T>
Matrix<T> rand_mat(index_t m, index_t n, std::uint64_t seed) {
  tucker::Rng rng(seed);
  Matrix<T> a(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) a(i, j) = rng.normal<T>();
  return a;
}

template <class T>
void BM_gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  auto a = rand_mat<T>(n, n, 1);
  auto b = rand_mat<T>(n, n, 2);
  Matrix<T> c(n, n);
  for (auto _ : state) {
    tucker::blas::gemm(T(1), MatView<const T>(a.view()),
                       MatView<const T>(b.view()), T(0), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK_TEMPLATE(BM_gemm, float)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_TEMPLATE(BM_gemm, double)->Arg(64)->Arg(128)->Arg(256);

template <class T>
void BM_syrk_gram(benchmark::State& state) {
  // The Gram kernel: m x n short-fat, row-major.
  const index_t m = state.range(0);
  const index_t n = 64 * m;
  auto a = rand_mat<T>(m, n, 3);
  Matrix<T> g(m, m);
  for (auto _ : state) {
    tucker::blas::syrk(T(1), MatView<const T>(a.view()), T(0), g.view());
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * m * (m + 1) * n);
}
BENCHMARK_TEMPLATE(BM_syrk_gram, float)->Arg(32)->Arg(64);
BENCHMARK_TEMPLATE(BM_syrk_gram, double)->Arg(32)->Arg(64);

template <class T>
void BM_lq_rowmajor(benchmark::State& state) {
  // LQ of a short-fat row-major matrix (the paper's geqr-equivalent path).
  const index_t m = state.range(0);
  const index_t n = 64 * m;
  auto a0 = rand_mat<T>(m, n, 4);
  std::vector<T> tau;
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<T> a = a0;
    state.ResumeTiming();
    tucker::la::gelqf(a.view(), tau);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * m * n);
}
BENCHMARK_TEMPLATE(BM_lq_rowmajor, float)->Arg(32)->Arg(64);
BENCHMARK_TEMPLATE(BM_lq_rowmajor, double)->Arg(32)->Arg(64);

template <class T>
void BM_lq_colmajor(benchmark::State& state) {
  // LQ of a short-fat column-major matrix (the gelq path after
  // redistribution).
  const index_t m = state.range(0);
  const index_t n = 64 * m;
  auto a0 = rand_mat<T>(m, n, 5);
  std::vector<T> buf(static_cast<std::size_t>(m * n));
  std::vector<T> tau;
  for (auto _ : state) {
    state.PauseTiming();
    auto acm = MatView<T>::col_major(buf.data(), m, n);
    tucker::blas::copy(MatView<const T>(a0.view()), acm);
    state.ResumeTiming();
    tucker::la::gelqf(acm, tau);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * m * n);
}
BENCHMARK_TEMPLATE(BM_lq_colmajor, float)->Arg(32)->Arg(64);
BENCHMARK_TEMPLATE(BM_lq_colmajor, double)->Arg(32)->Arg(64);

template <class T>
void BM_tpqrt_triangle_merge(benchmark::State& state) {
  // The butterfly reduction step: merging two n x n triangles.
  const index_t n = state.range(0);
  auto mk = [&](std::uint64_t seed) {
    auto a = rand_mat<T>(n, n, seed);
    std::vector<T> tau;
    tucker::la::geqrf(a.view(), tau);
    return tucker::la::extract_r<T>(a.view());
  };
  auto r0 = mk(6);
  auto b0 = mk(7);
  std::vector<T> tau;
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<T> r = r0;
    Matrix<T> b = b0;
    state.ResumeTiming();
    tucker::la::tpqrt(r.view(), b.view(), tau,
                      tucker::la::Pentagon::kTriangular);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK_TEMPLATE(BM_tpqrt_triangle_merge, float)->Arg(64)->Arg(128);
BENCHMARK_TEMPLATE(BM_tpqrt_triangle_merge, double)->Arg(64)->Arg(128);

template <class T>
void BM_jacobi_svd(benchmark::State& state) {
  const index_t n = state.range(0);
  auto sigma = tucker::data::geometric_spectrum(n, 1.0, 1e-6);
  auto ad = tucker::data::matrix_with_spectrum(n, n, sigma, 8);
  auto a = tucker::data::round_to<T>(ad);
  for (auto _ : state) {
    auto r = tucker::la::jacobi_svd(MatView<const T>(a.view()));
    benchmark::DoNotOptimize(r.sigma.data());
  }
}
BENCHMARK_TEMPLATE(BM_jacobi_svd, float)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK_TEMPLATE(BM_jacobi_svd, double)->Arg(32)->Arg(64)->Arg(128);

template <class T>
void BM_jacobi_eig(benchmark::State& state) {
  const index_t n = state.range(0);
  auto g0 = rand_mat<T>(n, 4 * n, 9);
  Matrix<T> g(n, n);
  tucker::blas::syrk(T(1), MatView<const T>(g0.view()), T(0), g.view());
  for (auto _ : state) {
    auto r = tucker::la::jacobi_eig(MatView<const T>(g.view()));
    benchmark::DoNotOptimize(r.lambda.data());
  }
}
BENCHMARK_TEMPLATE(BM_jacobi_eig, float)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK_TEMPLATE(BM_jacobi_eig, double)->Arg(32)->Arg(64)->Arg(128);


template <class T>
void BM_tridiag_eig(benchmark::State& state) {
  const index_t n = state.range(0);
  auto g0 = rand_mat<T>(n, 4 * n, 11);
  Matrix<T> g(n, n);
  tucker::blas::syrk(T(1), MatView<const T>(g0.view()), T(0), g.view());
  for (auto _ : state) {
    auto r = tucker::la::tridiag_eig(MatView<const T>(g.view()));
    benchmark::DoNotOptimize(r.lambda.data());
  }
}
BENCHMARK_TEMPLATE(BM_tridiag_eig, float)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK_TEMPLATE(BM_tridiag_eig, double)->Arg(32)->Arg(64)->Arg(128);

// ------------------------------------------------- threaded vs serial

// Args: {size, pool width}. The pool is reconfigured per run so one binary
// sweeps thread counts; results are bitwise-identical across widths by the
// thread_pool.hpp determinism guarantee, so only timing differs.

template <class T>
void BM_gemm_threads(benchmark::State& state) {
  const index_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  tucker::parallel::set_max_threads(threads);
  auto a = rand_mat<T>(n, n, 1);
  auto b = rand_mat<T>(n, n, 2);
  Matrix<T> c(n, n);
  for (auto _ : state) {
    tucker::blas::gemm(T(1), MatView<const T>(a.view()),
                       MatView<const T>(b.view()), T(0), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  tucker::parallel::set_max_threads(1);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK_TEMPLATE(BM_gemm_threads, float)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4});
BENCHMARK_TEMPLATE(BM_gemm_threads, double)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4});

template <class T>
void BM_syrk_threads(benchmark::State& state) {
  const index_t m = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  tucker::parallel::set_max_threads(threads);
  const index_t n = 2 * m;
  auto a = rand_mat<T>(m, n, 3);
  Matrix<T> g(m, m);
  for (auto _ : state) {
    tucker::blas::syrk(T(1), MatView<const T>(a.view()), T(0), g.view());
    benchmark::DoNotOptimize(g.data());
  }
  tucker::parallel::set_max_threads(1);
  state.SetItemsProcessed(state.iterations() * m * (m + 1) * n);
}
BENCHMARK_TEMPLATE(BM_syrk_threads, float)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4});
BENCHMARK_TEMPLATE(BM_syrk_threads, double)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4});

template <class T>
void BM_ttm_threads(benchmark::State& state) {
  const index_t d = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  tucker::parallel::set_max_threads(threads);
  tucker::tensor::Tensor<T> x({d, d, d});
  tucker::Rng rng(4);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<T>();
  auto u = rand_mat<T>(d / 2, d, 5);
  for (auto _ : state) {
    auto y = tucker::tensor::ttm(x, 1, MatView<const T>(u.view()));
    benchmark::DoNotOptimize(y.data());
  }
  tucker::parallel::set_max_threads(1);
  state.SetItemsProcessed(state.iterations() * 2 * (d / 2) * d * d * d);
}
BENCHMARK_TEMPLATE(BM_ttm_threads, float)
    ->Args({160, 1})->Args({160, 2})->Args({160, 4});
BENCHMARK_TEMPLATE(BM_ttm_threads, double)
    ->Args({160, 1})->Args({160, 2})->Args({160, 4});

// ------------------------------------------------- JSON sweep mode

struct SweepRow {
  const char* kernel;
  const char* precision;
  index_t size;
  int threads;
  double seconds;
  double gflops;
  /// Minimum-traffic bandwidth: bytes each operand must cross memory at
  /// least once (A + B read, C read+write), over wall time. Together with
  /// gflops this places the kernel on the roofline.
  double gbytes_per_s;
  double speedup_vs_1t;
};

template <class T>
void sweep_kernels(std::vector<SweepRow>& rows, const char* prec) {
  const int widths[] = {1, 2, 4};
  // gemm: n x n x n, sized from cache-resident to memory-spanning so the
  // sweep brackets the roofline ridge.
  for (const index_t n : {index_t{256}, index_t{512}, index_t{1024}}) {
    auto a = rand_mat<T>(n, n, 1);
    auto b = rand_mat<T>(n, n, 2);
    Matrix<T> c(n, n);
    const double flops = 2.0 * n * n * n;
    const double bytes = sizeof(T) * (2.0 * n * n + 2.0 * n * n);
    double base = 0;
    for (int w : widths) {
      tucker::parallel::set_max_threads(w);
      const double s = time_best(2, [&] {
        tucker::blas::gemm(T(1), MatView<const T>(a.view()),
                           MatView<const T>(b.view()), T(0), c.view());
      });
      if (w == 1) base = s;
      rows.push_back({"gemm", prec, n, w, s, flops / s * 1e-9,
                      bytes / s * 1e-9, base / s});
    }
  }
  // syrk: m x m Gram of an m x 2m unfolding.
  {
    const index_t m = 1024, n = 2 * m;
    auto a = rand_mat<T>(m, n, 3);
    Matrix<T> g(m, m);
    const double flops = static_cast<double>(m) * (m + 1) * n;
    const double bytes = sizeof(T) * (static_cast<double>(m) * n +
                                      2.0 * static_cast<double>(m) * m);
    double base = 0;
    for (int w : widths) {
      tucker::parallel::set_max_threads(w);
      const double s = time_best(2, [&] {
        tucker::blas::syrk(T(1), MatView<const T>(a.view()), T(0),
                           g.view());
      });
      if (w == 1) base = s;
      rows.push_back({"syrk", prec, m, w, s, flops / s * 1e-9,
                      bytes / s * 1e-9, base / s});
    }
  }
  // ttm: mode-1 product of a d^3 cube with a (d/2 x d) factor, into a
  // recycled output tensor (the sthosvd steady-state pattern).
  {
    const index_t d = 160;
    tucker::tensor::Tensor<T> x({d, d, d});
    tucker::Rng rng(4);
    for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<T>();
    auto u = rand_mat<T>(d / 2, d, 5);
    tucker::tensor::Tensor<T> y;
    const double flops = 2.0 * (d / 2) * d * d * d;
    const double bytes =
        sizeof(T) * (static_cast<double>(d) * d * d +
                     static_cast<double>(d / 2) * d * d +
                     static_cast<double>(d / 2) * d);
    double base = 0;
    for (int w : widths) {
      tucker::parallel::set_max_threads(w);
      const double s = time_best(2, [&] {
        tucker::tensor::ttm_into(x, 1, MatView<const T>(u.view()), y);
        benchmark::DoNotOptimize(y.data());
      });
      if (w == 1) base = s;
      rows.push_back({"ttm", prec, d, w, s, flops / s * 1e-9,
                      bytes / s * 1e-9, base / s});
    }
  }
  // sketch: width-24 Gaussian sketch of the mode-1 unfolding of a d^3 cube
  // (the randomized engine's factorization kernel; Omega is generated on
  // the fly, so the byte count is the payload-aware streamed-gemm model
  // from flops::sketch_bytes, at the default payload word).
  {
    const auto payload = tucker::tune::sketch_half_default()
                             ? tucker::tensor::SketchPayload::kHalf
                             : tucker::tensor::SketchPayload::kNative;
    const index_t d = 160, wid = 24;
    tucker::tensor::Tensor<T> x({d, d, d});
    tucker::Rng rng(6);
    for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<T>();
    Matrix<T> s_out(d, wid);
    const double flops = static_cast<double>(
        tucker::flops::gaussian_sketch(d, static_cast<std::int64_t>(d) * d,
                                       wid));
    const double bytes = static_cast<double>(tucker::flops::sketch_bytes(
        d, static_cast<std::int64_t>(d) * d, wid, sizeof(T),
        tucker::tensor::sketch_payload_word(payload, sizeof(T))));
    double base = 0;
    for (int w : widths) {
      tucker::parallel::set_max_threads(w);
      const double s = time_best(2, [&] {
        tucker::tensor::sketch_unfolding_cols(x, 1, 0x5eedULL, 0, wid,
                                              s_out.view(), payload);
        benchmark::DoNotOptimize(s_out.data());
      });
      if (w == 1) base = s;
      rows.push_back({"sketch", prec, d, w, s, flops / s * 1e-9,
                      bytes / s * 1e-9, base / s});
    }
  }
}

void run_sweep(std::vector<SweepRow>& rows) {
  sweep_kernels<float>(rows, "float");
  sweep_kernels<double>(rows, "double");
}

// ------------------------------------------------- TTM engine sweep

// Packed-vs-reference TTM rows on the truncation-dominant shapes (short-fat
// U^T factors on an anisotropic tensor): one row per (mode, rank, engine,
// thread width). `size` carries the rank; speedup_vs_ref is the
// reference/packed time ratio (1.0 on reference rows). Written to
// BENCH_ttm.json by --ttm-json and gated by --compare-ttm --fail-under
// (against the baseline) and by kTtmGate's oracle floor (against the
// same run).
struct TtmRow {
  std::string kernel;  // "ttm<mode>_packed" / "ttm<mode>_ref"
  const char* precision;
  index_t size;  // truncation rank
  int threads;
  double seconds;
  double gflops;
  double gbytes_per_s;
  double speedup_vs_ref;
};

template <class T>
void sweep_ttm(std::vector<TtmRow>& rows, const char* prec) {
  // Large enough that the tensor streams from DRAM (the regime the packed
  // engine targets): 78 MB in double, 39 MB in float.
  const tucker::tensor::Dims dims = {384, 160, 160};
  tucker::tensor::Tensor<T> x(dims);
  tucker::Rng rng(12);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<T>();
  tucker::tensor::Tensor<T> y;
  const double xsz = static_cast<double>(x.size());
  for (std::size_t mode = 0; mode < dims.size(); ++mode) {
    const double other = xsz / static_cast<double>(dims[mode]);
    for (const index_t rank : {index_t{8}, index_t{32}}) {
      // The ST-HOSVD truncation operand: U = F^T via a transposed view.
      auto f = rand_mat<T>(dims[mode], rank, 13 + mode);
      auto ut = MatView<const T>(f.view().t());
      const double flops = 2.0 * rank * dims[mode] * other;
      const double bytes =
          sizeof(T) * (xsz + rank * other + rank * dims[mode]);
      y.reshape_mode_of(x, mode, rank);
      for (int w : {1, 2}) {
        tucker::parallel::set_max_threads(w);
        // Interleave the engines rep by rep so transient machine noise
        // lands on both sides of the ratio equally, and keep the best rep
        // of each. Both engines are called directly (ttm_into runs the
        // packed one; the reference one is the oracle).
        auto time_once = [&](bool reference) {
          return time_best(1, [&] {
            if (reference) {
              tucker::tensor::detail::ttm_reference_into<T>(x, mode, ut,
                                                            y);
            } else {
              tucker::tensor::detail::ttm_packed_into<T>(x, mode, ut, y);
            }
            benchmark::DoNotOptimize(y.data());
          });
        };
        double ref_s = 1e300, pk_s = 1e300;
        for (int rep = 0; rep < 5; ++rep) {
          ref_s = std::min(ref_s, time_once(/*reference=*/true));
          pk_s = std::min(pk_s, time_once(/*reference=*/false));
        }
        const std::string m = std::to_string(mode);
        rows.push_back({"ttm" + m + "_ref", prec, rank, w, ref_s,
                        flops / ref_s * 1e-9, bytes / ref_s * 1e-9, 1.0});
        rows.push_back({"ttm" + m + "_packed", prec, rank, w, pk_s,
                        flops / pk_s * 1e-9, bytes / pk_s * 1e-9,
                        ref_s / pk_s});
      }
    }
  }
  tucker::parallel::set_max_threads(1);
}

void run_ttm_sweep(std::vector<TtmRow>& rows) {
  sweep_ttm<float>(rows, "float");
  sweep_ttm<double>(rows, "double");
}

Row to_row(const SweepRow& r) {
  return Row()
      .str("kernel", r.kernel)
      .str("precision", r.precision)
      .integer("size", r.size)
      .integer("threads", r.threads)
      .num("seconds", r.seconds, "%.6f")
      .num("gflops", r.gflops)
      .num("gbytes_per_s", r.gbytes_per_s)
      .num("speedup_vs_1t", r.speedup_vs_1t);
}

Row to_row(const TtmRow& r) {
  return Row()
      .str("kernel", r.kernel)
      .str("precision", r.precision)
      .integer("size", r.size)
      .integer("threads", r.threads)
      .num("seconds", r.seconds, "%.6f")
      .num("gflops", r.gflops)
      .num("gbytes_per_s", r.gbytes_per_s)
      .num("speedup_vs_ref", r.speedup_vs_ref);
}

// Both sweeps gate on the matched rows' new/baseline GFLOPS ratio,
// failing below --fail-under.
template <class SweepRowT>
std::vector<Row> json_rows(void (*sweep)(std::vector<SweepRowT>&)) {
  std::vector<SweepRowT> rows;
  sweep(rows);
  std::vector<Row> out;
  for (const auto& r : rows) out.push_back(to_row(r));
  return out;
}

const tucker::bench::Gate kKernelGate = {
    {"kernel", "precision", "size", "threads"}, "gflops",
    tucker::bench::Better::kHigher, {}};

// The TTM gate adds a same-run oracle floor: a packed row below 2/3 of its
// interleaved reference row (speedup_vs_ref) fails the compare run on any
// host. The absolute baseline ratio cannot see a packed kernel losing to
// its own oracle on a machine unlike the one that recorded the baseline;
// this ratio can.
const tucker::bench::Gate kTtmGate = {
    {"kernel", "precision", "size", "threads"},
    "gflops",
    tucker::bench::Better::kHigher,
    {{"packed/reference ratio",
      [](const Row& r) {
        return r.text("kernel").find("_packed") != std::string::npos;
      },
      "speedup_vs_ref", 2.0 / 3.0}}};

Row json_header() {
  return Row().integer("max_threads_default",
                       tucker::parallel::max_threads());
}

}  // namespace

int main(int argc, char** argv) {
  namespace tb = tucker::bench;
  const double fail_under = tb::fail_under_arg(argc, argv);
  if (auto path = tb::flag_value(argc, argv, "--kernels-json",
                                 "BENCH_kernels.json"))
    return tb::write_rows(*path, json_header(), json_rows(run_sweep));
  if (auto path = tb::flag_value(argc, argv, "--ttm-json", "BENCH_ttm.json"))
    return tb::write_rows(*path, json_header(), json_rows(run_ttm_sweep));
  if (auto path = tb::flag_value(argc, argv, "--compare-ttm",
                                 "BENCH_ttm.json"))
    return tb::compare_rows(json_rows(run_ttm_sweep), *path, kTtmGate,
                            fail_under);
  if (auto path = tb::flag_value(argc, argv, "--compare",
                                 "BENCH_kernels.json"))
    return tb::compare_rows(json_rows(run_sweep), *path, kKernelGate,
                            fail_under);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
