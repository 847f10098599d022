// Mixed-precision sweep: one row per (kernel, storage/accumulator config,
// thread width) over the compute kernels the precision settings touch --
// gemm, syrk (the Gram kernel), the one-sided Jacobi SVD at double and
// single storage, and the Gaussian sketch (native vs fp16 payload).
//
// The acceptance number this binary exists to track: wide accumulation
// (fp32 storage, fp64 register tiles) must stay within ~1.15x of
// plain-single gemm/syrk time (the `rel` column on single_wide rows is wide
// seconds / plain-single seconds).
//
// --precision-json[=PATH] writes the sweep to BENCH_precision.json;
// --compare[=PATH] re-runs it and diffs per-row GFLOPS against the
// committed baseline (bench/harness.hpp), failing (exit 2) when any matched
// row's ratio drops below --fail-under=X. No flags: print the table.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "common/flops.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "lapack/svd.hpp"
#include "tensor/sketch.hpp"
#include "tensor/tensor.hpp"

namespace {

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

struct SweepRow {
  std::string kernel;
  /// "double" / "single" / "single_wide" / "half_sketch" -- storage plus
  /// accumulator (or payload) choice.
  const char* config;
  int word_bytes;  ///< storage word the kernel loads/stores
  int threads;
  double seconds;
  double gflops;
  /// This config's seconds / the plain-single (native payload) seconds at
  /// the same threads -- overhead, lower is better (1.0 on jacobi rows).
  double rel;
};

// ------------------------------------------------------------- gemm/syrk

void sweep_gemm_syrk(std::vector<SweepRow>& rows) {
  const index_t n = 512;
  auto af = rand_mat<float>(n, n, 1);
  auto bf = rand_mat<float>(n, n, 2);
  auto ad = rand_mat<double>(n, n, 1);
  auto bd = rand_mat<double>(n, n, 2);
  Matrix<float> cf(n, n);
  Matrix<double> cd(n, n);
  const double gemm_flops = 2.0 * n * n * n;

  const index_t m = 512, gn = 2 * m;
  auto gaf = rand_mat<float>(m, gn, 3);
  auto gad = rand_mat<double>(m, gn, 3);
  Matrix<float> gf(m, m);
  Matrix<double> gd(m, m);
  const double syrk_flops = static_cast<double>(m) * (m + 1) * gn;

  for (int w : {1, 2, 4}) {
    tucker::parallel::set_max_threads(w);
    const double g_d = time_best(3, [&] {
      tucker::blas::gemm(1.0, MatView<const double>(ad.view()),
                         MatView<const double>(bd.view()), 0.0,
                         cd.view());
    });
    const double g_s = time_best(3, [&] {
      tucker::blas::gemm(1.0f, MatView<const float>(af.view()),
                         MatView<const float>(bf.view()), 0.0f,
                         cf.view());
    });
    const double g_w = time_best(3, [&] {
      tucker::blas::gemm<float, double>(
          1.0f, MatView<const float>(af.view()),
          MatView<const float>(bf.view()), 0.0f, cf.view());
    });
    rows.push_back({"gemm", "double", 8, w, g_d, gemm_flops / g_d * 1e-9,
                    g_d / g_s});
    rows.push_back(
        {"gemm", "single", 4, w, g_s, gemm_flops / g_s * 1e-9, 1.0});
    rows.push_back({"gemm", "single_wide", 4, w, g_w,
                    gemm_flops / g_w * 1e-9, g_w / g_s});

    const double s_d = time_best(3, [&] {
      tucker::blas::syrk(1.0, MatView<const double>(gad.view()), 0.0,
                         gd.view());
    });
    const double s_s = time_best(3, [&] {
      tucker::blas::syrk(1.0f, MatView<const float>(gaf.view()), 0.0f,
                         gf.view());
    });
    const double s_w = time_best(3, [&] {
      tucker::blas::syrk<float, double>(
          1.0f, MatView<const float>(gaf.view()), 0.0f, gf.view());
    });
    rows.push_back({"syrk", "double", 8, w, s_d, syrk_flops / s_d * 1e-9,
                    s_d / s_s});
    rows.push_back(
        {"syrk", "single", 4, w, s_s, syrk_flops / s_s * 1e-9, 1.0});
    rows.push_back({"syrk", "single_wide", 4, w, s_w,
                    syrk_flops / s_w * 1e-9, s_w / s_s});
  }
  tucker::parallel::set_max_threads(1);
}

// The Gram kernel's real shape in ST-HOSVD is short-fat: m = a mode size,
// n = the product of every other mode. A 32 x 524288 float operand is
// 64 MB -- DRAM-resident -- so these rows measure the wide-accum overhead
// in the streaming regime the driver actually runs in, where the extra
// fp64 arithmetic hides behind memory latency far better than on the
// cache-resident 512 x 1024 shape above.
void sweep_gram_stream(std::vector<SweepRow>& rows) {
  const index_t m = 32, n = index_t{1} << 19;
  auto af = rand_mat<float>(m, n, 4);
  auto ad = rand_mat<double>(m, n, 4);
  Matrix<float> gf(m, m);
  Matrix<double> gd(m, m);
  const double flops = static_cast<double>(m) * (m + 1) * n;
  for (int w : {1, 2, 4}) {
    tucker::parallel::set_max_threads(w);
    const double s_d = time_best(3, [&] {
      tucker::blas::syrk(1.0, MatView<const double>(ad.view()), 0.0,
                         gd.view());
    });
    const double s_s = time_best(3, [&] {
      tucker::blas::syrk(1.0f, MatView<const float>(af.view()), 0.0f,
                         gf.view());
    });
    const double s_w = time_best(3, [&] {
      tucker::blas::syrk<float, double>(
          1.0f, MatView<const float>(af.view()), 0.0f, gf.view());
    });
    rows.push_back({"syrk_stream", "double", 8, w, s_d, flops / s_d * 1e-9,
                    s_d / s_s});
    rows.push_back(
        {"syrk_stream", "single", 4, w, s_s, flops / s_s * 1e-9, 1.0});
    rows.push_back({"syrk_stream", "single_wide", 4, w, s_w,
                    flops / s_w * 1e-9, s_w / s_s});
  }
  tucker::parallel::set_max_threads(1);
}

// ----------------------------------------------------------- jacobi svd

// A tall 512 x 64 panel (the svd_of_l operand after LQ preprocessing of a
// wide unfolding). Flop count is the rotation work of the sweeps actually
// taken: k(k-1)/2 pairs per sweep, ~8m flops per pair (one dot + two
// column rotations). The solver is serial and has no wide-accumulator
// path, so there is one row per storage precision.
template <class T>
void sweep_jacobi_config(std::vector<SweepRow>& rows, const char* config) {
  const index_t m = 512, k = 64;
  auto a0 = rand_mat<double>(m, k, 7);
  Matrix<T> a(m, k);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < k; ++j) a(i, j) = static_cast<T>(a0(i, j));

  tucker::parallel::set_max_threads(1);
  int sweeps = 0;
  const double classic = time_best(3, [&] {
    auto r = tucker::la::jacobi_svd(MatView<const T>(a.view()));
    sweeps = r.sweeps;
  });
  const double flops =
      static_cast<double>(sweeps) * (k * (k - 1) / 2) * 8.0 * m;
  rows.push_back({"jacobi_classic", config, static_cast<int>(sizeof(T)), 1,
                  classic, flops / classic * 1e-9, 1.0});
}

void sweep_jacobi(std::vector<SweepRow>& rows) {
  sweep_jacobi_config<double>(rows, "double");
  sweep_jacobi_config<float>(rows, "single");
}

// --------------------------------------------------------------- sketch

void sweep_sketch(std::vector<SweepRow>& rows) {
  const index_t d = 128, wid = 24;
  tucker::tensor::Tensor<float> x({d, d, d});
  tucker::Rng rng(9);
  for (index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal<float>();
  Matrix<float> s(d, wid);
  const double flops = static_cast<double>(tucker::flops::gaussian_sketch(
      d, static_cast<std::int64_t>(d) * d, wid));
  for (int w : {1, 2, 4}) {
    tucker::parallel::set_max_threads(w);
    auto sketch_time = [&](tucker::tensor::SketchPayload payload) {
      return time_best(3, [&] {
        tucker::tensor::sketch_unfolding_cols(x, 1, 0x5eedULL, 0, wid,
                                              s.view(), payload);
      });
    };
    const double nat = sketch_time(tucker::tensor::SketchPayload::kNative);
    const double hlf = sketch_time(tucker::tensor::SketchPayload::kHalf);
    rows.push_back(
        {"sketch", "single", 4, w, nat, flops / nat * 1e-9, 1.0});
    // word_bytes reports the *payload* width on the half row: the modeled
    // traffic saving (flops::sketch_bytes), not the tensor word.
    rows.push_back(
        {"sketch", "half_sketch", 2, w, hlf, flops / hlf * 1e-9, hlf / nat});
  }
  tucker::parallel::set_max_threads(1);
}

void run_sweep(std::vector<SweepRow>& rows) {
  sweep_gemm_syrk(rows);
  sweep_gram_stream(rows);
  sweep_jacobi(rows);
  sweep_sketch(rows);
}

void print_rows(const std::vector<SweepRow>& rows) {
  std::printf("%-14s %-12s %4s %3s | %9s %9s %6s\n", "kernel", "config",
              "word", "thr", "seconds", "GFLOPS", "rel");
  for (const auto& r : rows)
    std::printf("%-14s %-12s %4d %3d | %9.5f %9.3f %6.2f\n",
                r.kernel.c_str(), r.config, r.word_bytes, r.threads,
                r.seconds, r.gflops, r.rel);
}

std::vector<tucker::bench::Row> json_rows(const std::vector<SweepRow>& rows) {
  std::vector<tucker::bench::Row> out;
  for (const auto& r : rows)
    out.push_back(tucker::bench::Row()
                      .str("kernel", r.kernel)
                      .str("config", r.config)
                      .integer("word_bytes", r.word_bytes)
                      .integer("threads", r.threads)
                      .num("seconds", r.seconds, "%.6f")
                      .num("gflops", r.gflops)
                      .num("rel", r.rel));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  namespace tb = tucker::bench;
  std::vector<SweepRow> rows;
  if (auto path = tb::flag_value(argc, argv, "--compare",
                                 "BENCH_precision.json")) {
    run_sweep(rows);
    return tb::compare_rows(json_rows(rows), *path,
                            {{"kernel", "config", "threads"},
                             "gflops",
                             tb::Better::kHigher,
                             {}},
                            tb::fail_under_arg(argc, argv));
  }
  run_sweep(rows);
  print_rows(rows);
  if (auto path = tb::flag_value(argc, argv, "--precision-json",
                                 "BENCH_precision.json"))
    return tb::write_rows(*path, tb::Row(), json_rows(rows));
  return 0;
}
