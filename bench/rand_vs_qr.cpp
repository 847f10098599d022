// Randomized range-finder vs QR-SVD at the mode-SVD level: the engine
// comparison behind the kRand entry in the engine table (follow-up work to
// the paper by Minster, Li and Ballard).
//
// Sweeps rank fraction x oversampling x power iterations of rand_svd on a
// synthetic cube with geometric per-mode spectra, against the exact QR-SVD
// of the same unfolding; prints time and achieved-error columns, checks
// bitwise determinism across thread-pool widths, demonstrates tolerance
// mode's adaptive oversampling, and prints a modeled-communication table
// composed from the simmpi CostModel helpers. --json=PATH records the
// sweep (BENCH_rand.json by default) so the speedup is tracked like the
// kernel sweeps in BENCH_kernels.json.
//
// --smoke=1 shrinks the input and *enforces* correctness: achieved error
// within tolerance, sigma agreement with QR, and bitwise thread
// determinism, exiting nonzero on any failure (the CI Release leg).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "simmpi/cost_model.hpp"

using namespace tucker::bench;

namespace {

using tucker::core::RandSvdOptions;
using tucker::tensor::Tensor;

/// Relative error of keeping the leading r directions of a basis whose
/// captured energies are sigma_sq: sqrt(discarded / total).
double tail_error(const std::vector<double>& sigma_sq, index_t r,
                  double norm_sq) {
  double kept = 0;
  for (index_t i = 0; i < r && i < static_cast<index_t>(sigma_sq.size());
       ++i)
    kept += sigma_sq[i];
  return std::sqrt(std::max(0.0, norm_sq - kept) / norm_sq);
}

struct SweepRow {
  index_t rank, oversample;
  int q;
  double t_rand, err_rand;
};

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const bool smoke = args.geti("smoke", 0) != 0;
  const auto n = static_cast<index_t>(args.geti("n", smoke ? 40 : 128));
  const std::string json_path =
      flag_value(argc, argv, "--json", "BENCH_rand.json")
          .value_or("BENCH_rand.json");
  const bool write_json = !smoke || args.geti("json-in-smoke", 0) != 0;

  // Cube with a geometric spectrum decaying to 1e-10: numerically low-rank,
  // the regime the randomized engine targets.
  auto x = tucker::data::tensor_with_spectra(
      {n, n, n},
      {tucker::data::DecayProfile::geometric(1, 1e-10),
       tucker::data::DecayProfile::geometric(1, 1e-10),
       tucker::data::DecayProfile::geometric(1, 1e-10)},
      4242);
  const double norm_sq = x.norm_squared();

  std::printf("rand_vs_qr: mode-0 SVD of a %ld^3 cube (double), geometric "
              "spectrum 1e0 -> 1e-10\n", static_cast<long>(n));
  print_rule();

  // --- exact reference: full QR-SVD of the unfolding --------------------
  auto qr = tucker::core::qr_svd(x, 0);
  const double t_qr = time_best(smoke ? 1 : 2, [&] {
    auto r = tucker::core::qr_svd(x, 0);
    (void)r;
  });
  std::printf("QR-SVD (full, exact): %8.4fs\n", t_qr);
  std::vector<double> qr_sq(qr.sigma_sq.begin(), qr.sigma_sq.end());

  // --- fixed-rank sweep: rank fraction x oversample x power iters -------
  std::printf("\nfixed-rank sweep (speedup = t_qr / t_rand; err = achieved "
              "relative error of the\nrank-r basis; err_qr = exact "
              "truncation error at the same rank):\n");
  std::printf("%6s %5s %3s | %9s %8s | %10s %10s\n", "rank", "p", "q",
              "t_rand", "speedup", "err_rand", "err_qr");
  std::vector<SweepRow> rows;
  for (const int denom : {16, 8, 4}) {
    const index_t r = std::max<index_t>(1, n / denom);
    const double err_qr = tail_error(qr_sq, r, norm_sq);
    for (const index_t p : {index_t{8}, index_t{16}}) {
      for (const int q : {0, 1, 2}) {
        RandSvdOptions opt;
        opt.oversample = p;
        opt.power_iters = q;
        auto res = tucker::core::rand_svd(x, 0, r, 0.0, opt);
        std::vector<double> sq(res.sigma_sq.begin(), res.sigma_sq.end());
        const double err = tail_error(sq, r, norm_sq);
        const double t = time_best(smoke ? 1 : 2, [&] {
          auto rr = tucker::core::rand_svd(x, 0, r, 0.0, opt);
          (void)rr;
        });
        std::printf("%6ld %5ld %3d | %9.4fs %7.2fx | %10.3e %10.3e\n",
                    static_cast<long>(r), static_cast<long>(p), q, t,
                    t_qr / t, err, err_qr);
        rows.push_back({r, p, q, t, err});
        if (q >= 1) {
          // With a power iteration the sketched basis must capture the
          // truncation energy almost as well as the exact one.
          check(err <= 2 * err_qr + 1e-12, "rand basis error near exact");
        }
      }
    }
  }

  // Acceptance: at rank fraction <= 25% (with q=1, p=8) rand must beat the
  // full QR-SVD. Only enforced at benchmark sizes -- at the tiny smoke
  // size both run in milliseconds and the ratio is timing noise.
  if (!smoke)
    for (const auto& row : rows)
      if (row.q == 1 && row.oversample == 8 && 4 * row.rank <= n)
        check(row.t_rand < t_qr,
              "rand faster than QR at rank fraction <=25%");

  print_rule();

  // --- bitwise determinism across thread-pool widths --------------------
  {
    RandSvdOptions opt;
    const index_t r = std::max<index_t>(1, n / 8);
    tucker::parallel::set_max_threads(1);
    auto a = tucker::core::rand_svd(x, 0, r, 0.0, opt);
    bool all_same = true;
    for (const int w : {2, 7}) {
      tucker::parallel::set_max_threads(w);
      auto b = tucker::core::rand_svd(x, 0, r, 0.0, opt);
      const bool same =
          a.sigma_sq.size() == b.sigma_sq.size() &&
          std::memcmp(a.sigma_sq.data(), b.sigma_sq.data(),
                      a.sigma_sq.size() * sizeof(double)) == 0 &&
          a.u.rows() == b.u.rows() && a.u.cols() == b.u.cols() &&
          std::memcmp(a.u.data(), b.u.data(),
                      static_cast<std::size_t>(a.u.rows() * a.u.cols()) *
                          sizeof(double)) == 0;
      all_same = all_same && same;
    }
    tucker::parallel::set_max_threads(1);
    std::printf("bitwise identical across TUCKER_NUM_THREADS in {1,2,7}: "
                "%s\n", all_same ? "yes" : "NO");
    check(all_same, "thread-count bitwise determinism");
  }
  print_rule();

  // --- tolerance mode: adaptive oversampling ----------------------------
  // Demonstrated on a moderate cube: at this spectrum's decay, eps=1e-6
  // keeps ~60% of each mode, so a large-n demo would just be a full-width
  // sketch (no adaptivity left to show) -- the fixed-rank sweep above is
  // the at-scale evidence.
  {
    const double eps = 1e-6;
    const index_t nd = std::min<index_t>(n, 128);
    auto xd = tucker::data::tensor_with_spectra(
        {nd, nd, nd},
        {tucker::data::DecayProfile::geometric(1, 1e-10),
         tucker::data::DecayProfile::geometric(1, 1e-10),
         tucker::data::DecayProfile::geometric(1, 1e-10)},
        4242);
    auto seq_qr = tucker::core::sthosvd(
        xd, TruncationSpec::tolerance(eps), SvdMethod::kQr);
    auto seq_rand = tucker::core::sthosvd(
        xd, TruncationSpec::tolerance(eps), SvdMethod::kRand);
    const double err =
        relative_error(xd, seq_rand.tucker.reconstruct());
    std::printf("tolerance mode, eps = %.0e (full ST-HOSVD, %ld^3 cube):\n",
                eps, static_cast<long>(nd));
    std::printf("  QR   ranks: ");
    for (auto r : seq_qr.ranks) std::printf("%ld ", static_cast<long>(r));
    std::printf("\n  Rand ranks: ");
    for (auto r : seq_rand.ranks) std::printf("%ld ", static_cast<long>(r));
    std::printf(" (adaptive oversampling; initial guess %ld)\n",
                static_cast<long>(std::max<index_t>(8, nd / 8)));
    std::printf("  Rand achieved error: %.3e (certified estimate %.3e)\n",
                err, seq_rand.estimated_relative_error());
    check(err <= eps, "tolerance-mode achieved error <= eps");
    for (std::size_t m = 0; m < seq_qr.ranks.size(); ++m)
      check(seq_rand.ranks[m] <= seq_qr.ranks[m] + 4,
            "rand ranks close to exact ranks");
  }
  print_rule();

  // --- modeled communication table --------------------------------------
  {
    tucker::mpi::CostModel cm;
    const index_t w = n / 8 + 8;
    std::printf("modeled comm per sketch round (double, w = %ld, "
                "alpha=%.1es beta=%.1es/B):\n",
                static_cast<long>(w), cm.alpha, cm.beta);
    std::printf("%6s | %11s %12s | %11s %12s\n", "P_n", "tsqr rounds",
                "tsqr words", "slice words", "slice cost");
    for (const int p : {2, 8, 64}) {
      const auto tri = tucker::mpi::CostModel::tsqr_triangle_words(w);
      const auto slab = tucker::mpi::CostModel::sketch_slice_words(
          std::max<index_t>(1, n / p), w);
      std::printf("%6d | %11d %12lld | %11lld %11.2es\n", p,
                  tucker::mpi::CostModel::tsqr_rounds(p),
                  static_cast<long long>(tri), static_cast<long long>(slab),
                  cm.allreduce_cost(p, slab * 8));
    }
  }
  print_rule();

  if (write_json) {
    std::vector<Row> jrows;
    for (const auto& r : rows)
      jrows.push_back(Row()
                          .integer("rank", r.rank)
                          .integer("oversample", r.oversample)
                          .integer("q", r.q)
                          .num("seconds", r.t_rand, "%.6f")
                          .num("speedup_vs_qr", t_qr / r.t_rand)
                          .num("err", r.err_rand, "%.6e"));
    if (write_rows(json_path,
                   Row().integer("n", n).num("t_qr_full", t_qr, "%.6f"),
                   jrows) != 0)
      return 1;
  }

  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
