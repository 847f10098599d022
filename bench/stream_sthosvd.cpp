// Out-of-core streaming ST-HOSVD vs the in-memory driver: the cost of
// staying under a slab byte budget (src/stream/stream_sthosvd.hpp).
//
// Sweeps the chunk budget from deeply out of core (total/16) up past the
// tensor size (where the driver gathers once and delegates), against one
// in-memory QR-SVD ST-HOSVD of the same tensor; prints time, slowdown,
// achieved error, arena high-water over budget, and spill traffic per
// budget, and checks bitwise determinism across thread-pool widths.
// --json=PATH records the sweep (BENCH_stream.json by default);
// --compare[=PATH] --fail-under=X re-runs the sweep and gates on the
// per-budget time ratio against the recorded baseline (the CI
// stream-regression check, through bench/harness.hpp).
//
// --smoke=1 shrinks the input and *enforces* correctness: streaming error
// within 10% of the in-memory error, arena high-water under 2x the budget
// while out of core, delegation matching the in-memory error, and bitwise
// thread determinism, exiting nonzero on any failure (the CI Release leg).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "harness.hpp"
#include "stream/stream_sthosvd.hpp"

using namespace tucker::bench;

namespace {

using tucker::Workspace;
using tucker::stream::InMemorySource;
using tucker::stream::StreamOptions;
using tucker::stream::StreamSthosvdResult;
using tucker::tensor::Tensor;

struct SweepRow {
  long long budget_kib;
  double seconds;
  double slowdown;  // vs the in-memory run
  double err;
  double hwm_over_budget;
  double spill_mb;
  int gathered_after;
};

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

// The sweep's budget ladder, derived from the tensor size so a baseline
// written at the same --smoke/--scale settings always matches by row key:
// deeply out of core, moderately out of core, nearly resident, delegated.
std::vector<std::size_t> budget_ladder(std::size_t total_bytes) {
  return {total_bytes / 16, total_bytes / 6, total_bytes / 3,
          2 * total_bytes};
}

Row to_row(const SweepRow& r) {
  return Row()
      .integer("budget_kib", r.budget_kib)
      .num("seconds", r.seconds, "%.6f")
      .num("slowdown_vs_inmem", r.slowdown)
      .num("err", r.err, "%.6e")
      .num("hwm_over_budget", r.hwm_over_budget)
      .num("spill_mb", r.spill_mb, "%.2f")
      .integer("gathered_after", r.gathered_after);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const bool smoke = args.geti("smoke", 0) != 0;
  const std::string json_path =
      flag_value(argc, argv, "--json", "BENCH_stream.json")
          .value_or("BENCH_stream.json");
  const auto compare_path = flag_value(argc, argv, "--compare",
                                       "BENCH_stream.json");
  const bool write_json =
      !compare_path && (!smoke || args.geti("json-in-smoke", 0) != 0);

  // Long-trailing-mode tensor with geometric per-mode spectra: the stream
  // driver's target shape (the trailing mode is the slab axis). The smoke
  // size is the acceptance-test configuration: the smallest budget is 16x
  // under the tensor.
  const Dims dims = smoke ? Dims{16, 14, 12, 104} : Dims{32, 30, 28, 168};
  const Dims ranks = smoke ? Dims{5, 5, 5, 5} : Dims{8, 8, 8, 8};
  auto x = tucker::data::tensor_with_spectra(
      dims,
      {tucker::data::DecayProfile::geometric(1, 1e-6),
       tucker::data::DecayProfile::geometric(1, 1e-6),
       tucker::data::DecayProfile::geometric(1, 1e-6),
       tucker::data::DecayProfile::geometric(1, 1e-6)},
      9090);
  const auto spec = TruncationSpec::fixed_ranks(ranks);
  const std::size_t total_bytes = static_cast<std::size_t>(x.size()) *
                                  sizeof(double);

  std::printf("stream_sthosvd: %s double tensor (%.1f MiB), fixed ranks "
              "%s\n", dims_to_string(dims).c_str(),
              static_cast<double>(total_bytes) / (1 << 20),
              dims_to_string(ranks).c_str());
  print_rule();

  // --- in-memory reference: classic ST-HOSVD, QR-SVD engine -------------
  Workspace& ws = Workspace::local();
  ws.reset_high_water();
  auto ref = tucker::core::sthosvd(x, spec, SvdMethod::kQr);
  const std::size_t hwm_inmem = ws.high_water();
  const double t_inmem = time_best(smoke ? 1 : 2, [&] {
    auto r = tucker::core::sthosvd(x, spec, SvdMethod::kQr);
    (void)r;
  });
  const double err_inmem = relative_error(x, ref.tucker.reconstruct());
  std::printf("in-memory QR-SVD: %8.4fs  err %.3e  arena peak %.1f MiB\n",
              t_inmem, err_inmem,
              static_cast<double>(hwm_inmem) / (1 << 20));

  // --- budget sweep ------------------------------------------------------
  std::printf("\nbudget sweep (slowdown = t_stream / t_inmem; hwm/budget "
              "is the driver-arena peak\nover the slab budget -- the "
              "working-set bound; gather = mode after which the\nshrunken "
              "tensor fit the budget and the driver went resident, -1 = "
              "never):\n");
  std::printf("%10s %6s | %9s %8s | %10s %10s %8s %7s\n", "budget",
              "slabs", "t_stream", "slowdown", "err", "hwm/budget",
              "spill", "gather");
  std::vector<SweepRow> rows;
  for (const std::size_t budget : budget_ladder(total_bytes)) {
    const auto slices = tucker::stream::chunk_slices_for_budget<double>(
        x.dims(), std::max<std::size_t>(budget / 2, 1));
    InMemorySource<double> src(x, slices);
    StreamOptions sopt;
    sopt.chunk_bytes = budget;
    auto out = tucker::stream::stream_sthosvd(src, spec,
                                              SvdMethod::kStream, sopt);
    const double err =
        relative_error(x, out.decomposition.tucker.reconstruct());
    const double t = time_best(smoke ? 1 : 2, [&] {
      InMemorySource<double> s2(x, slices);
      auto r = tucker::stream::stream_sthosvd(s2, spec,
                                              SvdMethod::kStream, sopt);
      (void)r;
    });
    const double hwm_ratio =
        static_cast<double>(out.arena_high_water) /
        static_cast<double>(budget);
    const double spill_mb =
        static_cast<double>(out.spill_bytes) / (1 << 20);
    std::printf("%7zuKiB %6ld | %8.4fs %7.2fx | %10.3e %10.2f %6.1fMB "
                "%7d\n", budget >> 10, static_cast<long>(src.num_slabs()),
                t, t / t_inmem, err, hwm_ratio, spill_mb,
                out.gathered_after);
    rows.push_back({static_cast<long long>(budget >> 10), t, t / t_inmem,
                    err, hwm_ratio, spill_mb, out.gathered_after});

    if (out.gathered_after == 0) {
      // Delegated run: same tensor, same kernels as the reference -- the
      // error must agree to roundoff, and no spill traffic happened.
      check(std::abs(err - err_inmem) <= 1e-12 * (1 + err_inmem),
            "delegated run matches in-memory error");
      check(out.spill_bytes == 0, "delegated run spills nothing");
    } else {
      // Out of core: the merge tree stays on the QR-SVD accuracy rung,
      // and the working set stays under twice the budget.
      check(err <= 1.1 * err_inmem + 1e-12,
            "stream error within 10% of in-memory");
      check(out.arena_high_water < 2 * budget,
            "arena high-water under 2x budget");
      check(out.spill_bytes > 0, "out-of-core run spilled");
    }
  }
  print_rule();

  // --- bitwise determinism across thread-pool widths --------------------
  {
    const std::size_t budget = budget_ladder(total_bytes).front();
    const auto slices = tucker::stream::chunk_slices_for_budget<double>(
        x.dims(), std::max<std::size_t>(budget / 2, 1));
    StreamOptions sopt;
    sopt.chunk_bytes = budget;
    auto run = [&] {
      InMemorySource<double> src(x, slices);
      return tucker::stream::stream_sthosvd(src, spec,
                                            SvdMethod::kStream, sopt);
    };
    tucker::parallel::set_max_threads(1);
    auto a = run();
    bool all_same = true;
    for (const int w : {2, 7}) {
      tucker::parallel::set_max_threads(w);
      auto b = run();
      const auto& ca = a.decomposition.tucker.core;
      const auto& cb = b.decomposition.tucker.core;
      const bool same =
          ca.size() == cb.size() &&
          std::memcmp(ca.data(), cb.data(),
                      static_cast<std::size_t>(ca.size()) *
                          sizeof(double)) == 0;
      all_same = all_same && same;
    }
    tucker::parallel::set_max_threads(1);
    std::printf("bitwise identical across TUCKER_NUM_THREADS in {1,2,7}: "
                "%s\n", all_same ? "yes" : "NO");
    check(all_same, "thread-count bitwise determinism");
  }
  print_rule();

  std::vector<Row> jrows;
  for (const auto& r : rows) jrows.push_back(to_row(r));
  if (compare_path) {
    const int rc = compare_rows(jrows, *compare_path,
                                {{"budget_kib"}, "seconds", Better::kLower, {}},
                                fail_under_arg(argc, argv));
    if (rc != 0) return rc;
  } else if (write_json) {
    if (write_rows(json_path,
                   Row()
                       .str("dims", dims_to_string(dims))
                       .num("t_inmem", t_inmem, "%.6f")
                       .num("err_inmem", err_inmem, "%.6e"),
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
