// Ablation bench for the design choices DESIGN.md calls out and the
// paper's future-work variants (Sec 5), all on the library's own drivers:
//
//  (a) tolerance mode, single precision: Gram vs QR -- the paper's accurate
//      fp32 path against the one that fails to compress at 1e-4.
//  (b) fixed-rank mode: the randomized range finder (SvdMethod::kRand) vs
//      Gram vs QR -- the "likely to be competitive" alternative for loose
//      tolerances.
//  (c) mode ordering: forward vs backward vs greedy (ranks known a priori).
//  (d) the same fixed ranks on 8 simulated ranks (par_sthosvd).

#include <cstdio>

#include "bench_util.hpp"

using namespace tucker::bench;

namespace {

template <class T>
void report_seq(const char* name, const tucker::tensor::Tensor<double>& xd,
                const TruncationSpec& spec, SvdMethod method,
                std::vector<std::size_t> order = {}) {
  auto x = tucker::data::round_tensor_to<T>(xd);
  tucker::reset_thread_flops();
  tucker::WallTimer t;
  auto res = tucker::core::sthosvd(x, spec, method, std::move(order));
  const double secs = t.seconds();
  const auto flops = tucker::thread_flops();
  // Error against the double-precision original.
  auto xhat = res.tucker.reconstruct();
  std::printf("  %-22s time=%8.4fs  flops=%.3e  compression=%9.2e  "
              "error=%9.2e\n",
              name, secs, static_cast<double>(flops),
              res.tucker.compression_ratio(), relative_error(xd, xhat));
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const double scale = args.get("scale", 0.75);

  auto x = tucker::data::sp_like(scale);
  std::printf("Ablation: SP-like dataset, dims %s (sequential runs)\n",
              dims_to_string(x.dims()).c_str());
  print_rule();

  std::printf("(a) tolerance 1e-4, single precision -- Gram vs QR\n");
  const auto tol = TruncationSpec::tolerance(1e-4);
  report_seq<float>("Gram single", x, tol, SvdMethod::kGram);
  report_seq<float>("QR single", x, tol, SvdMethod::kQr);
  print_rule();

  std::printf("(b) fixed ranks (dims/5) -- randomized vs deterministic\n");
  tucker::tensor::Dims ranks(x.order());
  for (std::size_t n = 0; n < x.order(); ++n)
    ranks[n] = std::max<index_t>(1, x.dim(n) / 5);
  const auto fixed = TruncationSpec::fixed_ranks(ranks);
  report_seq<double>("Gram double", x, fixed, SvdMethod::kGram);
  report_seq<double>("QR double", x, fixed, SvdMethod::kQr);
  report_seq<double>("Randomized double", x, fixed, SvdMethod::kRand);
  report_seq<float>("Randomized single", x, fixed, SvdMethod::kRand);
  print_rule();

  std::printf("(c) mode ordering at the same fixed ranks (QR double)\n");
  report_seq<double>("forward", x, fixed, SvdMethod::kQr,
                     tucker::core::forward_order(x.order()));
  report_seq<double>("backward", x, fixed, SvdMethod::kQr,
                     tucker::core::backward_order(x.order()));
  report_seq<double>("greedy", x, fixed, SvdMethod::kQr,
                     tucker::core::greedy_order(x.dims(), ranks));
  print_rule();

  std::printf("(d) distributed fixed-rank, 8 ranks (grid 2x2x2x1x1): "
              "randomized sketch vs deterministic\n");
  const Dims grid = {2, 2, 2, 1, 1};
  const auto order = tucker::core::backward_order(x.order());
  for (const auto& v :
       {Variant{SvdMethod::kQr, false, "QR double"},
        Variant{SvdMethod::kGram, false, "Gram double"},
        Variant{SvdMethod::kRand, false, "Randomized double"}}) {
    auto res = run_case(x, grid, fixed, v, order, /*reference_error=*/true);
    std::printf("  %-22s time=%8.4fs  flops=%.3e  compression=%9.2e  "
                "error=%9.2e\n",
                v.name, res.makespan, static_cast<double>(res.total_flops),
                res.compression, res.error);
  }
  print_rule();
  std::printf("expected: (a) QR-single compresses where Gram-single fails; "
              "(b) randomized matches\nthe deterministic error, and saves "
              "flops only once rank + oversample << dims\n(bench/rand_vs_qr); "
              "(c) greedy does the fewest flops (paper Sec 4.2.3).\n");
  return 0;
}
