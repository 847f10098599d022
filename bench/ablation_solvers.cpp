// Ablation over the dense-solver backends used on the small factor
// matrices: one-sided Jacobi vs Golub-Kahan bidiagonalization for the
// QR-SVD path, and cyclic Jacobi vs tridiagonal QL for the Gram-EVD path.
//
// The paper's accuracy theory (Theorems 1 and 2) is backend-agnostic: the
// sqrt(eps) floor comes from forming the Gram matrix and the eps floor from
// the QR preprocessing, not from the dense solver. This bench demonstrates
// that empirically (identical singular values either way) and reports the
// speed trade-off.

#include <cstdio>

#include "bench_util.hpp"
#include "harness.hpp"
#include "lapack/bidiag_svd.hpp"
#include "lapack/eig.hpp"
#include "lapack/qr.hpp"
#include "lapack/svd.hpp"
#include "lapack/tridiag_eig.hpp"

using namespace tucker::bench;

namespace {

using tucker::blas::Matrix;
using tucker::blas::MatView;

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto n = static_cast<index_t>(args.geti("n", 160));

  std::printf("Ablation: dense solver backends on %ldx%ld factors, "
              "geometric spectrum 1e0 -> 1e-10\n",
              static_cast<long>(n), static_cast<long>(n));
  print_rule();

  auto sigma = tucker::data::geometric_spectrum(n, 1.0, 1e-10);
  auto full = tucker::data::matrix_with_spectrum(n, 4 * n, sigma, 4242);
  // The QR-SVD path solves on the LQ triangular factor of the (short-fat)
  // unfolding; benchmark the backends on that same input.
  Matrix<double> work = full;
  std::vector<double> tau;
  tucker::la::gelqf(work.view(), tau);
  auto a = tucker::la::extract_l<double>(work.view());

  // --- SVD backends on the triangular factor (the QR-SVD small solve) ---
  auto ja = tucker::la::jacobi_svd(MatView<const double>(a.view()));
  auto gk = tucker::la::bidiag_svd(MatView<const double>(a.view()));
  double max_rel = 0;
  for (std::size_t i = 0; i < ja.sigma.size(); ++i)
    if (ja.sigma[i] > 1e-13)
      max_rel = std::max(max_rel,
                         std::abs(ja.sigma[i] - gk.sigma[i]) / ja.sigma[i]);
  const double t_ja = time_best(3, [&] {
    auto r = tucker::la::jacobi_svd(MatView<const double>(a.view()));
    (void)r;
  });
  const double t_gk = time_best(3, [&] {
    auto r = tucker::la::bidiag_svd(MatView<const double>(a.view()));
    (void)r;
  });
  std::printf("SVD backends (QR path):\n");
  std::printf("  one-sided Jacobi      %8.4fs  (%d sweeps)\n", t_ja,
              ja.sweeps);
  std::printf("  Golub-Kahan bidiag    %8.4fs  (%d QR sweeps)\n", t_gk,
              gk.sweeps);
  std::printf("  max relative sigma difference: %.2e\n", max_rel);
  print_rule();

  // --- EVD backends on the Gram matrix (the Gram-SVD small solve) ---
  Matrix<double> gram(n, n);
  tucker::blas::syrk(1.0, MatView<const double>(a.view()), 0.0, gram.view());
  auto je = tucker::la::jacobi_eig(MatView<const double>(gram.view()));
  auto te = tucker::la::tridiag_eig(MatView<const double>(gram.view()));
  double max_abs = 0;
  for (std::size_t i = 0; i < je.lambda.size(); ++i)
    max_abs = std::max(max_abs, std::abs(je.lambda[i] - te.lambda[i]));
  const double t_je = time_best(3, [&] {
    auto r = tucker::la::jacobi_eig(MatView<const double>(gram.view()));
    (void)r;
  });
  const double t_te = time_best(3, [&] {
    auto r = tucker::la::tridiag_eig(MatView<const double>(gram.view()));
    (void)r;
  });
  std::printf("EVD backends (Gram path):\n");
  std::printf("  cyclic Jacobi         %8.4fs\n", t_je);
  std::printf("  tridiagonal QL        %8.4fs\n", t_te);
  std::printf("  max |lambda| difference: %.2e (||G|| ~ %.2e)\n", max_abs,
              std::abs(je.lambda[0]));
  print_rule();

  // --- Randomized range finder vs the full QR-SVD path -------------------
  // Wrap the same n x 4n test matrix in a 2-mode tensor: its mode-0
  // unfolding IS the column-major matrix, so rand_svd and qr_svd see the
  // identical input. Fixed rank n/4 -- the regime the engine targets.
  {
    const index_t r = std::max<index_t>(1, n / 4);
    tucker::tensor::Tensor<double> t2({n, 4 * n});
    for (index_t j = 0; j < 4 * n; ++j)
      for (index_t i = 0; i < n; ++i)
        t2.data()[j * n + i] = full(i, j);
    auto rnd = tucker::core::rand_svd(t2, 0, r, 0.0);
    double max_sig_rel = 0;
    for (index_t i = 0; i < r; ++i) {
      const double got = std::sqrt(std::max(0.0, rnd.sigma_sq[i]));
      max_sig_rel = std::max(max_sig_rel,
                             std::abs(got - sigma[i]) / sigma[i]);
    }
    const double t_rand = time_best(3, [&] {
      auto res = tucker::core::rand_svd(t2, 0, r, 0.0);
      (void)res;
    });
    const double t_qr = time_best(3, [&] {
      auto res = tucker::core::qr_svd(t2, 0);
      (void)res;
    });
    std::printf("Randomized range finder (rank %ld of %ld, oversample 8, "
                "q=1) vs full QR-SVD:\n",
                static_cast<long>(r), static_cast<long>(n));
    std::printf("  rand_svd              %8.4fs\n", t_rand);
    std::printf("  qr_svd (full)         %8.4fs  (%.2fx)\n", t_qr,
                t_qr / t_rand);
    std::printf("  max relative sigma error over kept ranks: %.2e\n",
                max_sig_rel);
    print_rule();
  }
  std::printf("expected: identical values from both backends of each path; "
              "tridiagonal QL is the\nfaster eigensolver at this size; the "
              "paper's eps-vs-sqrt(eps) floors are backend-free.\n");
  return 0;
}
