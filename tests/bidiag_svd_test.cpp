// Tests for the bidiagonalization SVD backend (Golub-Kahan reduction +
// Demmel-Kahan zero-shift QR), validated against prescribed spectra and the
// Jacobi backend.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "blas/blas1.hpp"
#include "blas/gemm.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/svd_engine.hpp"
#include "data/synthetic_matrix.hpp"
#include "data/synthetic_tensor.hpp"
#include "lapack/bidiag_svd.hpp"
#include "lapack/qr.hpp"
#include "lapack/svd.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::Matrix;
using blas::MatView;

template <class T>
T orthogonality_error(MatView<const T> q) {
  Matrix<T> g(q.cols(), q.cols());
  blas::gemm(T(1), MatView<const T>(q.t()), q, T(0), g.view());
  T e = T(0);
  for (index_t i = 0; i < g.rows(); ++i)
    for (index_t j = 0; j < g.cols(); ++j)
      e = std::max(e, std::abs(g(i, j) - (i == j ? T(1) : T(0))));
  return e;
}

TEST(BidiagSvdTest, DiagonalMatrix) {
  Matrix<double> a(4, 4);
  a(0, 0) = 3;
  a(1, 1) = 7;
  a(2, 2) = 1;
  a(3, 3) = 5;
  auto r = la::bidiag_svd(MatView<const double>(a.view()));
  EXPECT_NEAR(r.sigma[0], 7, 1e-13);
  EXPECT_NEAR(r.sigma[1], 5, 1e-13);
  EXPECT_NEAR(r.sigma[2], 3, 1e-13);
  EXPECT_NEAR(r.sigma[3], 1, 1e-13);
  EXPECT_NEAR(std::abs(r.u(1, 0)), 1.0, 1e-12);
}

class BidiagSpectrumTest : public ::testing::TestWithParam<index_t> {};

TEST_P(BidiagSpectrumTest, RecoversPrescribedSpectrum) {
  const index_t n = GetParam();
  auto sigma = data::geometric_spectrum(n, 1.0, 1e-6);
  auto a = data::matrix_with_spectrum(n, n, sigma, 1100 + n);
  auto r = la::bidiag_svd(MatView<const double>(a.view()));
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(r.sigma[static_cast<std::size_t>(i)],
                sigma[static_cast<std::size_t>(i)],
                1e-12 + 1e-10 * sigma[0])
        << "index " << i;
  EXPECT_LE(orthogonality_error(MatView<const double>(r.u.view())), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BidiagSpectrumTest,
                         ::testing::Values(1, 2, 3, 5, 16, 40, 80));

TEST(BidiagSvdTest, MatchesJacobiOnRandomMatrices) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(1200 + seed);
    auto a = data::gaussian_matrix(30, 30, rng);
    auto gk = la::bidiag_svd(MatView<const double>(a.view()));
    auto ja = la::jacobi_svd(MatView<const double>(a.view()));
    for (std::size_t i = 0; i < gk.sigma.size(); ++i)
      EXPECT_NEAR(gk.sigma[i], ja.sigma[i], 1e-10 * ja.sigma[0])
          << "seed " << seed << " i " << i;
  }
}

TEST(BidiagSvdTest, TallMatrixSubspace) {
  auto sigma = std::vector<double>{4.0, 2.0, 1.0};
  auto a = data::matrix_with_spectrum(40, 3, sigma, 1300);
  auto r = la::bidiag_svd(MatView<const double>(a.view()));
  EXPECT_EQ(r.u.rows(), 40);
  EXPECT_EQ(r.u.cols(), 3);
  // Projection through U reproduces A.
  Matrix<double> coeff(3, 3);
  blas::gemm(1.0, MatView<const double>(r.u.view().t()),
             MatView<const double>(a.view()), 0.0, coeff.view());
  Matrix<double> back(40, 3);
  blas::gemm(1.0, MatView<const double>(r.u.view()),
             MatView<const double>(coeff.view()), 0.0, back.view());
  EXPECT_LE(blas::max_abs_diff(MatView<const double>(back.view()),
                               MatView<const double>(a.view())),
            1e-11);
}

TEST(BidiagSvdTest, HighRelativeAccuracyOnTinyValues) {
  // The Demmel-Kahan selling point: tiny singular values of a bidiagonal-
  // reachable matrix retain *relative* accuracy. Use a triangular factor
  // from a graded matrix.
  const index_t n = 24;
  auto sigma = data::geometric_spectrum(n, 1.0, 1e-12);
  auto a = data::matrix_with_spectrum(n, 4 * n, sigma, 1400);
  Matrix<double> work = a;
  std::vector<double> tau;
  la::gelqf(work.view(), tau);
  auto l = la::extract_l<double>(work.view());
  auto r = la::bidiag_svd(MatView<const double>(l.view()));
  // Small values correct to a few digits (QR-SVD-grade accuracy).
  for (index_t i = 0; i < n; ++i) {
    const double truth = sigma[static_cast<std::size_t>(i)];
    EXPECT_NEAR(r.sigma[static_cast<std::size_t>(i)], truth,
                1e-14 + 0.01 * truth)
        << i;
  }
}

TEST(BidiagSvdTest, SinglePrecisionWorks) {
  auto sigma = data::geometric_spectrum(20, 1.0, 1e-3);
  auto ad = data::matrix_with_spectrum(20, 20, sigma, 1500);
  auto a = data::round_to<float>(ad);
  auto r = la::bidiag_svd(MatView<const float>(a.view()));
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_NEAR(static_cast<double>(r.sigma[i]), sigma[i],
                3e-6 * sigma[0] + 1e-3 * sigma[i]);
  EXPECT_LE(orthogonality_error(MatView<const float>(r.u.view())), 1e-4f);
}

TEST(BidiagSvdTest, ClusteredValuesConverge) {
  // Near-identical singular values are the slow case for zero-shift QR;
  // it must still converge within the sweep budget.
  auto a = data::matrix_with_spectrum(
      16, 16, {2.0, 2.0 - 1e-10, 2.0 - 2e-10, 1.0}, 1600);
  auto r = la::bidiag_svd(MatView<const double>(a.view()));
  EXPECT_NEAR(r.sigma[0], 2.0, 1e-9);
  EXPECT_NEAR(r.sigma[3], 1.0, 1e-10);
  EXPECT_LE(orthogonality_error(MatView<const double>(r.u.view())), 1e-10);
}

TEST(BidiagSvdBackendTest, QrSvdBackendsAgree) {
  // The QR-SVD engine gives the same singular values with either small-SVD
  // backend (the subspaces may differ by rotation in clustered groups).
  auto x = tucker::data::tensor_with_spectra(
      {10, 9, 8}, {tucker::data::DecayProfile::geometric(1, 1e-4),
                   tucker::data::DecayProfile::geometric(1, 1e-4),
                   tucker::data::DecayProfile::geometric(1, 1e-4)},
      1700);
  for (std::size_t n = 0; n < 3; ++n) {
    auto ja = tucker::core::qr_svd(x, n,
                                   tucker::core::SmallSvdBackend::kJacobi);
    auto gk = tucker::core::qr_svd(x, n,
                                   tucker::core::SmallSvdBackend::kAuto);
    ASSERT_EQ(ja.sigma_sq.size(), gk.sigma_sq.size());
    for (std::size_t i = 0; i < ja.sigma_sq.size(); ++i)
      EXPECT_NEAR(ja.sigma_sq[i], gk.sigma_sq[i], 1e-10 * ja.sigma_sq[0])
          << "mode " << n << " i " << i;
  }
}

TEST(BidiagSvdTest, ZeroMatrixIsHandled) {
  Matrix<double> a(5, 3);
  auto r = la::bidiag_svd(MatView<const double>(a.view()));
  for (double s : r.sigma) EXPECT_EQ(s, 0.0);
}

// svd_of_l's default backend is kAuto: Golub-Kahan everywhere, never a
// function of the thread width (which would break the bitwise guarantee
// across TUCKER_NUM_THREADS). Pinned bitwise against the solver itself.
TEST(SmallSvdDispatchTest, UnpinnedAutoIsClassicAtEveryWidth) {
  Matrix<double> l(24, 24);
  Rng rng(111);
  for (index_t i = 0; i < l.rows(); ++i)
    for (index_t j = 0; j < l.cols(); ++j) l(i, j) = rng.normal<double>();
  const auto ref = la::bidiag_svd(MatView<const double>(l.view()));
  for (int threads : {1, 2, 7}) {
    parallel::set_max_threads(threads);
    const auto got = core::svd_of_l(l, core::SmallSvdBackend::kAuto);
    ASSERT_EQ(got.sigma_sq.size(), ref.sigma.size());
    for (std::size_t i = 0; i < ref.sigma.size(); ++i)
      EXPECT_EQ(got.sigma_sq[i], ref.sigma[i] * ref.sigma[i]) << i;
    ASSERT_EQ(got.u.rows(), ref.u.rows());
    ASSERT_EQ(got.u.cols(), ref.u.cols());
    EXPECT_EQ(std::memcmp(got.u.data(), ref.u.data(),
                          sizeof(double) *
                              static_cast<std::size_t>(ref.u.rows() *
                                                       ref.u.cols())),
              0)
        << "threads=" << threads;
  }
  parallel::set_max_threads(1);
}

}  // namespace
}  // namespace tucker
