// Pipelined blocked one-sided Jacobi (lapack::jacobi_svd_pipelined): sigma
// agreement with the classic row-cyclic oracle, bitwise determinism across
// thread widths, wide-accumulator accuracy, and rank-deficient inputs that
// exercise the Gram-Schmidt basis completion.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "blas/gemm.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/svd_engine.hpp"
#include "data/synthetic_matrix.hpp"
#include "lapack/svd.hpp"

namespace tucker {
namespace {

using blas::index_t;
using blas::Matrix;
using blas::MatView;

struct ThreadsGuard {
  ~ThreadsGuard() { parallel::set_max_threads(1); }
};

template <class T>
double orthonormality_error(const Matrix<T>& u) {
  double worst = 0;
  for (index_t i = 0; i < u.cols(); ++i)
    for (index_t j = 0; j <= i; ++j) {
      double dot = 0;
      for (index_t r = 0; r < u.rows(); ++r)
        dot += static_cast<double>(u(r, i)) * static_cast<double>(u(r, j));
      worst = std::max(worst, std::abs(dot - (i == j ? 1.0 : 0.0)));
    }
  return worst;
}

template <class T>
Matrix<T> random_tall(index_t m, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> a(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j)
      a(i, j) = static_cast<T>(rng.normal<double>());
  return a;
}

// ------------------------------------------------- agreement with oracle

TEST(JacobiPipelineTest, MatchesClassicOnRandomTallDouble) {
  auto a = random_tall<double>(64, 48, 31);
  auto classic = la::jacobi_svd(a.cview());
  auto piped = la::jacobi_svd_pipelined(a.cview());
  ASSERT_EQ(piped.sigma.size(), classic.sigma.size());
  const double smax = classic.sigma[0];
  // Different rotation order => agreement to method accuracy, not bitwise.
  for (std::size_t i = 0; i < classic.sigma.size(); ++i)
    EXPECT_NEAR(piped.sigma[i], classic.sigma[i], 1e-12 * smax) << i;
  EXPECT_LT(orthonormality_error(piped.u), 1e-12);
}

TEST(JacobiPipelineTest, MatchesClassicOnRandomTallSingle) {
  auto a = random_tall<float>(48, 32, 32);
  auto classic = la::jacobi_svd(a.cview());
  auto piped = la::jacobi_svd_pipelined(a.cview());
  ASSERT_EQ(piped.sigma.size(), classic.sigma.size());
  const double smax = static_cast<double>(classic.sigma[0]);
  for (std::size_t i = 0; i < classic.sigma.size(); ++i)
    EXPECT_NEAR(static_cast<double>(piped.sigma[i]),
                static_cast<double>(classic.sigma[i]), 100 * 1.2e-7 * smax)
        << i;
  EXPECT_LT(orthonormality_error(piped.u), 1e-4);
}

TEST(JacobiPipelineTest, HandlesShapesAroundThePanelSize) {
  // Fewer columns than one panel, exactly one panel, an odd panel count,
  // and a non-multiple of the panel width: all must agree with the oracle.
  for (index_t n : {index_t{3}, index_t{8}, index_t{19}, index_t{24}}) {
    auto a = random_tall<double>(2 * n + 5, n, 40 + static_cast<unsigned>(n));
    auto classic = la::jacobi_svd(a.cview());
    auto piped = la::jacobi_svd_pipelined(a.cview());
    ASSERT_EQ(piped.sigma.size(), classic.sigma.size()) << n;
    const double smax = classic.sigma[0];
    for (std::size_t i = 0; i < classic.sigma.size(); ++i)
      EXPECT_NEAR(piped.sigma[i], classic.sigma[i], 1e-12 * smax)
          << "n=" << n << " i=" << i;
  }
}

TEST(JacobiPipelineTest, RecoversKnownSpectrum) {
  const index_t m = 60, n = 24;
  auto sigma = data::geometric_spectrum(n, 1.0, 1e-6);
  auto a = data::matrix_with_spectrum(m, n, sigma, 77);
  auto piped = la::jacobi_svd_pipelined(a.cview());
  ASSERT_EQ(piped.sigma.size(), static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(piped.sigma[static_cast<std::size_t>(i)],
                sigma[static_cast<std::size_t>(i)], 1e-12 * sigma[0])
        << i;
}

// ------------------------------------------------------ bitwise contract

TEST(JacobiPipelineTest, BitwiseAcrossThreadWidths) {
  ThreadsGuard tg;
  for (index_t n : {index_t{17}, index_t{48}}) {
    auto a = random_tall<double>(96, n, 50 + static_cast<unsigned>(n));
    std::vector<double> sig_ref;
    Matrix<double> u_ref;
    for (int threads : {1, 2, 7}) {
      parallel::set_max_threads(threads);
      auto got = la::jacobi_svd_pipelined(a.cview());
      if (sig_ref.empty()) {
        sig_ref = std::move(got.sigma);
        u_ref = std::move(got.u);
        continue;
      }
      ASSERT_EQ(got.sigma.size(), sig_ref.size());
      EXPECT_EQ(std::memcmp(got.sigma.data(), sig_ref.data(),
                            sizeof(double) * sig_ref.size()),
                0)
          << "n=" << n << " threads=" << threads;
      ASSERT_EQ(got.u.rows(), u_ref.rows());
      ASSERT_EQ(got.u.cols(), u_ref.cols());
      EXPECT_EQ(std::memcmp(got.u.data(), u_ref.data(),
                            sizeof(double) * static_cast<std::size_t>(
                                                 u_ref.rows() * u_ref.cols())),
                0)
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(JacobiPipelineTest, WideVariantBitwiseAcrossThreadWidths) {
  ThreadsGuard tg;
  auto a = random_tall<float>(80, 40, 61);
  std::vector<float> sig_ref;
  Matrix<float> u_ref;
  for (int threads : {1, 2, 7}) {
    parallel::set_max_threads(threads);
    auto got = la::jacobi_svd_pipelined<float, double>(a.cview());
    if (sig_ref.empty()) {
      sig_ref = std::move(got.sigma);
      u_ref = std::move(got.u);
      continue;
    }
    ASSERT_EQ(got.sigma.size(), sig_ref.size());
    EXPECT_EQ(std::memcmp(got.sigma.data(), sig_ref.data(),
                          sizeof(float) * sig_ref.size()),
              0)
        << "threads=" << threads;
    EXPECT_EQ(std::memcmp(got.u.data(), u_ref.data(),
                          sizeof(float) * static_cast<std::size_t>(
                                              u_ref.rows() * u_ref.cols())),
              0)
        << "threads=" << threads;
  }
}

// ----------------------------------------------------- wide accumulation

TEST(JacobiPipelineTest, WideAccumStaysOnSinglePrecisionRung) {
  // fp32 storage with fp64 rotation parameters and column norms: the
  // result must sit on the eps_s * ||A|| rung (same bound the classic
  // single-precision ladder rung uses), and the basis stays orthonormal.
  const index_t m = 96, n = 32;
  auto sigma = data::geometric_spectrum(n, 1.0, 1e-3);
  auto ad = data::matrix_with_spectrum(m, n, sigma, 83);
  auto af = data::round_to<float>(ad);
  auto wide = la::jacobi_svd_pipelined<float, double>(af.cview());
  ASSERT_EQ(wide.sigma.size(), static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(static_cast<double>(wide.sigma[static_cast<std::size_t>(i)]),
                sigma[static_cast<std::size_t>(i)], 100 * 1.2e-7 * sigma[0])
        << i;
  EXPECT_LT(orthonormality_error(wide.u), 1e-4);
}

// -------------------------------------------------- rank-deficient input

TEST(JacobiPipelineTest, RankDeficientColumnsCompleteTheBasis) {
  // Zero trailing columns (the shape zero-padded triangles take in the
  // parallel butterfly): trailing sigmas are zero and the corresponding U
  // columns are replaced by unit vectors orthogonal to the range.
  const index_t m = 40, n = 16, rank = 10;
  auto a = random_tall<double>(m, n, 91);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = rank; j < n; ++j) a(i, j) = 0.0;
  auto piped = la::jacobi_svd_pipelined(a.cview());
  ASSERT_EQ(piped.sigma.size(), static_cast<std::size_t>(n));
  for (index_t i = 1; i < n; ++i)
    EXPECT_LE(piped.sigma[static_cast<std::size_t>(i)],
              piped.sigma[static_cast<std::size_t>(i - 1)]);
  const double smax = piped.sigma[0];
  for (index_t i = rank; i < n; ++i)
    EXPECT_LE(piped.sigma[static_cast<std::size_t>(i)], 1e-12 * smax) << i;
  EXPECT_LT(orthonormality_error(piped.u), 1e-12);
}

TEST(JacobiPipelineTest, RankDeficientTriangleFromLowRankMatrix) {
  // A genuinely low-rank spectrum (not just zero columns): every direction
  // past the numerical rank must still come back orthonormal.
  const index_t m = 48, n = 20, rank = 7;
  std::vector<double> sigma(static_cast<std::size_t>(rank));
  for (index_t i = 0; i < rank; ++i)
    sigma[static_cast<std::size_t>(i)] =
        std::pow(10.0, -static_cast<double>(i));
  auto a = data::matrix_with_spectrum(m, n, sigma, 97);
  auto piped = la::jacobi_svd_pipelined(a.cview());
  ASSERT_EQ(piped.sigma.size(), static_cast<std::size_t>(n));
  for (index_t i = 0; i < rank; ++i)
    EXPECT_NEAR(piped.sigma[static_cast<std::size_t>(i)],
                sigma[static_cast<std::size_t>(i)], 1e-12 * sigma[0])
        << i;
  for (index_t i = rank; i < n; ++i)
    EXPECT_LE(piped.sigma[static_cast<std::size_t>(i)], 1e-12 * sigma[0]);
  EXPECT_LT(orthonormality_error(piped.u), 1e-12);
}

// ------------------------------------------------------- kAuto dispatch
//
// svd_of_l's default backend is kAuto: classic Golub-Kahan everywhere --
// never a function of the thread width, which would break the repo-wide
// bitwise-across-TUCKER_NUM_THREADS guarantee. This test pins the dispatch
// bitwise against the explicit backend.

template <class T>
void expect_same_mode_svd(const core::ModeSvd<T>& got,
                          const core::ModeSvd<T>& ref, const char* what) {
  ASSERT_EQ(got.sigma_sq.size(), ref.sigma_sq.size()) << what;
  EXPECT_EQ(std::memcmp(got.sigma_sq.data(), ref.sigma_sq.data(),
                        sizeof(T) * ref.sigma_sq.size()),
            0)
      << what;
  ASSERT_EQ(got.u.rows(), ref.u.rows()) << what;
  ASSERT_EQ(got.u.cols(), ref.u.cols()) << what;
  EXPECT_EQ(std::memcmp(got.u.data(), ref.u.data(),
                        sizeof(T) * static_cast<std::size_t>(ref.u.rows() *
                                                             ref.u.cols())),
            0)
      << what;
}

TEST(SmallSvdDispatchTest, UnpinnedAutoIsClassicAtEveryWidth) {
  ThreadsGuard tg;
  auto l = random_tall<double>(24, 24, 111);
  for (int threads : {1, 2, 7}) {
    parallel::set_max_threads(threads);
    expect_same_mode_svd(
        core::svd_of_l(l, core::SmallSvdBackend::kAuto),
        core::svd_of_l(l, core::SmallSvdBackend::kGolubKahan),
        "unpinned auto == Golub-Kahan regardless of width");
  }
}

}  // namespace
}  // namespace tucker
