// Known-answer tests for the truncation policy every ST-HOSVD driver shares
// (core/truncation.hpp): the per-mode budget, the take-mode step, the
// tail-energy certificate and the spec check. Every expected value is
// worked out by hand from a spectrum of exact binary fractions, so the
// answers do not depend on any engine of this library.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/truncation.hpp"

namespace tucker {
namespace {

using blas::index_t;
using core::TruncationSpec;

/// sigma = {2, 1, 1/2, 1/4}; u(i, j) = 10 i + j marks every entry.
core::ModeSvd<double> four_values() {
  core::ModeSvd<double> svd;
  svd.sigma_sq = {4, 1, 0.25, 0.0625};
  svd.u = blas::Matrix<double>(4, 4);
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) svd.u(i, j) = 10.0 * i + j;
  return svd;
}

TEST(TruncationPolicyTest, ModeBudgetIsEpsSquaredNormOverModes) {
  // 0.5^2 * 3.75 / 3 = 0.3125, exactly.
  EXPECT_EQ(core::mode_threshold_sq(TruncationSpec::tolerance(0.5), 3.75, 3),
            0.3125);
  EXPECT_EQ(core::mode_threshold_sq(TruncationSpec::fixed_ranks({2, 2, 2}),
                                    3.75, 3),
            0.0);
}

TEST(TruncationPolicyTest, SelectRankKnownAnswers) {
  const std::vector<double> s = {4, 1, 0.25, 0.0625};
  // Tails from the bottom: 0.0625, 0.3125, 1.3125, 5.3125.
  EXPECT_EQ(core::select_rank(s, 0.3125), 2);  // tail exactly on budget
  EXPECT_EQ(core::select_rank(s, 0.3), 3);
  EXPECT_EQ(core::select_rank(s, 0.05), 4);
  EXPECT_EQ(core::select_rank(s, 100.0), 1);
}

TEST(TruncationPolicyTest, TakeModeToleranceKnownAnswer) {
  const auto svd = four_values();
  const auto spec = TruncationSpec::tolerance(0.5);
  const double budget = core::mode_threshold_sq(spec, 3.75, 3);
  std::vector<double> sigmas;
  index_t rank = 0;
  auto u = core::take_mode(svd, spec, 1, budget, sigmas, rank);
  EXPECT_EQ(sigmas, (std::vector<double>{2, 1, 0.5, 0.25}));
  EXPECT_EQ(rank, 2);
  ASSERT_EQ(u.rows(), 4);
  ASSERT_EQ(u.cols(), 2);
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 2; ++j) EXPECT_EQ(u(i, j), 10.0 * i + j);
}

TEST(TruncationPolicyTest, TakeRankFixedRanksClampToComputedVectors) {
  const auto svd = four_values();
  const auto spec = TruncationSpec::fixed_ranks({3, 9});
  std::vector<double> sigmas;
  // The budget is ignored for fixed ranks.
  EXPECT_EQ(core::take_rank(svd, spec, 0, 100.0, sigmas), 3);
  EXPECT_EQ(core::take_rank(svd, spec, 1, 100.0, sigmas), 4);
  EXPECT_EQ(sigmas.size(), 4u);
}

TEST(TruncationPolicyTest, TailRelativeErrorKnownAnswer) {
  // Discarded: 0.25 + 0.0625 in mode 0, 1 in mode 1; 1.3125 / 5.25 = 1/4.
  const std::vector<std::vector<double>> sig = {{2, 1, 0.5, 0.25}, {3, 1}};
  EXPECT_EQ(core::tail_relative_error(sig, {2, 1}, 5.25), 0.5);
  EXPECT_EQ(core::tail_relative_error(sig, {4, 2}, 5.25), 0.0);
  EXPECT_EQ(core::tail_relative_error(sig, {2, 1}, 0.0), 0.0);
}

TEST(CheckSpecTest, AcceptsValidSpecsAndOrders) {
  EXPECT_EQ(core::check_spec(TruncationSpec::tolerance(1e-3), {}, 3), nullptr);
  EXPECT_EQ(core::check_spec(TruncationSpec::fixed_ranks({1, 5, 2}),
                             {2, 0, 1}, 3),
            nullptr);
}

TEST(CheckSpecTest, NamesEachReason) {
  auto why = [](const TruncationSpec& s, std::vector<std::size_t> order) {
    const char* r = core::check_spec(s, order, 3);
    return std::string(r == nullptr ? "" : r);
  };
  const auto fixed = TruncationSpec::fixed_ranks({4, 4, 4});
  EXPECT_EQ(why(TruncationSpec::fixed_ranks({4, 4}), {}),
            "fixed-rank spec needs one rank per mode");
  EXPECT_EQ(why(TruncationSpec::fixed_ranks({4, 0, 4}), {}),
            "fixed ranks must be >= 1");
  TruncationSpec tol;
  for (double eps : {0.0, -1e-3, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    tol.epsilon = eps;
    EXPECT_EQ(why(tol, {}), "tolerance must be finite and positive") << eps;
  }
  EXPECT_EQ(why(fixed, {0, 1}), "order must list every mode");
  EXPECT_EQ(why(fixed, {0, 0, 1}), "order must be a permutation of 0..N-1");
  EXPECT_EQ(why(fixed, {0, 1, 7}), "order must be a permutation of 0..N-1");
}

}  // namespace
}  // namespace tucker
