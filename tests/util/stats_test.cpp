#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace mbcr {
namespace {

TEST(Stats, MeanVarianceKnownValues) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyAndSingletonAreSafe) {
  const std::vector<double> empty;
  const std::vector<double> one{3.0};
  EXPECT_EQ(mean(empty), 0.0);
  EXPECT_EQ(variance(empty), 0.0);
  EXPECT_EQ(variance(one), 0.0);
  EXPECT_EQ(quantile(empty, 0.5), 0.0);
  EXPECT_EQ(quantile(one, 0.99), 3.0);
}

TEST(Stats, CoefficientOfVariationOfExponentialIsOne) {
  Xoshiro256 rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 200000; ++i) {
    xs.push_back(-std::log(1.0 - rng.uniform01()));
  }
  EXPECT_NEAR(coefficient_of_variation(xs), 1.0, 0.02);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.1), 14.0);  // type-7 interpolation
}

TEST(Stats, QuantileUnsortedInput) {
  const std::vector<double> xs{50, 10, 40, 20, 30};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 30.0);
}

TEST(Stats, KsStatisticIdenticalSamplesIsZero) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(ks_statistic(xs, xs), 0.0);
}

TEST(Stats, KsStatisticDisjointSamplesIsOne) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{10, 11, 12};
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), 1.0);
}

TEST(Stats, KsPvalueAcceptsSameDistribution) {
  Xoshiro256 rng(21);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 4000; ++i) a.push_back(rng.uniform01());
  for (int i = 0; i < 4000; ++i) b.push_back(rng.uniform01());
  EXPECT_GT(ks_pvalue(a, b), 0.01);
}

TEST(Stats, KsPvalueRejectsShiftedDistribution) {
  Xoshiro256 rng(22);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 4000; ++i) a.push_back(rng.uniform01());
  for (int i = 0; i < 4000; ++i) b.push_back(rng.uniform01() + 0.2);
  EXPECT_LT(ks_pvalue(a, b), 1e-6);
}

TEST(Stats, KsSplitMatchesKsOnTheTwoParts) {
  // ks_split_pvalue reads the second part out of the whole sample's sorted
  // copy; it must equal ks_pvalue on the two parts at every split — with
  // ties, unequal parts, disjoint ranges (one part runs out first) and
  // the degenerate empty parts.
  Xoshiro256 rng(12);
  std::vector<double> ties;
  std::vector<double> shifted;
  for (int i = 0; i < 3001; ++i) {
    ties.push_back(static_cast<double>(rng.uniform(9)));
    shifted.push_back(rng.uniform01() + (i < 1000 ? 0.0 : 5.0));
  }
  for (const std::vector<double>* xs : {&ties, &shifted}) {
    const std::span<const double> all(*xs);
    const std::vector<double> sorted = sorted_copy(all);
    for (const std::size_t split : {0u, 1u, 999u, 1000u, 1500u, 3000u, 3001u}) {
      EXPECT_EQ(ks_split_pvalue(all, sorted, split),
                ks_pvalue(all.first(split), all.subspan(split)))
          << "split " << split;
    }
  }
}

TEST(Stats, RunsTestAcceptsIndependentData) {
  Xoshiro256 rng(33);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.uniform01());
  EXPECT_GT(runs_test_pvalue(xs), 0.01);
}

TEST(Stats, RunsTestRejectsTrend) {
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(static_cast<double>(i));
  EXPECT_LT(runs_test_pvalue(xs), 1e-6);
}

TEST(Stats, LjungBoxRejectsAutocorrelatedSeries) {
  Xoshiro256 rng(44);
  std::vector<double> xs{0.0};
  for (int i = 1; i < 5000; ++i) {
    xs.push_back(0.8 * xs.back() + rng.uniform01());  // AR(1)
  }
  EXPECT_LT(ljung_box_pvalue(xs, 10), 1e-6);
}

TEST(Stats, LjungBoxAcceptsWhiteNoise) {
  Xoshiro256 rng(45);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.uniform01());
  EXPECT_GT(ljung_box_pvalue(xs, 10), 0.01);
}

TEST(Stats, NormalCdfKnownPoints) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
}

TEST(Stats, Chi2SurvivalKnownPoints) {
  // P(X >= 3.841) with 1 dof ~ 0.05; P(X >= 18.307) with 10 dof ~ 0.05.
  EXPECT_NEAR(chi2_sf(3.841, 1), 0.05, 0.001);
  EXPECT_NEAR(chi2_sf(18.307, 10), 0.05, 0.001);
  EXPECT_DOUBLE_EQ(chi2_sf(0.0, 5), 1.0);
}

TEST(Stats, AutocorrelationOfConstantIsZero) {
  const std::vector<double> xs(100, 3.0);
  EXPECT_DOUBLE_EQ(autocorrelation(xs, 1), 0.0);
}

TEST(Stats, AutocorrelationLagOneOfAlternating) {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(i % 2 ? 1.0 : -1.0);
  EXPECT_NEAR(autocorrelation(xs, 1), -1.0, 0.01);
}

TEST(Stats, CountExceedances) {
  const std::vector<double> xs{1, 5, 3, 8, 2};
  EXPECT_EQ(count_exceedances(xs, 2.5), 3u);
  EXPECT_EQ(count_exceedances(xs, 8.0), 0u);
  EXPECT_EQ(count_exceedances(xs, 0.0), 5u);
}

}  // namespace
}  // namespace mbcr
