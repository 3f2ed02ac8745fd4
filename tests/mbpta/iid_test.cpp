#include "mbpta/iid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "sorted_reference.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mbcr::mbpta {
namespace {

TEST(Iid, AcceptsIndependentSample) {
  Xoshiro256 rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.uniform01() * 100);
  const IidReport rep = check_iid(xs);
  EXPECT_TRUE(rep.independent) << rep.summary();
  EXPECT_TRUE(rep.identically_distributed) << rep.summary();
  EXPECT_TRUE(rep.passed());
}

TEST(Iid, RejectsAutocorrelatedSample) {
  Xoshiro256 rng(2);
  std::vector<double> xs{0.0};
  for (int i = 1; i < 5000; ++i) {
    xs.push_back(0.9 * xs.back() + rng.uniform01());
  }
  const IidReport rep = check_iid(xs);
  EXPECT_FALSE(rep.independent) << rep.summary();
}

TEST(Iid, TableFormMatchesTheStandaloneTests) {
  // PwcetCurve hands check_iid its ECCDF's count table. The runs test's
  // median and the split KS test read it instead of sorting their own
  // copies; every p-value must equal the standalone test on the sample —
  // on tie-heavy integer samples (cycle counts) as well as continuous ones.
  Xoshiro256 rng(4);
  std::vector<double> continuous;
  std::vector<double> ties;
  std::vector<double> drifting{0.0};
  for (int i = 0; i < 4001; ++i) {
    continuous.push_back(rng.uniform01() * 100);
    ties.push_back(static_cast<double>(1000 + rng.uniform(7) * 100));
    drifting.push_back(0.9 * drifting.back() + rng.uniform01());
  }
  for (const std::vector<double>* xs : {&continuous, &ties, &drifting}) {
    const std::span<const double> sample(*xs);
    const std::size_t half = sample.size() / 2;
    const IidReport got = check_iid(sample, Eccdf(sample));
    EXPECT_EQ(got.runs_test_p, runs_test_pvalue(sample));
    EXPECT_EQ(got.ljung_box_p, ljung_box_pvalue(sample, 10));
    EXPECT_EQ(got.ks_split_p,
              ks_pvalue(sample.first(half), sample.subspan(half)));
  }
}

TEST(Iid, StreamingRunsTestMatchesTheSignVectorForm) {
  // Median ties are dropped; the streaming count must see the same sign
  // sequence as the sign vector did, bit for bit, including the samples
  // where most values sit exactly at the median.
  Xoshiro256 rng(8);
  for (const std::uint32_t spread : {2u, 3u, 5u, 40u}) {
    for (const int n : {19, 20, 39, 41, 1000, 20001}) {
      std::vector<double> xs;
      for (int i = 0; i < n; ++i) {
        const std::uint32_t r = rng.uniform(10);
        xs.push_back(r < 6 ? 500.0 : 500.0 + rng.uniform(spread) * 10.0 - 5.0);
      }
      const double med = quantile(xs, 0.5);
      EXPECT_EQ(runs_test_pvalue(xs, med), reference::runs_test_pvalue(xs, med))
          << "spread " << spread << " n " << n;
      EXPECT_EQ(runs_test_pvalue(xs), reference::runs_test_pvalue(xs, med));
    }
  }
}

TEST(Iid, TwoPassLjungBoxMatchesThePerLagForm) {
  Xoshiro256 rng(9);
  std::vector<double> white;
  std::vector<double> ar{0.0};
  std::vector<double> ties;
  for (int i = 0; i < 5000; ++i) {
    white.push_back(rng.uniform01() * 1000.0);
    ar.push_back(0.7 * ar.back() + rng.uniform01());
    ties.push_back(static_cast<double>(900 + 13 * rng.uniform(4)));
  }
  std::vector<double> constant(100, 3.0);
  for (const std::vector<double>* xs : {&white, &ar, &ties, &constant}) {
    for (const std::size_t lags : {1u, 2u, 10u, 33u}) {
      EXPECT_EQ(ljung_box_pvalue(*xs, lags),
                reference::ljung_box_pvalue(*xs, lags))
          << "lags " << lags;
    }
  }
  // Too short for the lags: both return 1.
  EXPECT_EQ(ljung_box_pvalue(constant, 40), 1.0);
}

TEST(Iid, RejectsDistributionDrift) {
  Xoshiro256 rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 3000; ++i) xs.push_back(rng.uniform01());
  for (int i = 0; i < 3000; ++i) xs.push_back(rng.uniform01() + 0.5);
  const IidReport rep = check_iid(xs);
  EXPECT_FALSE(rep.identically_distributed) << rep.summary();
}

TEST(Iid, SmallSamplesPassByDefault) {
  const std::vector<double> xs{1, 2, 3};
  EXPECT_TRUE(check_iid(xs).passed());
}

TEST(Iid, SummaryMentionsVerdict) {
  Xoshiro256 rng(4);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform01());
  EXPECT_NE(check_iid(xs).summary().find("i.i.d."), std::string::npos);
}

}  // namespace
}  // namespace mbcr::mbpta
