#include "mbpta/iid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

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

TEST(Iid, SortedFormMatchesTheStandaloneTests) {
  // PwcetCurve hands check_iid its ECCDF's sorted copy. The runs test's
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
    const IidReport got = check_iid(sample, sorted_copy(sample));
    EXPECT_EQ(got.runs_test_p, runs_test_pvalue(sample));
    EXPECT_EQ(got.ljung_box_p, ljung_box_pvalue(sample, 10));
    EXPECT_EQ(got.ks_split_p,
              ks_pvalue(sample.first(half), sample.subspan(half)));
  }
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
