#include "mbpta/eccdf.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mbcr::mbpta {
namespace {

TEST(Eccdf, ExceedanceProbability) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const Eccdf e(xs);
  EXPECT_DOUBLE_EQ(e.exceedance_prob(0.5), 1.0);
  EXPECT_DOUBLE_EQ(e.exceedance_prob(5.0), 0.5);
  EXPECT_DOUBLE_EQ(e.exceedance_prob(10.0), 0.0);
  EXPECT_DOUBLE_EQ(e.exceedance_prob(9.5), 0.1);
}

TEST(Eccdf, ValueAtExceedance) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const Eccdf e(xs);
  EXPECT_DOUBLE_EQ(e.value_at_exceedance(0.5), 6.0);
  EXPECT_DOUBLE_EQ(e.value_at_exceedance(0.1), 10.0);
  // Deeper than the sample resolves: the max observation.
  EXPECT_DOUBLE_EQ(e.value_at_exceedance(1e-9), 10.0);
}

TEST(Eccdf, MinMaxAndSize) {
  const std::vector<double> xs{5, 3, 8};
  const Eccdf e(xs);
  EXPECT_DOUBLE_EQ(e.min(), 3.0);
  EXPECT_DOUBLE_EQ(e.max(), 8.0);
  EXPECT_EQ(e.size(), 3u);
}

TEST(Eccdf, EmptySampleSafe) {
  const Eccdf e;
  EXPECT_DOUBLE_EQ(e.exceedance_prob(1.0), 0.0);
  EXPECT_DOUBLE_EQ(e.value_at_exceedance(0.5), 0.0);
  EXPECT_TRUE(e.curve().empty());
}

TEST(Eccdf, CurveIsMonotone) {
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) xs.push_back(static_cast<double>(i % 997));
  const Eccdf e(xs);
  const auto curve = e.curve(100);
  ASSERT_GE(curve.size(), 2u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_LE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 0.0);
}

TEST(Eccdf, CurveThinning) {
  std::vector<double> xs(100000, 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  const Eccdf e(xs);
  EXPECT_LE(e.curve(128).size(), 130u);
}

}  // namespace
}  // namespace mbcr::mbpta
