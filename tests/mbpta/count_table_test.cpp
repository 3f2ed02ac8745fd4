// The count table (mbpta::Eccdf) and everything that reads it — rank
// queries, the CV tail fit, the runs-test median, the split KS test and
// the pWCET probe — pinned bit-equal to the naive sorted-vector reference
// in sorted_reference.hpp, on tie-heavy integer samples, continuous
// samples and samples of size 0, 1 and 2.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mbpta/eccdf.hpp"
#include "mbpta/evt.hpp"
#include "mbpta/iid.hpp"
#include "mbpta/pwcet.hpp"
#include "sorted_reference.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mbcr::mbpta {
namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Sample {
  std::string name;
  std::vector<double> xs;
};

std::vector<Sample> samples() {
  std::vector<Sample> out;
  out.push_back({"empty", {}});
  out.push_back({"one", {1234.0}});
  out.push_back({"two", {7.0, 3.0}});
  out.push_back({"two equal", {5.0, 5.0}});
  out.push_back({"constant", std::vector<double>(500, 900.0)});
  Xoshiro256 rng(17);
  // Cycle-count-like: a few distinct integers, heavily tied, skewed so
  // the median sits on a tie.
  std::vector<double> ties;
  for (int i = 0; i < 20011; ++i) {
    const std::uint32_t r = rng.uniform(100);
    ties.push_back(r < 60 ? 1000.0 : 1000.0 + 37.0 * static_cast<double>(r % 16));
  }
  out.push_back({"integer ties", ties});
  std::vector<double> few;
  for (int i = 0; i < 3001; ++i) {
    few.push_back(static_cast<double>(400 + rng.uniform(3) * 100));
  }
  out.push_back({"three values", few});
  std::vector<double> continuous;
  for (int i = 0; i < 5003; ++i) {
    continuous.push_back(1000.0 - std::log(1.0 - rng.uniform01()) / 0.05);
  }
  out.push_back({"continuous", continuous});
  std::vector<double> small;
  for (int i = 0; i < 45; ++i) small.push_back(rng.uniform01() * 10.0);
  out.push_back({"small continuous", small});
  std::vector<double> negative;
  for (int i = 0; i < 301; ++i) {
    negative.push_back(static_cast<double>(rng.uniform(11)) - 5.0);
  }
  out.push_back({"negative integers", negative});
  return out;
}

std::vector<EvtConfig> configs() {
  EvtConfig defaults;
  EvtConfig low;  // reaches the loop on small samples
  low.min_exceedances = 2;
  low.initial_tail_fraction = 0.5;
  EvtConfig none;
  none.min_exceedances = 0;
  none.initial_tail_fraction = 0.05;
  none.min_tail_fraction = 1e-6;
  return {defaults, low, none};
}

void expect_fit_equal(const ExpTailFit& got, const ExpTailFit& want,
                      const std::string& where) {
  EXPECT_TRUE(bits_equal(got.threshold, want.threshold)) << where;
  EXPECT_TRUE(bits_equal(got.rate, want.rate)) << where;
  EXPECT_TRUE(bits_equal(got.zeta, want.zeta)) << where;
  EXPECT_EQ(got.n_exceedances, want.n_exceedances) << where;
  EXPECT_EQ(got.n_total, want.n_total) << where;
  EXPECT_TRUE(bits_equal(got.cv, want.cv)) << where;
  EXPECT_EQ(got.cv_accepted, want.cv_accepted) << where;
}

TEST(CountTable, RankQueriesMatchTheSortedSample) {
  for (const Sample& s : samples()) {
    const std::vector<double> sorted = sorted_copy(s.xs);
    const Eccdf e(s.xs);
    ASSERT_EQ(e.size(), sorted.size()) << s.name;
    EXPECT_EQ(e.min(), sorted.empty() ? 0.0 : sorted.front()) << s.name;
    EXPECT_EQ(e.max(), sorted.empty() ? 0.0 : sorted.back()) << s.name;
    for (std::size_t i = 1; i < e.values().size(); ++i) {
      EXPECT_LT(e.values()[i - 1], e.values()[i]) << s.name;
    }
    for (std::size_t r = 0; r < sorted.size(); ++r) {
      ASSERT_TRUE(bits_equal(e.at_rank(r), sorted[r])) << s.name << " " << r;
    }
    for (const double p : {1.0, 0.9, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-9, 0.0}) {
      EXPECT_TRUE(bits_equal(e.value_at_exceedance(p),
                             reference::value_at_exceedance(sorted, p)))
          << s.name << " p " << p;
    }
    for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.999, 1.0}) {
      EXPECT_TRUE(bits_equal(e.quantile(q), quantile_sorted(sorted, q)))
          << s.name << " q " << q;
    }
    for (const double v : sorted) {
      for (const double t : {v, v - 0.5, v + 0.5}) {
        EXPECT_TRUE(bits_equal(e.exceedance_prob(t),
                               reference::exceedance_prob(sorted, t)))
            << s.name << " t " << t;
      }
    }
    for (const std::size_t points : {0u, 1u, 7u, 100u, 512u}) {
      EXPECT_EQ(e.curve(points), reference::curve(sorted, points))
          << s.name << " points " << points;
    }
  }
}

TEST(CountTable, TailFitMatchesTheSortedSample) {
  for (const Sample& s : samples()) {
    const std::vector<double> sorted = sorted_copy(s.xs);
    const Eccdf e(s.xs);
    for (const EvtConfig& cfg : configs()) {
      const std::string where =
          s.name + " min_exc " + std::to_string(cfg.min_exceedances);
      const ExpTailFit want = reference::fit_exponential_tail(sorted, cfg);
      expect_fit_equal(fit_exponential_tail(e, cfg), want, where);
      expect_fit_equal(fit_exponential_tail(s.xs, cfg), want, where);
    }
  }
}

TEST(CountTable, ProbeMatchesTheSortedSample) {
  for (const Sample& s : samples()) {
    const std::vector<double> sorted = sorted_copy(s.xs);
    const Eccdf e(s.xs);
    const PwcetCurve curve(s.xs);
    const ExpTailFit tail = reference::fit_exponential_tail(sorted);
    for (const double p : {0.5, 1e-3, 1e-6, 1e-12}) {
      double want = 0.0;
      if (!sorted.empty()) {
        want = reference::value_at_exceedance(sorted, p);
        if (p < tail.zeta) want = std::max(want, tail.quantile(p));
      }
      EXPECT_TRUE(bits_equal(pwcet_probe(e, p), want)) << s.name << " " << p;
      EXPECT_TRUE(bits_equal(curve.at(p), want)) << s.name << " " << p;
    }
  }
}

TEST(CountTable, RunsMedianAndSplitKsMatchTheSortedSample) {
  for (const Sample& s : samples()) {
    const std::span<const double> xs(s.xs);
    const std::vector<double> sorted = sorted_copy(xs);
    const Eccdf e(xs);
    const double median = quantile_sorted(sorted, 0.5);
    EXPECT_TRUE(bits_equal(e.quantile(0.5), median)) << s.name;
    EXPECT_TRUE(bits_equal(runs_test_pvalue(xs, median),
                           reference::runs_test_pvalue(xs, median)))
        << s.name;
    for (const std::size_t split :
         {std::size_t{0}, std::size_t{1}, xs.size() / 3, xs.size() / 2,
          xs.size()}) {
      if (split > xs.size()) continue;
      const Eccdf first(xs.first(split));
      const Eccdf rest = e.minus(first);
      EXPECT_EQ(rest.size(), xs.size() - split) << s.name;
      EXPECT_TRUE(bits_equal(ks_statistic(first, rest),
                             mbcr::ks_statistic(xs.first(split), xs.subspan(split))))
          << s.name << " split " << split;
    }
    if (xs.size() >= 40) {
      const IidReport rep = check_iid(xs);
      const std::size_t half = xs.size() / 2;
      EXPECT_TRUE(bits_equal(rep.runs_test_p,
                             reference::runs_test_pvalue(xs, median)))
          << s.name;
      EXPECT_TRUE(bits_equal(rep.ljung_box_p,
                             reference::ljung_box_pvalue(xs, 10)))
          << s.name;
      EXPECT_TRUE(bits_equal(rep.ks_split_p,
                             ks_pvalue(xs.first(half), xs.subspan(half))))
          << s.name;
    }
  }
}

TEST(CountTable, SplitKsMatchesKsOnTheTwoParts) {
  // The split KS test on (first part, whole minus first part) must equal
  // ks_pvalue on the two parts at every split — with ties, unequal parts,
  // disjoint ranges (one part runs out first) and empty parts.
  Xoshiro256 rng(12);
  std::vector<double> ties;
  std::vector<double> shifted;
  for (int i = 0; i < 3001; ++i) {
    ties.push_back(static_cast<double>(rng.uniform(9)));
    shifted.push_back(rng.uniform01() + (i < 1000 ? 0.0 : 5.0));
  }
  for (const std::vector<double>* xs : {&ties, &shifted}) {
    const std::span<const double> all(*xs);
    const Eccdf whole(all);
    for (const std::size_t split : {0u, 1u, 999u, 1000u, 1500u, 3000u, 3001u}) {
      const Eccdf first(all.first(split));
      const Eccdf rest = whole.minus(first);
      const double got =
          first.size() == 0 || rest.size() == 0
              ? 1.0
              : ks_pvalue(ks_statistic(first, rest), first.size(),
                          rest.size());
      EXPECT_EQ(got, ks_pvalue(all.first(split), all.subspan(split)))
          << "split " << split;
    }
  }
}

TEST(CountTable, FoldingDeltasEqualsCountingAtOnce) {
  for (const Sample& s : samples()) {
    const std::span<const double> xs(s.xs);
    Eccdf folded;
    std::size_t at = 0;
    for (std::size_t step = 1; at < xs.size(); step = step * 3 + 1) {
      const std::size_t k = std::min(step, xs.size() - at);
      folded.add(xs.subspan(at, k));
      at += k;
      const Eccdf prefix(xs.first(at));
      ASSERT_EQ(folded.values(), prefix.values()) << s.name << " " << at;
      ASSERT_EQ(folded.cumulative(), prefix.cumulative()) << s.name;
    }
    folded.add({});
    const Eccdf whole(xs);
    EXPECT_EQ(folded.values(), whole.values()) << s.name;
    EXPECT_EQ(folded.cumulative(), whole.cumulative()) << s.name;
  }
}

TEST(CountTable, NegativeZeroCountsAsZero) {
  const std::vector<double> xs{-0.0, 0.0, 1.0, -0.0};
  const Eccdf e(xs);
  ASSERT_EQ(e.values().size(), 2u);
  EXPECT_EQ(e.cumulative()[0], 3u);
  EXPECT_EQ(e.exceedance_prob(0.0), 0.25);
}

TEST(CountTable, MinusRejectsWhatIsNotASubMultiset) {
  const Eccdf whole(std::vector<double>{1, 2, 2, 3});
  EXPECT_THROW((void)whole.minus(Eccdf(std::vector<double>{4})),
               std::invalid_argument);
  EXPECT_THROW((void)whole.minus(Eccdf(std::vector<double>{1, 1})),
               std::invalid_argument);
  // Over-taking one value while the sizes still add up.
  EXPECT_THROW((void)Eccdf(std::vector<double>{1, 2})
                   .minus(Eccdf(std::vector<double>{1, 1})),
               std::invalid_argument);
  const Eccdf rest = whole.minus(Eccdf(std::vector<double>{2, 3}));
  EXPECT_EQ(rest.values(), (std::vector<double>{1, 2}));
  EXPECT_EQ(rest.cumulative(), (std::vector<std::size_t>{1, 2}));
}

TEST(CountTable, TableIsProportionalToDistinctValues) {
  // 200k tie-heavy runs keep a 16-entry table.
  Xoshiro256 rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 200000; ++i) {
    xs.push_back(static_cast<double>(3000 + 11 * rng.uniform(16)));
  }
  const Eccdf e(xs);
  EXPECT_EQ(e.values().size(), 16u);
  EXPECT_EQ(e.size(), xs.size());
}

}  // namespace
}  // namespace mbcr::mbpta
