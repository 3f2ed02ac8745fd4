// Empirical complementary cumulative distribution function (the curves of
// the paper's Fig. 2 and the "ground truth" dashed line of Fig. 4).
//
// The one sample type from campaign to EVT: the ascending distinct values
// of a sample with their cumulative counts. Cycle counts are integers with
// few distinct values (a 2M-run pubbed bs path has 16), so the table is
// O(distinct) where a sorted copy was O(runs). It is built by counting —
// a hash table keyed on the value bits, then one sort of the distinct
// keys — and every rank query (quantiles, the tail fit, the runs-test
// median, the split KS test) reads the cumulative counts. The run-order
// sample stays the campaign sink: the i.i.d. tests need run order.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace mbcr::mbpta {

class Eccdf {
public:
  Eccdf() = default;

  /// Counts `sample` in O(n) expected time and O(distinct) memory. -0.0
  /// counts as 0.0; the sample must not contain NaN.
  explicit Eccdf(std::span<const double> sample);

  /// Folds `more` observations into the table (the convergence driver's
  /// per-delta update): equal to counting the concatenated sample at once.
  void add(std::span<const double> more);

  /// The table of this sample with `part`'s observations taken out (the
  /// second half of the split KS test). Throws std::invalid_argument when
  /// `part` is not a sub-multiset of this sample.
  Eccdf minus(const Eccdf& part) const;

  /// P(X > t) in the sample.
  double exceedance_prob(double t) const;

  /// Smallest observed value v with P(X > v) <= p (empirical quantile of
  /// the upper tail); returns the max observation for p below 1/n and 0
  /// for an empty sample.
  double value_at_exceedance(double p) const;

  /// The `rank`-th smallest observation (0-based; rank < size()).
  double at_rank(std::size_t rank) const;

  /// Quantile by linear interpolation between order statistics (type-7,
  /// as `mbcr::quantile`); 0 for an empty sample.
  double quantile(double q) const;

  double min() const { return values_.empty() ? 0.0 : values_.front(); }
  double max() const { return values_.empty() ? 0.0 : values_.back(); }
  std::size_t size() const { return cumulative_.empty() ? 0 : cumulative_.back(); }

  /// Ascending distinct values, and for each the number of observations
  /// at or below it.
  const std::vector<double>& values() const { return values_; }
  const std::vector<std::size_t>& cumulative() const { return cumulative_; }

  /// (value, exceedance probability) curve, thinned to at most
  /// `max_points` points for plotting/CSV export.
  std::vector<std::pair<double, double>> curve(
      std::size_t max_points = 512) const;

private:
  /// Index of the distinct value holding rank `rank`.
  std::size_t index_of_rank(std::size_t rank) const;

  std::vector<double> values_;
  std::vector<std::size_t> cumulative_;
};

/// Two-sample Kolmogorov-Smirnov statistic sup|F1 - F2|, evaluated at the
/// distinct values of both tables — bit-identical to `mbcr::ks_statistic`
/// on the samples the tables count.
double ks_statistic(const Eccdf& a, const Eccdf& b);

}  // namespace mbcr::mbpta
