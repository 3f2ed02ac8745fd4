// Descriptive statistics and hypothesis tests used throughout MBPTA.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mbcr {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  ///< unbiased (n-1) estimator
double stddev(std::span<const double> xs);

/// Coefficient of variation: stddev/mean. Undefined (returns 0) for
/// zero-mean samples.
double coefficient_of_variation(std::span<const double> xs);

/// Quantile by linear interpolation on the sorted copy of `xs`
/// (type-7 estimator, the R/NumPy default). `q` in [0,1].
double quantile(std::span<const double> xs, double q);

/// Quantile assuming `sorted` is already ascending (no copy).
double quantile_sorted(std::span<const double> sorted, double q);

/// Two-sample Kolmogorov-Smirnov statistic sup|F1 - F2|.
double ks_statistic(std::span<const double> a, std::span<const double> b);

/// Asymptotic p-value for the two-sample KS test.
double ks_pvalue(std::span<const double> a, std::span<const double> b);

/// Asymptotic p-value of a two-sample KS statistic `d` for sample sizes
/// `na` and `nb` (both nonzero).
double ks_pvalue(double d, std::size_t na, std::size_t nb);

/// Wald-Wolfowitz runs test for randomness (independence) of a sequence,
/// dichotomized around its median. Returns the two-sided p-value under the
/// normal approximation; values very close to 0 indicate serial dependence.
double runs_test_pvalue(std::span<const double> xs);

/// Same test around a `median` the caller already holds (PwcetCurve's
/// count table): one streaming pass, no copy.
double runs_test_pvalue(std::span<const double> xs, double median);

/// Ljung-Box portmanteau test p-value on the first `lags` autocorrelations:
/// two passes over `xs` whatever `lags` is, each autocorrelation summed in
/// the order `autocorrelation` sums it.
double ljung_box_pvalue(std::span<const double> xs, std::size_t lags);

/// Standard normal CDF.
double normal_cdf(double z);

/// Chi-square upper-tail probability P(X >= x) with `k` degrees of freedom.
double chi2_sf(double x, std::size_t k);

/// Sample autocorrelation at the given lag.
double autocorrelation(std::span<const double> xs, std::size_t lag);

/// Exceedance counts above a threshold.
std::size_t count_exceedances(std::span<const double> xs, double threshold);

/// Returns xs sorted ascending (by value).
std::vector<double> sorted_copy(std::span<const double> xs);

}  // namespace mbcr
