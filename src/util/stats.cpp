#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mbcr {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double coefficient_of_variation(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return stddev(xs) / m;
}

std::vector<double> sorted_copy(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  std::sort(out.begin(), out.end());
  return out;
}

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> xs, double q) {
  const std::vector<double> sorted = sorted_copy(xs);
  return quantile_sorted(sorted, q);
}

double ks_statistic(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return 0.0;
  const std::vector<double> sa = sorted_copy(a);
  const std::vector<double> sb = sorted_copy(b);
  std::size_t ia = 0;
  std::size_t ib = 0;
  double d = 0.0;
  while (ia < sa.size() && ib < sb.size()) {
    const double x = std::min(sa[ia], sb[ib]);
    while (ia < sa.size() && sa[ia] <= x) ++ia;
    while (ib < sb.size() && sb[ib] <= x) ++ib;
    const double fa = static_cast<double>(ia) / static_cast<double>(sa.size());
    const double fb = static_cast<double>(ib) / static_cast<double>(sb.size());
    d = std::max(d, std::abs(fa - fb));
  }
  return d;
}

namespace {

// Kolmogorov distribution complementary CDF via its alternating series.
double kolmogorov_sf(double t) {
  if (t <= 0.0) return 1.0;
  double sum = 0.0;
  for (int k = 1; k <= 100; ++k) {
    const double term =
        std::exp(-2.0 * k * k * t * t) * ((k % 2 == 1) ? 1.0 : -1.0);
    sum += term;
    if (std::abs(term) < 1e-12) break;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

}  // namespace

double ks_pvalue(double d, std::size_t na, std::size_t nb) {
  const double ne = static_cast<double>(na) * static_cast<double>(nb) /
                    static_cast<double>(na + nb);
  const double t = (std::sqrt(ne) + 0.12 + 0.11 / std::sqrt(ne)) * d;
  return kolmogorov_sf(t);
}

double ks_pvalue(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return 1.0;
  return ks_pvalue(ks_statistic(a, b), a.size(), b.size());
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double runs_test_pvalue(std::span<const double> xs) {
  return runs_test_pvalue(xs, quantile(xs, 0.5));
}

double runs_test_pvalue(std::span<const double> xs, double median) {
  if (xs.size() < 20) return 1.0;  // too small to dichotomize meaningfully
  // Values exactly at the median are dropped (standard treatment of ties);
  // the rest are signs above or below it, and a run ends wherever
  // consecutive signs differ. Branch-free: the signs are random.
  std::size_t kept = 0;
  std::size_t above = 0;
  std::size_t changes = 0;
  bool last_above = false;
  for (double x : xs) {
    const bool up = x > median;
    const bool keep = up | (x < median);
    changes += static_cast<std::size_t>(keep & (kept != 0) & (up != last_above));
    above += static_cast<std::size_t>(up);
    kept += static_cast<std::size_t>(keep);
    last_above = keep ? up : last_above;
  }
  const auto n = static_cast<double>(kept);
  if (n < 20) return 1.0;
  const auto n1 = static_cast<double>(above);
  const double n0 = n - n1;
  if (n0 == 0.0 || n1 == 0.0) return 1.0;
  const double runs = 1.0 + static_cast<double>(changes);
  const double mu = 2.0 * n0 * n1 / n + 1.0;
  const double var = 2.0 * n0 * n1 * (2.0 * n0 * n1 - n) / (n * n * (n - 1.0));
  if (var <= 0.0) return 1.0;
  const double z = (runs - mu) / std::sqrt(var);
  return 2.0 * (1.0 - normal_cdf(std::abs(z)));
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  if (xs.size() <= lag || lag == 0) return 0.0;
  const double m = mean(xs);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    den += (xs[i] - m) * (xs[i] - m);
    if (i + lag < xs.size()) num += (xs[i] - m) * (xs[i + lag] - m);
  }
  if (den == 0.0) return 0.0;
  return num / den;
}

namespace {

// std::lgamma writes the process-global `signgam`, which is a data race
// when pool workers compute p-values concurrently; the _r variant returns
// the sign through an out-parameter instead.
double lgamma_threadsafe(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

double lower_incomplete_gamma_reg(double s, double x) {
  // Regularized lower incomplete gamma P(s, x) via series (x < s+1) or
  // continued fraction (otherwise). Accuracy sufficient for p-values.
  if (x <= 0.0) return 0.0;
  const double lg = lgamma_threadsafe(s);
  if (x < s + 1.0) {
    double sum = 1.0 / s;
    double term = sum;
    for (int n = 1; n < 500; ++n) {
      term *= x / (s + n);
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-14) break;
    }
    return sum * std::exp(-x + s * std::log(x) - lg);
  }
  // Lentz's continued fraction for Q(s, x).
  double b = x + 1.0 - s;
  double c = 1e300;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -i * (i - s);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < 1e-300) d = 1e-300;
    c = b + an / c;
    if (std::abs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-14) break;
  }
  const double q = std::exp(-x + s * std::log(x) - lg) * h;
  return 1.0 - q;
}

}  // namespace

double chi2_sf(double x, std::size_t k) {
  if (x <= 0.0) return 1.0;
  return 1.0 - lower_incomplete_gamma_reg(static_cast<double>(k) / 2.0,
                                          x / 2.0);
}

double ljung_box_pvalue(std::span<const double> xs, std::size_t lags) {
  const auto n = static_cast<double>(xs.size());
  if (xs.size() < 3 * lags || lags == 0) return 1.0;
  const double m = mean(xs);
  // sums[0] is the denominator, sums[h] the lag-h numerator: each rho is
  // bit-identical to autocorrelation(xs, h), in one pass after the mean.
  std::vector<double> sums(lags + 1, 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sums[0] += (xs[i] - m) * (xs[i] - m);
    for (std::size_t h = 1; h <= lags && i + h < xs.size(); ++h) {
      sums[h] += (xs[i] - m) * (xs[i + h] - m);
    }
  }
  double q = 0.0;
  for (std::size_t h = 1; h <= lags; ++h) {
    const double rho = sums[0] == 0.0 ? 0.0 : sums[h] / sums[0];
    q += rho * rho / (n - static_cast<double>(h));
  }
  q *= n * (n + 2.0);
  return chi2_sf(q, lags);
}

std::size_t count_exceedances(std::span<const double> xs, double threshold) {
  std::size_t c = 0;
  for (double x : xs) {
    if (x > threshold) ++c;
  }
  return c;
}

}  // namespace mbcr
