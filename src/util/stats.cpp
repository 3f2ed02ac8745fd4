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

/// Asymptotic KS p-value of statistic `d` for sample sizes `na`, `nb`.
double ks_pvalue_of(double d, std::size_t na, std::size_t nb) {
  const double ne = static_cast<double>(na) * static_cast<double>(nb) /
                    static_cast<double>(na + nb);
  const double t = (std::sqrt(ne) + 0.12 + 0.11 / std::sqrt(ne)) * d;
  return kolmogorov_sf(t);
}

}  // namespace

double ks_pvalue(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return 1.0;
  return ks_pvalue_of(ks_statistic(a, b), a.size(), b.size());
}

double ks_split_pvalue(std::span<const double> xs,
                       std::span<const double> sorted, std::size_t split) {
  const std::size_t n = sorted.size();
  if (split == 0 || split >= n) return 1.0;
  const std::vector<double> sa = sorted_copy(xs.first(split));
  const std::size_t nb = n - split;
  // ks_statistic's merge walk, with the second part read out of `sorted`:
  // each step consumes every value <= x from both parts, so sorted[is] is
  // the smaller of the two parts' next values, and the second part has
  // consumed is - ia of its own.
  std::size_t is = 0;
  std::size_t ia = 0;
  double d = 0.0;
  while (ia < split && is - ia < nb) {
    const double x = sorted[is];
    while (is < n && sorted[is] <= x) ++is;
    while (ia < split && sa[ia] <= x) ++ia;
    const double fa = static_cast<double>(ia) / static_cast<double>(split);
    const double fb = static_cast<double>(is - ia) / static_cast<double>(nb);
    d = std::max(d, std::abs(fa - fb));
  }
  return ks_pvalue_of(d, split, nb);
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double runs_test_pvalue(std::span<const double> xs) {
  return runs_test_pvalue(xs, sorted_copy(xs));
}

double runs_test_pvalue(std::span<const double> xs,
                        std::span<const double> sorted) {
  if (xs.size() < 20) return 1.0;  // too small to dichotomize meaningfully
  const double med = quantile_sorted(sorted, 0.5);
  // Drop values exactly at the median (standard treatment of ties).
  std::vector<int> signs;
  signs.reserve(xs.size());
  for (double x : xs) {
    if (x > med) {
      signs.push_back(1);
    } else if (x < med) {
      signs.push_back(0);
    }
  }
  const auto n = static_cast<double>(signs.size());
  if (n < 20) return 1.0;
  double n1 = 0.0;
  for (int s : signs) n1 += s;
  const double n0 = n - n1;
  if (n0 == 0.0 || n1 == 0.0) return 1.0;
  double runs = 1.0;
  for (std::size_t i = 1; i < signs.size(); ++i) {
    if (signs[i] != signs[i - 1]) runs += 1.0;
  }
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
  double q = 0.0;
  for (std::size_t h = 1; h <= lags; ++h) {
    const double rho = autocorrelation(xs, h);
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
