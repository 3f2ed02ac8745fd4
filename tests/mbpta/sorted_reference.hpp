// Naive sorted-vector reference for the count-table statistics: each
// function sorts (or scans) a plain copy of the sample the way the
// estimators did before they read mbpta::Eccdf's cumulative counts. The
// count-table tests pin the production code bit-equal to these.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "mbpta/evt.hpp"
#include "util/stats.hpp"

namespace mbcr::mbpta::reference {

inline double value_at_exceedance(const std::vector<double>& sorted,
                                  double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::max(0.0, n * (1.0 - p)));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

inline double exceedance_prob(const std::vector<double>& sorted, double t) {
  if (sorted.empty()) return 0.0;
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), t);
  return static_cast<double>(sorted.end() - it) /
         static_cast<double>(sorted.size());
}

inline std::vector<std::pair<double, double>> curve(
    const std::vector<double>& sorted, std::size_t max_points) {
  std::vector<std::pair<double, double>> out;
  if (sorted.empty() || max_points == 0) return out;
  const std::size_t stride =
      std::max<std::size_t>(1, sorted.size() / max_points);
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); i += stride) {
    out.emplace_back(sorted[i], (n - static_cast<double>(i) - 1.0) / n);
  }
  if (out.empty() || out.back().first != sorted.back()) {
    out.emplace_back(sorted.back(), 0.0);
  }
  return out;
}

/// The CV tail fit on a sorted copy, each candidate's excesses gathered
/// into a vector and handed to mbcr::mean / coefficient_of_variation.
inline ExpTailFit fit_exponential_tail(const std::vector<double>& sorted,
                                       const EvtConfig& config = {}) {
  ExpTailFit fit;
  fit.n_total = sorted.size();
  if (sorted.empty()) return fit;
  const auto n = sorted.size();
  const auto top = [&](std::size_t n_exc, double& m) {
    const double u = sorted[n - n_exc - 1];
    std::vector<double> excess;
    for (std::size_t i = n - n_exc; i < n; ++i) {
      excess.push_back(sorted[i] - u);
    }
    m = mean(excess);
    ExpTailFit cand;
    cand.threshold = u;
    cand.n_exceedances = excess.size();
    cand.n_total = n;
    cand.zeta = static_cast<double>(excess.size()) / static_cast<double>(n);
    cand.rate = m > 0.0 ? 1.0 / m : std::numeric_limits<double>::infinity();
    cand.cv = m > 0.0 ? coefficient_of_variation(excess) : 0.0;
    return cand;
  };
  const double sample_max = sorted.back();
  const double probe_p = 0.1 / static_cast<double>(n);
  double tail_fraction = config.initial_tail_fraction;
  ExpTailFit best;
  double best_cv_dist = std::numeric_limits<double>::infinity();
  while (true) {
    const auto n_exc = std::max<std::size_t>(
        config.min_exceedances,
        static_cast<std::size_t>(static_cast<double>(n) * tail_fraction));
    if (n_exc >= n || n_exc < config.min_exceedances) break;
    double m = 0.0;
    ExpTailFit cand = top(n_exc, m);
    const double band = config.cv_band_sigmas /
                        std::sqrt(static_cast<double>(cand.n_exceedances));
    cand.cv_accepted = std::abs(cand.cv - 1.0) <= band;
    const bool consistent = m == 0.0 || cand.quantile(probe_p) >= sample_max;
    const double dist = std::abs(cand.cv - 1.0);
    if (consistent && dist < best_cv_dist) {
      best_cv_dist = dist;
      best = cand;
    }
    if (cand.cv_accepted && consistent) return cand;
    const double next = tail_fraction / 2.0;
    if (next < config.min_tail_fraction) break;
    tail_fraction = next;
  }
  double m = 0.0;
  if (best.n_exceedances == 0 && n > 2 * config.min_exceedances) {
    best = top(config.min_exceedances, m);
  }
  if (best.n_exceedances == 0 && n >= 2) best = top(n / 2, m);
  return best;
}

/// The Wald-Wolfowitz runs test as it was written with a sign vector.
inline double runs_test_pvalue(std::span<const double> xs, double med) {
  if (xs.size() < 20) return 1.0;
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

/// The Ljung-Box p-value with one autocorrelation() pass pair per lag.
inline double ljung_box_pvalue(std::span<const double> xs, std::size_t lags) {
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

}  // namespace mbcr::mbpta::reference
