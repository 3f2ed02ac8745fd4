#include "mbpta/evt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>


namespace mbcr::mbpta {

double ExpTailFit::quantile(double p) const {
  if (p <= 0.0) return std::numeric_limits<double>::infinity();
  if (zeta <= 0.0) return threshold;
  if (p >= zeta) return threshold;  // inside the empirical body
  if (!std::isfinite(rate) || rate <= 0.0) return threshold;
  return threshold + std::log(zeta / p) / rate;
}

double ExpTailFit::exceedance_prob(double t) const {
  if (t <= threshold) return zeta;
  if (!std::isfinite(rate) || rate <= 0.0) return 0.0;
  return zeta * std::exp(-rate * (t - threshold));
}

namespace {

/// The exponential model over the top `n_exc` observations, thresholded at
/// the next one below them; `mean_excess` receives the mean excess. Mean
/// and CV are those `mbcr::mean` and `mbcr::coefficient_of_variation`
/// compute on the ascending excesses, operation for operation: each
/// distinct excess is added `count` times.
ExpTailFit fit_top(const Eccdf& eccdf, std::size_t n_exc,
                   double& mean_excess) {
  const std::size_t n = eccdf.size();
  const double u = eccdf.at_rank(n - n_exc - 1);
  const std::vector<double>& values = eccdf.values();
  const std::vector<std::size_t>& cumulative = eccdf.cumulative();
  // Calls f(excess, count) from the first tail rank n - n_exc upward.
  const auto for_each_excess = [&](auto&& f) {
    std::size_t below = n - n_exc;
    for (auto it = std::upper_bound(cumulative.begin(), cumulative.end(),
                                    below);
         it != cumulative.end(); ++it) {
      const auto i = static_cast<std::size_t>(it - cumulative.begin());
      f(values[i] - u, *it - below);
      below = *it;
    }
  };
  double sum = 0.0;
  for_each_excess([&sum](double x, std::size_t count) {
    for (std::size_t c = 0; c < count; ++c) sum += x;
  });
  const double m = n_exc == 0 ? 0.0 : sum / static_cast<double>(n_exc);
  double cv = 0.0;
  if (m > 0.0 && n_exc >= 2) {
    double acc = 0.0;
    for_each_excess([&acc, m](double x, std::size_t count) {
      const double sq = (x - m) * (x - m);
      for (std::size_t c = 0; c < count; ++c) acc += sq;
    });
    cv = std::sqrt(acc / static_cast<double>(n_exc - 1)) / m;
  }
  mean_excess = m;
  ExpTailFit fit;
  fit.threshold = u;
  fit.n_exceedances = n_exc;
  fit.n_total = n;
  fit.zeta = static_cast<double>(n_exc) / static_cast<double>(n);
  fit.rate = m > 0.0 ? 1.0 / m : std::numeric_limits<double>::infinity();
  fit.cv = cv;
  return fit;
}

}  // namespace

ExpTailFit fit_exponential_tail(std::span<const double> sample,
                                const EvtConfig& config) {
  return fit_exponential_tail(Eccdf(sample), config);
}

ExpTailFit fit_exponential_tail(const Eccdf& eccdf, const EvtConfig& config) {
  ExpTailFit fit;
  fit.n_total = eccdf.size();
  if (eccdf.size() == 0) return fit;

  const auto n = eccdf.size();

  // Candidate thresholds: progressively higher quantiles. Accept the first
  // that (a) has excess CV within the confidence band and (b) is
  // self-consistent: its extrapolation one decade past the sample
  // resolution must dominate the sample maximum — a fit whose own
  // observations already exceed it has its threshold below a tail knee
  // (staircase mixtures from rare cache layouts) and must move up.
  // Remember the best (closest to CV 1) consistent candidate as fallback.
  const double sample_max = eccdf.max();
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
    ExpTailFit cand = fit_top(eccdf, n_exc, m);
    const double band =
        config.cv_band_sigmas / std::sqrt(static_cast<double>(n_exc));
    cand.cv_accepted = std::abs(cand.cv - 1.0) <= band;
    const bool consistent =
        m == 0.0 || cand.quantile(probe_p) >= sample_max;
    const double dist = std::abs(cand.cv - 1.0);
    if (consistent && dist < best_cv_dist) {
      best_cv_dist = dist;
      best = cand;
    }
    if (cand.cv_accepted && consistent) return cand;
    // Raise the threshold: halve the tail fraction.
    const double next = tail_fraction / 2.0;
    if (next < config.min_tail_fraction) break;
    tail_fraction = next;
  }
  // No consistent threshold on the fraction grid: fit the extreme tail
  // (top min_exceedances observations) — conservative by construction on
  // staircase mixtures.
  if (best.n_exceedances == 0 && n > 2 * config.min_exceedances) {
    double m = 0.0;
    best = fit_top(eccdf, config.min_exceedances, m);
  }
  // No threshold passed the CV band (heavily discrete or short tails):
  // use the closest candidate — still an exponential upper-tail model,
  // flagged as not CV-accepted.
  if (best.n_exceedances == 0 && n >= 2) {
    // Sample too small for the loop: fit on the top half.
    double m = 0.0;
    best = fit_top(eccdf, n / 2, m);
  }
  return best;
}

double GumbelFit::quantile(double p) const {
  p = std::clamp(p, 1e-300, 1.0 - 1e-12);
  return mu - beta * std::log(-std::log(1.0 - p));
}

GumbelFit fit_gumbel_block_maxima(std::span<const double> sample,
                                  std::size_t block_size) {
  GumbelFit fit;
  if (sample.empty() || block_size == 0) return fit;
  std::vector<double> maxima;
  for (std::size_t start = 0; start + block_size <= sample.size();
       start += block_size) {
    double m = sample[start];
    for (std::size_t i = start + 1; i < start + block_size; ++i) {
      m = std::max(m, sample[i]);
    }
    maxima.push_back(m);
  }
  if (maxima.size() < 2) return fit;
  fit.blocks = maxima.size();
  // Probability-weighted moments: b0 = mean, b1 = sum((i)/(n-1) x_(i))/n.
  std::sort(maxima.begin(), maxima.end());
  const auto n = static_cast<double>(maxima.size());
  double b0 = 0.0;
  double b1 = 0.0;
  for (std::size_t i = 0; i < maxima.size(); ++i) {
    b0 += maxima[i];
    b1 += maxima[i] * static_cast<double>(i) / (n - 1.0);
  }
  b0 /= n;
  b1 /= n;
  constexpr double kEulerGamma = 0.57721566490153286;
  fit.beta = (2.0 * b1 - b0) / std::log(2.0);
  fit.mu = b0 - kEulerGamma * fit.beta;
  return fit;
}

}  // namespace mbcr::mbpta
