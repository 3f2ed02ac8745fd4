#include "mbpta/pwcet.hpp"

#include <algorithm>
#include <cmath>

namespace mbcr::mbpta {

PwcetCurve::PwcetCurve(std::span<const double> sample,
                       const EvtConfig& config)
    // One count per fit: the tail fit and the i.i.d. tests read the
    // ECCDF's table (eccdf_ is declared, so built, first).
    : eccdf_(sample),
      tail_(fit_exponential_tail(eccdf_, config)),
      iid_(check_iid(sample, eccdf_)) {}

namespace {

/// Within the resolution of the sample the empirical quantile is used;
/// past it, the fitted exponential tail extrapolates. The blend is the
/// max of both so the model never undercuts an actual observation —
/// shared by PwcetCurve::at and the convergence driver's probe.
double empirical_tail_blend(double empirical, const ExpTailFit& tail,
                            double p) {
  if (p >= tail.zeta) return empirical;
  return std::max(empirical, tail.quantile(p));
}

}  // namespace

double pwcet_probe(const Eccdf& eccdf, double p, const EvtConfig& config) {
  if (eccdf.size() == 0) return 0.0;
  return empirical_tail_blend(eccdf.value_at_exceedance(p),
                              fit_exponential_tail(eccdf, config), p);
}

double PwcetCurve::at(double p) const {
  if (eccdf_.size() == 0) return 0.0;
  return std::min(
      empirical_tail_blend(eccdf_.value_at_exceedance(p), tail_, p),
      upper_bound_);
}

std::vector<PwcetCurve::CurvePoint> PwcetCurve::grid(int max_exp) const {
  std::vector<CurvePoint> out;
  for (int e = 1; e <= max_exp; ++e) {
    for (double mantissa : {1.0, 0.5, 0.2}) {
      const double p = mantissa * std::pow(10.0, -e);
      out.push_back({p, at(p), p < tail_.zeta});
    }
  }
  return out;
}

std::vector<std::pair<double, double>> PwcetCurve::curve(int max_exp) const {
  std::vector<std::pair<double, double>> out;
  for (const CurvePoint& point : grid(max_exp)) {
    out.emplace_back(point.probability, point.pwcet);
  }
  return out;
}

}  // namespace mbcr::mbpta
