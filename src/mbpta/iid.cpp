#include "mbpta/iid.hpp"

#include <sstream>

#include "util/stats.hpp"

namespace mbcr::mbpta {

std::string IidReport::summary() const {
  std::ostringstream ss;
  ss << "runs-test p=" << runs_test_p << ", ljung-box p=" << ljung_box_p
     << ", split-KS p=" << ks_split_p << " => "
     << (passed() ? "i.i.d. plausible" : "i.i.d. REJECTED");
  return ss.str();
}

IidReport check_iid(std::span<const double> sample, double alpha) {
  return check_iid(sample, sorted_copy(sample), alpha);
}

IidReport check_iid(std::span<const double> sample,
                    std::span<const double> sorted, double alpha) {
  IidReport report;
  if (sample.size() < 40) {
    // Too small to reject anything; treat as passing (MBPTA requires far
    // larger samples anyway).
    report.independent = true;
    report.identically_distributed = true;
    return report;
  }
  report.runs_test_p = runs_test_pvalue(sample, sorted);
  report.ljung_box_p = ljung_box_pvalue(sample, 10);
  const std::size_t half = sample.size() / 2;
  report.ks_split_p = ks_split_pvalue(sample, sorted, half);
  report.independent =
      report.runs_test_p > alpha && report.ljung_box_p > alpha;
  report.identically_distributed = report.ks_split_p > alpha;
  return report;
}

}  // namespace mbcr::mbpta
