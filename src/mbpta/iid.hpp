// Independence and identical-distribution checks that MBPTA requires of
// its input measurements (paper Sec. 2: EVT "must meet certain statistical
// properties (e.g. independence and identical distribution)").
#pragma once

#include <span>
#include <string>

namespace mbcr::mbpta {

struct IidReport {
  double runs_test_p = 1.0;        ///< Wald-Wolfowitz (independence)
  double ljung_box_p = 1.0;        ///< autocorrelation portmanteau
  double ks_split_p = 1.0;         ///< first-half vs second-half KS (i.d.)
  bool independent = false;
  bool identically_distributed = false;

  bool passed() const { return independent && identically_distributed; }
  std::string summary() const;
};

/// Runs all tests at significance `alpha` (tests must NOT reject).
IidReport check_iid(std::span<const double> sample, double alpha = 0.01);

/// Same checks, given `sorted`, an ascending copy of `sample` the caller
/// already holds (PwcetCurve's ECCDF): the runs test takes its median from
/// it, and the split KS test sorts only the first half and reads the
/// second out of it, instead of sorting fresh copies of both.
IidReport check_iid(std::span<const double> sample,
                    std::span<const double> sorted, double alpha = 0.01);

}  // namespace mbcr::mbpta
