// Independence and identical-distribution checks that MBPTA requires of
// its input measurements (paper Sec. 2: EVT "must meet certain statistical
// properties (e.g. independence and identical distribution)").
#pragma once

#include <span>
#include <string>

#include "mbpta/eccdf.hpp"

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

/// Same checks, given `eccdf`, the count table of `sample` the caller
/// already holds (PwcetCurve's): the runs test takes its median from it,
/// and the split KS test counts only the first half and takes the second
/// as the table minus the first.
IidReport check_iid(std::span<const double> sample, const Eccdf& eccdf,
                    double alpha = 0.01);

}  // namespace mbcr::mbpta
