#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace json = mbcr::json;

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) failures.push_back(what);
  return ok;
}

void check_study_doc(const json::Value& doc, Checks& checks) {
  const json::Array& paths = doc.at("paths").as_array();
  checks.expect(!paths.empty(), "study: no analyzed path");
  double lowest = std::numeric_limits<double>::infinity();
  for (const json::Value& path : paths) {
    const std::string label = path.at("input").as_string();
    const double r_mbpta = path.at("r_mbpta").as_number();
    const double r_tac = path.at("r_tac").as_number();
    const double r_total = path.at("r_total").as_number();
    checks.expect(r_total == std::max(r_mbpta, r_tac),
                  "study: path " + label + " r_total != max(r_mbpta, r_tac)");
    const json::Value& pwcet = path.at("pwcet");
    const double value = pwcet.at("value").as_number();
    // A null upper bound is an infinite (absent) ceiling.
    const json::Value& bound = pwcet.at("upper_bound");
    checks.expect(std::isfinite(value) &&
                      (bound.is_null() || value <= bound.as_number()),
                  "study: path " + label + " pwcet above its upper bound");
    lowest = std::min(lowest, value);
  }
  const json::Value* combined = doc.find("combined");
  const json::Value& reported_pwcet =
      combined != nullptr ? combined->at("pwcet")
                          : paths.front().at("pwcet").at("value");
  const double reported = reported_pwcet.as_number();
  checks.expect(reported == lowest,
                "study: combined pWCET is not the minimum over paths");
}

void check_sweep(const mbcr::sweep::SweepOutcome& outcome,
                 const mbcr::sweep::MergeOutput& merged, std::size_t shards,
                 std::size_t points, Checks& checks) {
  checks.expect(outcome.quarantined.empty(), "sweep: quarantined shards");
  checks.expect(outcome.interrupted_by == 0, "sweep: interrupted");
  const bool first_try = std::all_of(
      outcome.attempts.begin(), outcome.attempts.end(),
      [](const mbcr::sweep::AttemptRecord& a) { return a.ok(); });
  checks.expect(first_try && outcome.attempts.size() == shards,
                "sweep: a worker attempt failed or was retried");
  checks.expect(!merged.partial && merged.points == points &&
                    merged.points_complete == points,
                "sweep: merge incomplete");
}

void check_same(std::uint64_t digest, std::uint64_t first,
                const std::string& what, Checks& checks) {
  checks.expect(digest == first, what + " differs between repetitions");
}

}  // namespace perfbench
