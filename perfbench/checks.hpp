// Output checks of the benchmark. Every check counts as one attempted
// operation; a failed one also counts as failed, so the benchmark's
// `failed / attempted` is the share of outputs that broke a contract.
//
// The checks take the documents and reports the library emits, so the
// self-test can hand them deliberately tampered copies and confirm that
// each one fires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sweep/merge.hpp"
#include "sweep/supervisor.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Checks {
  std::size_t attempted = 0;
  std::vector<std::string> failures;

  /// Counts one check; records `what` when it failed. Returns `ok`.
  bool expect(bool ok, const std::string& what);
  bool clean() const { return failures.empty(); }
};

/// A study result document (`StudyResult::to_json`): on every path
/// r_total == max(r_mbpta, r_tac) and pwcet <= upper_bound; the
/// Corollary-2 combined pWCET (the sole path's when there is one) equals
/// the minimum over the paths.
void check_study_doc(const mbcr::json::Value& doc, Checks& checks);

/// A finished sweep: every shard verified on its first attempt (no retry,
/// no quarantine, no interruption) and the merge complete over `points`.
void check_sweep(const mbcr::sweep::SweepOutcome& outcome,
                 const mbcr::sweep::MergeOutput& merged, std::size_t shards,
                 std::size_t points, Checks& checks);

/// Repetitions of one operation must emit identical results.
void check_same(std::uint64_t digest, std::uint64_t first,
                const std::string& what, Checks& checks);

}  // namespace perfbench
