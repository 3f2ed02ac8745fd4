// The benchmark's workloads. Each drives one of the library's public entry
// points the way a user runs it — core::run_study, sweep::run_sweep, the
// fuzzer's make_case and probe_case — and can replay the same calls
// through the layers' public functions under spans for the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "checks.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string mbcr;       ///< the built `mbcr` CLI: the sweep's worker binary
  std::string work;       ///< scratch directory (sweep journals)
  std::string trace_out;  ///< Chrome-trace file of the traced run ("" = none)
};

/// What one operation produced, beyond its wall time.
struct OpSummary {
  double runs = 0;   ///< platform runs executed
  double cases = 0;  ///< units analyzed: paths, sweep points, fuzz cases
};

/// Exact simulated statistics of a run: a pure function of the seed.
struct SimStats {
  mbcr::json::Value detail;  ///< per path / point / campaign
  std::map<std::string, double> totals;  ///< the traced run's `sim.*`
};

/// What the traced replay learned beyond its spans.
struct TraceOutcome {
  bool matches = false;  ///< the replay reproduced the untraced result
  std::map<std::string, double> counts;  ///< per-layer counts by metric
};

class Workload {
public:
  virtual ~Workload() = default;

  /// One set-up as a run of the workload pays it; returns its seconds.
  virtual double setup() = 0;
  /// One operation; the caller times it.
  virtual void execute() = 0;
  /// Checks the last operation's outputs, including that a repeated
  /// operation emitted the same result, and summarizes it (untimed).
  virtual OpSummary summarize(Checks& checks) = 0;
  /// Hands tampered copies of the last outputs to the checks: every check
  /// must fire, or the self-test itself counts as a failed check.
  virtual void self_test(Checks& checks) = 0;
  virtual SimStats sim() const = 0;
  /// Replays the last operation's calls through the layers' public
  /// functions under spans (see spans.hpp).
  virtual TraceOutcome traced(Checks& checks) = 0;
};

/// Throws std::invalid_argument on an unknown workload name.
std::unique_ptr<Workload> make_workload(const Options& options);

}  // namespace perfbench
