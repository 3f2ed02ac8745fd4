// Measurement campaigns: R independent runs of a trace on the randomized
// platform.
//
// Determinism contract: run i always uses seed mix64(i, master_seed), so a
// campaign's sample is a pure function of (trace, machine, master_seed,
// first_run, runs) — independent of thread count and scheduling. This is
// what lets the convergence driver extend a campaign incrementally and
// lets every bench be reproduced exactly.
//
// Campaigns execute on the process-wide persistent ThreadPool
// (util/pool.hpp) and write directly into caller-owned memory
// (`run_campaign_into`), so a convergence iteration costs zero thread
// spawns and zero sample copies. The reference every engine configuration
// must reproduce is `run_campaign_reference`, a plain per-seed
// `Machine::run_once` loop.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/machine.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"

namespace mbcr::platform {

struct CampaignConfig {
  std::uint64_t master_seed = 42;
  /// Concurrency bound: cap on concurrent chunk claimants including the
  /// caller (0 = the whole pool), so `threads = 1` keeps a campaign on the
  /// calling thread — e.g. to leave cores free on a shared host.
  unsigned threads = 0;
  /// Runs per pool chunk. Small enough to load-balance across workers,
  /// large enough that a chunk claim (a few atomics) is noise.
  std::size_t grain = 64;
  /// Runs replayed per `Machine::run_batch` call inside a claimed chunk
  /// (trace-major batching). Any width produces the identical sample —
  /// per-run seeding makes runs independent — so this is a pure
  /// throughput knob. `<= 1` disables batching (per-run `run_once`).
  /// A batch never crosses a chunk claim, so the effective width is also
  /// capped by `grain` — raise both to batch wider than one chunk.
  ///
  /// End to end on folded traces (`mbcr`, 4-core x86-64, GCC 12 Release,
  /// wall s, 3 alternating pairs), 32 vs 1: the single-level crc study
  /// (`analyze --suite crc`) 3.30-3.45 vs 6.12-6.46; a 100k-run matmult
  /// `measure` 0.97-1.08 vs 1.23-1.40; a 400k-run crc `measure` behind a
  /// 256-set L2 0.51-0.60 vs 0.56-0.65 (random) and 0.57-0.65 vs
  /// 0.60-0.64 (LRU). Tiny traces are batch-setup-bound: before folding,
  /// `multipath_bs` took 6.20 s with per-run replay vs 8.18 s with width-1
  /// `run_batch`, so the engine replays per run below
  /// `kBatchMinTraceEntries` replayed entries. Larger widths stop paying
  /// once the batch state outgrows L1d.
  std::size_t batch = 32;
};

/// Traces whose folded replay view (`CompactTrace::replay`) is shorter
/// than this replay per-run regardless of `CampaignConfig::batch`: per-run
/// placement/RNG setup dominates tiny traces and batching only adds state.
/// The folded length is what a run actually walks, so it is what the
/// setup cost is amortized over. (Sample-invariant either way.)
inline constexpr std::size_t kBatchMinTraceEntries = 1024;

/// Streaming sink: executes runs
/// [first_run, first_run + runs) on `pool` and writes each run's execution
/// time to out[i - first_run]. `out` must hold `runs` doubles. The caller
/// owns the buffer — no allocation, no copy. `pool = nullptr` uses the
/// process-wide shared pool.
void run_campaign_into(const Machine& machine, const CompactTrace& trace,
                       std::size_t runs, double* out,
                       const CampaignConfig& config = {},
                       std::size_t first_run = 0, ThreadPool* pool = nullptr);

/// Executes runs [first_run, first_run + runs) and returns their execution
/// times in run order. Convenience wrapper over `run_campaign_into`.
std::vector<double> run_campaign(const Machine& machine,
                                 const CompactTrace& trace, std::size_t runs,
                                 const CampaignConfig& config = {},
                                 std::size_t first_run = 0);

/// The reference sample: runs [first_run, first_run + runs) as a plain
/// serial loop of `Machine::run_once(trace, mix64(i, master_seed))`. Every
/// engine configuration (thread count, pool, grain, batch width) must
/// reproduce it byte for byte; tests and bench guards compare against it.
inline std::vector<double> run_campaign_reference(const Machine& machine,
                                                  const CompactTrace& trace,
                                                  std::size_t runs,
                                                  std::uint64_t master_seed,
                                                  std::size_t first_run = 0) {
  std::vector<double> times(runs);
  for (std::size_t i = 0; i < runs; ++i) {
    times[i] = static_cast<double>(
        machine.run_once(trace, mix64(first_run + i, master_seed)));
  }
  return times;
}

/// Stateful incremental sampler over the same deterministic run sequence;
/// adapts a campaign to mbpta::converge_stream().
class CampaignSampler {
public:
  CampaignSampler(const Machine& machine, const CompactTrace& trace,
                  const CampaignConfig& config = {});

  /// Streaming sink: appends the next `count` execution times directly
  /// onto `sample` (runs are numbered consecutively across calls). One
  /// buffer growth, no intermediate chunk vector.
  void append_to(std::vector<double>& sample, std::size_t count);

  std::size_t runs_done() const { return next_run_; }

private:
  const Machine& machine_;
  const CompactTrace& trace_;
  CampaignConfig config_;
  std::size_t next_run_ = 0;
};

}  // namespace mbcr::platform
