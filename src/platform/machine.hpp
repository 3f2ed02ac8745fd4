// The modeled execution platform (paper Sec. 4): pipelined in-order core,
// separate 4KB 2-way 32B/line IL1 and DL1 with random placement and random
// replacement, caches flushed before each run — optionally backed by a
// shared unified L2 (random or deterministic LRU, cache/hierarchy.hpp).
//
// `Machine::run_once` replays a compact trace under a fresh per-run
// placement (derived from the run seed) and returns the cycle count. The
// placement hash is evaluated once per unique line per run — per level:
// the L2's placement is hashed once per unique *unified* line; accesses
// then replay through flat tag arrays, and an L1 miss probes the L2 by
// dense unified id. Replay walks only the trace's folded view
// (`CompactTrace::replay`) and charges the folded sure hits' base cycles
// as one per-trace constant.
//
// `Machine::run_batch` is the measurement campaigns' hot path: it replays
// a whole batch of runs trace-major (one pass over the entries, all runs'
// cache state held side by side), bit-identical to per-seed `run_once`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/hierarchy.hpp"
#include "cpu/pipeline.hpp"
#include "cpu/trace.hpp"
#include "util/rng.hpp"

namespace mbcr::platform {

/// Reusable per-thread scratch for `Machine::run_once`/`run_batch`: tag
/// arrays and per-line set maps for both L1 sides plus the unified L2. A
/// campaign worker allocates one workspace and replays hundreds of
/// thousands of runs through it, instead of paying vector allocations per
/// run. Contents are fully re-initialized by every run (or batch), so
/// reuse never leaks state between runs (or between machines/traces of
/// different geometry — buffers just grow). The L2 buffers stay empty
/// while the hierarchy is disabled.
///
/// Batched (trace-major) replay holds the whole batch's cache state here
/// as structure-of-arrays: per side, one run-contiguous tag block of
/// `sets*ways` words per run, and a set map indexed `[line_id * B + b]`
/// so the per-entry loop over the batch reads one contiguous row. The
/// per-run replacement RNG states live here too.
struct RunWorkspace {
  std::vector<std::uint32_t> il1_tags, il1_set_of;
  std::vector<std::uint32_t> dl1_tags, dl1_set_of;
  std::vector<std::uint32_t> l2_tags, l2_set_of;
  /// Per-run replacement RNGs of a batch (unused by single-run replay).
  std::vector<Xoshiro256> il1_rng, dl1_rng, l2_rng;
  /// Per-run placement seeds of a batch (scratch for the set-map fill).
  std::vector<std::uint64_t> placement_seed;
  /// Caller-side scratch for the campaign engine's batching loop (derived
  /// seeds and cycle outputs). NOT touched by `run_batch` itself — that is
  /// a contract: callers pass `ws.seeds`/`ws.cycles` as the seeds span and
  /// output buffer of a `run_batch` call on the same workspace.
  std::vector<std::uint64_t> cycles, seeds;
};

struct MachineConfig {
  CacheConfig il1 = CacheConfig::paper_l1();
  CacheConfig dl1 = CacheConfig::paper_l1();
  /// Optional shared L2 behind both L1 sides (disabled by default, which
  /// reproduces the paper's single-level platform bit for bit).
  HierarchyConfig l2;
  TimingParams timing;
};

class Machine {
public:
  explicit Machine(const MachineConfig& config = {});

  /// One measurement run: fresh random placement + replacement derived
  /// from `run_seed`, cold caches, full trace replay. Returns cycles.
  /// Convenience overload over a per-thread reusable workspace.
  std::uint64_t run_once(const CompactTrace& trace,
                         std::uint64_t run_seed) const;

  /// Same run, same result, but all scratch state lives in `ws`.
  /// Bit-identical to the convenience overload, and the B=1 oracle for
  /// `run_batch`.
  std::uint64_t run_once(const CompactTrace& trace, std::uint64_t run_seed,
                         RunWorkspace& ws) const;

  /// Trace-major batched replay: executes `seeds.size()` independent runs
  /// in ONE pass over the trace entries, writing run i's cycle count to
  /// `out[i]` (which must hold `seeds.size()` values). Each run's cache
  /// state lives batch-wide in `ws` (structure-of-arrays), so a trace
  /// entry is loaded once per batch instead of once per run and the
  /// per-entry batch loop exposes B independent probe chains to the
  /// superscalar core. Output is bit-identical to calling `run_once` per
  /// seed — the campaign engine's hot path; `run_once` stays the oracle.
  /// `seeds`/`out` may alias `ws.seeds`/`ws.cycles.data()`: run_batch
  /// uses only the workspace's tag/set-map/RNG/placement buffers.
  void run_batch(const CompactTrace& trace,
                 std::span<const std::uint64_t> seeds, RunWorkspace& ws,
                 std::uint64_t* out) const;

  /// Reference implementation via the generic RandomCache/LruCache models
  /// (slow but obviously correct); used by tests to validate the fast
  /// replay, including every two-level configuration.
  std::uint64_t run_once_reference(const MemTrace& trace,
                                   std::uint64_t run_seed) const;

  const MachineConfig& config() const { return config_; }

private:
  MachineConfig config_;
};

}  // namespace mbcr::platform
