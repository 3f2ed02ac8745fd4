#include "platform/machine.hpp"

#include <algorithm>
#include <vector>

#include "cache/lru_cache.hpp"
#include "cache/random_cache.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

#ifdef MBCR_FUZZ_FAULT
#include "fuzz/fault.hpp"
#endif

namespace mbcr::platform {

namespace {

// Per-run sub-seed derivation: keep in sync between the fast replay and
// the reference implementation so both produce bit-identical results.
constexpr std::uint64_t kIl1Placement = 1;
constexpr std::uint64_t kDl1Placement = 2;
constexpr std::uint64_t kIl1Replacement = 3;
constexpr std::uint64_t kDl1Replacement = 4;
constexpr std::uint64_t kL2Placement = 5;
constexpr std::uint64_t kL2Replacement = 6;

constexpr std::uint32_t kEmpty = 0xffffffffu;

/// Flat-array cache state for one side, keyed by dense line ids. Tag and
/// set-map storage is borrowed from a RunWorkspace so campaign workers can
/// reuse it run after run; every field is (re)written here, so a recycled
/// buffer behaves exactly like a fresh one.
class FastSide {
public:
  FastSide(const CacheConfig& cfg, const std::vector<Addr>& lines,
           std::uint64_t placement_seed, std::uint64_t replacement_seed,
           std::vector<std::uint32_t>& tags, std::vector<std::uint32_t>& set_of)
      : ways_(cfg.ways), rng_(replacement_seed), tags_(tags), set_of_(set_of) {
    tags_.assign(static_cast<std::size_t>(cfg.sets) * cfg.ways, kEmpty);
    set_of_.resize(lines.size());
    for (std::size_t l = 0; l < lines.size(); ++l) {
      set_of_[l] = placement_set(cfg.placement, lines[l], placement_seed,
                                 cfg.sets);
    }
  }

  bool access(std::uint32_t line_id) {
    std::uint32_t* base = tags_.data() +
                          static_cast<std::size_t>(set_of_[line_id]) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w] == line_id) return true;
    }
    base[rng_.uniform(ways_)] = line_id;
    return false;
  }

private:
  std::uint32_t ways_;
  Xoshiro256 rng_;
  std::vector<std::uint32_t>& tags_;
  std::vector<std::uint32_t>& set_of_;
};

/// The unified L2 under deterministic LRU: dense unified ids, per-set tags
/// kept MRU-first (mirrors LruCache exactly), modulo placement on the real
/// line numbers.
class FastLruL2 {
public:
  FastLruL2(const CacheConfig& cfg, const std::vector<Addr>& lines,
            std::vector<std::uint32_t>& tags, std::vector<std::uint32_t>& set_of)
      : ways_(cfg.ways), tags_(tags), set_of_(set_of) {
    tags_.assign(static_cast<std::size_t>(cfg.sets) * cfg.ways, kEmpty);
    set_of_.resize(lines.size());
    for (std::size_t l = 0; l < lines.size(); ++l) {
      set_of_[l] = static_cast<std::uint32_t>(lines[l] % cfg.sets);
    }
  }

  bool access(std::uint32_t line_id) {
    std::uint32_t* base = tags_.data() +
                          static_cast<std::size_t>(set_of_[line_id]) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w] == line_id) {
        for (std::uint32_t i = w; i > 0; --i) base[i] = base[i - 1];
        base[0] = line_id;
        return true;
      }
    }
    for (std::uint32_t i = ways_ - 1; i > 0; --i) base[i] = base[i - 1];
    base[0] = line_id;
    return false;
  }

private:
  std::uint32_t ways_;
  std::vector<std::uint32_t>& tags_;
  std::vector<std::uint32_t>& set_of_;
};

/// One L1 side of a trace-major batch: B runs' flat-array cache state held
/// side by side. Tags are run-contiguous (`sets*ways` words per run); the
/// set map is batch-interleaved (`set_of[line_id * B + b]`) so the
/// per-entry loop over the batch reads one contiguous row. Each run keeps
/// its own replacement RNG, drawn from only on that run's misses — which
/// is why trace-major order reproduces per-run replay bit for bit.
class BatchSide {
public:
  BatchSide(const CacheConfig& cfg, const std::vector<Addr>& lines,
            std::uint64_t placement_salt, std::uint64_t replacement_salt,
            std::span<const std::uint64_t> seeds, RunWorkspace& ws,
            std::vector<std::uint32_t>& tags, std::vector<std::uint32_t>& set_of,
            std::vector<Xoshiro256>& rngs)
      : ways_(cfg.ways),
        stride_(static_cast<std::size_t>(cfg.sets) * cfg.ways),
        batch_(seeds.size()),
        tags_(tags),
        set_of_(set_of),
        rngs_(rngs) {
    rngs_.clear();
    ws.placement_seed.resize(batch_);
    for (std::size_t b = 0; b < batch_; ++b) {
      rngs_.emplace_back(mix64(replacement_salt, seeds[b]));
      ws.placement_seed[b] = mix64(placement_salt, seeds[b]);
    }
    set_of_.resize(lines.size() * batch_);
    for (std::size_t l = 0; l < lines.size(); ++l) {
      std::uint32_t* row = set_of_.data() + l * batch_;
      for (std::size_t b = 0; b < batch_; ++b) {
        row[b] = placement_set(cfg.placement, lines[l], ws.placement_seed[b],
                               cfg.sets);
      }
    }
    // Cold caches: when the trace touches fewer lines than the cache has
    // sets (small kernels vs a big L2), only the sets that can ever be
    // probed need emptying — replay never looks at the others.
    if (lines.size() < cfg.sets) {
      tags_.resize(stride_ * batch_);
      for (std::size_t l = 0; l < lines.size(); ++l) {
        const std::uint32_t* row = set_of_.data() + l * batch_;
        for (std::size_t b = 0; b < batch_; ++b) {
          std::uint32_t* block = tags_.data() + b * stride_ +
                                 static_cast<std::size_t>(row[b]) * ways_;
          for (std::uint32_t w = 0; w < ways_; ++w) block[w] = kEmpty;
        }
      }
    } else {
      tags_.assign(stride_ * batch_, kEmpty);
    }
  }

  /// The batch's set-map row for one line: `row[b]` is run b's set.
  const std::uint32_t* set_row(std::uint32_t line_id) const {
    return set_of_.data() + static_cast<std::size_t>(line_id) * batch_;
  }

  /// Set lookup + probe in one call — the L2-side interface (L1 misses
  /// are rare enough that re-reading the row per call costs nothing).
  bool access(std::uint32_t line_id, std::size_t b) {
    return access_at(set_row(line_id)[b], line_id, b);
  }

  /// One run's probe-and-fill, with the set already looked up from the
  /// row. The 2-way case (the paper's L1 geometry) is branchless on the
  /// way probe; misses — the only case that draws from the run's RNG —
  /// are the rare path.
  bool access_at(std::uint32_t set, std::uint32_t line_id, std::size_t b) {
    std::uint32_t* base =
        tags_.data() + b * stride_ + static_cast<std::size_t>(set) * ways_;
    if (ways_ == 2) {
      if ((base[0] == line_id) | (base[1] == line_id)) return true;
      base[rngs_[b].uniform(2)] = line_id;
      return false;
    }
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w] == line_id) return true;
    }
    base[rngs_[b].uniform(ways_)] = line_id;
    return false;
  }

private:
  std::uint32_t ways_;
  std::size_t stride_;
  std::size_t batch_;
  std::vector<std::uint32_t>& tags_;
  std::vector<std::uint32_t>& set_of_;
  std::vector<Xoshiro256>& rngs_;
};

/// The batched unified LRU L2: deterministic modulo placement is the same
/// for every run, so the set map has no batch dimension; only the MRU-first
/// tag blocks are per run.
class BatchLruL2 {
public:
  BatchLruL2(const CacheConfig& cfg, const std::vector<Addr>& lines,
             std::size_t batch, std::vector<std::uint32_t>& tags,
             std::vector<std::uint32_t>& set_of)
      : ways_(cfg.ways),
        stride_(static_cast<std::size_t>(cfg.sets) * cfg.ways),
        tags_(tags),
        set_of_(set_of) {
    set_of_.resize(lines.size());
    for (std::size_t l = 0; l < lines.size(); ++l) {
      set_of_[l] = static_cast<std::uint32_t>(lines[l] % cfg.sets);
    }
    // Same sparse cold-start as BatchSide: deterministic placement means
    // the probe-able sets are the same for every run in the batch.
    if (lines.size() < cfg.sets) {
      tags_.resize(stride_ * batch);
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t l = 0; l < lines.size(); ++l) {
          std::uint32_t* block =
              tags_.data() + b * stride_ +
              static_cast<std::size_t>(set_of_[l]) * ways_;
          for (std::uint32_t w = 0; w < ways_; ++w) block[w] = kEmpty;
        }
      }
    } else {
      tags_.assign(stride_ * batch, kEmpty);
    }
  }

  bool access(std::uint32_t line_id, std::size_t b) {
    std::uint32_t* base =
        tags_.data() + b * stride_ +
        static_cast<std::size_t>(set_of_[line_id]) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w] == line_id) {
        for (std::uint32_t i = w; i > 0; --i) base[i] = base[i - 1];
        base[0] = line_id;
        return true;
      }
    }
    for (std::uint32_t i = ways_ - 1; i > 0; --i) base[i] = base[i - 1];
    base[0] = line_id;
    return false;
  }

private:
  std::uint32_t ways_;
  std::size_t stride_;
  std::vector<std::uint32_t>& tags_;
  std::vector<std::uint32_t>& set_of_;
};

/// Base cycles of the sure hits folded out of `trace.replay`: the same
/// for every seed, so every replay loop starts from it and walks only the
/// folded view (see CompactTrace::replay).
std::uint64_t folded_cycles(const CompactTrace& trace, const TimingParams& t) {
  return trace.folded_ifetch * t.issue_cycles +
         trace.folded_data * t.dl1_hit_cycles;
}

/// Single-level replay: an L1 miss pays the memory latency directly.
/// Kept in its own function (like the two-level loops) so each replay
/// flavor gets its own tight codegen.
std::uint64_t replay_single_level(const CompactTrace& trace, FastSide& il1,
                                  FastSide& dl1, const TimingParams& t) {
  std::uint64_t cycles = folded_cycles(trace, t);
#ifdef MBCR_FUZZ_FAULT
  // Deliberate bug (fuzz-harness self-test build only): the first DL1 miss
  // of a run forgets its memory-latency penalty. See fuzz/fault.hpp.
  bool fault_pending = fuzz::fault_enabled();
#endif
  for (const CompactTrace::Entry& e : trace.replay) {
    if (e.is_instr) {
      cycles += t.issue_cycles;
      if (!il1.access(e.line_id)) cycles += t.mem_latency;
    } else {
      cycles += t.dl1_hit_cycles;
      if (!dl1.access(e.line_id)) {
#ifdef MBCR_FUZZ_FAULT
        if (fault_pending) {
          fault_pending = false;
          continue;
        }
#endif
        cycles += t.mem_latency;
      }
    }
  }
  return cycles;
}

/// Two-level replay: L1 miss -> probe L2 (`l2_latency` cycles), L2 miss ->
/// memory latency on top. Templated on the L2 model so the per-access loop
/// stays branch-free on policy.
template <typename L2Model>
std::uint64_t replay_hierarchy(const CompactTrace& trace, FastSide& il1,
                               FastSide& dl1, L2Model& l2,
                               const TimingParams& t,
                               std::uint64_t l2_latency) {
  std::uint64_t cycles = folded_cycles(trace, t);
  for (const CompactTrace::Entry& e : trace.replay) {
    if (e.is_instr) {
      cycles += t.issue_cycles;
      if (!il1.access(e.line_id)) {
        cycles += l2_latency;
        if (!l2.access(trace.iline_uid[e.line_id])) cycles += t.mem_latency;
      }
    } else {
      cycles += t.dl1_hit_cycles;
      if (!dl1.access(e.line_id)) {
        cycles += l2_latency;
        if (!l2.access(trace.dline_uid[e.line_id])) cycles += t.mem_latency;
      }
    }
  }
  return cycles;
}

/// Trace-major single-level batch replay: each entry is loaded once and
/// replayed through every run in the batch before moving on. The batch
/// loop bodies are independent (per-run state only), so the core overlaps
/// B probe chains instead of serializing one. `cycles` accumulates only
/// the per-run miss penalties — the base cost of every access (folded or
/// replayed) is the same for all runs and is added once, after the scan
/// (same sum, fewer memory round trips on the all-hits common path).
void replay_single_level_batch(const CompactTrace& trace, BatchSide& il1,
                               BatchSide& dl1, const TimingParams& t,
                               std::size_t batch, std::uint64_t* cycles) {
  std::uint64_t base_cycles = folded_cycles(trace, t);
  for (const CompactTrace::Entry& e : trace.replay) {
    if (e.is_instr) {
      base_cycles += t.issue_cycles;
      const std::uint32_t* row = il1.set_row(e.line_id);
      for (std::size_t b = 0; b < batch; ++b) {
        if (!il1.access_at(row[b], e.line_id, b)) cycles[b] += t.mem_latency;
      }
    } else {
      base_cycles += t.dl1_hit_cycles;
      const std::uint32_t* row = dl1.set_row(e.line_id);
      for (std::size_t b = 0; b < batch; ++b) {
        if (!dl1.access_at(row[b], e.line_id, b)) cycles[b] += t.mem_latency;
      }
    }
  }
  for (std::size_t b = 0; b < batch; ++b) cycles[b] += base_cycles;
}

/// Trace-major two-level batch replay, templated on the L2 model like the
/// single-run flavor. Same common-base-cost hoisting as the single-level
/// loop; only L1 misses touch per-run accumulators (and the L2).
template <typename L2Model>
void replay_hierarchy_batch(const CompactTrace& trace, BatchSide& il1,
                            BatchSide& dl1, L2Model& l2,
                            const TimingParams& t, std::uint64_t l2_latency,
                            std::size_t batch, std::uint64_t* cycles) {
  std::uint64_t base_cycles = folded_cycles(trace, t);
  for (const CompactTrace::Entry& e : trace.replay) {
    if (e.is_instr) {
      base_cycles += t.issue_cycles;
      const std::uint32_t uid = trace.iline_uid[e.line_id];
      const std::uint32_t* row = il1.set_row(e.line_id);
      for (std::size_t b = 0; b < batch; ++b) {
        if (!il1.access_at(row[b], e.line_id, b)) {
          cycles[b] += l2_latency;
          if (!l2.access(uid, b)) cycles[b] += t.mem_latency;
        }
      }
    } else {
      base_cycles += t.dl1_hit_cycles;
      const std::uint32_t uid = trace.dline_uid[e.line_id];
      const std::uint32_t* row = dl1.set_row(e.line_id);
      for (std::size_t b = 0; b < batch; ++b) {
        if (!dl1.access_at(row[b], e.line_id, b)) {
          cycles[b] += l2_latency;
          if (!l2.access(uid, b)) cycles[b] += t.mem_latency;
        }
      }
    }
  }
  for (std::size_t b = 0; b < batch; ++b) cycles[b] += base_cycles;
}

#if !defined(MBCR_OBS_DISABLED)

/// Replay-path tallies, one triple per machine flavor. Flushed once per
/// run (one fused pair-add) or once per batch, so the crc replay path
/// stays within the <2% collection-overhead budget the bench gate pins.
struct FlavorCounters {
  obs::Counter runs;
  obs::Counter batch_runs;
  obs::Counter entries;
};

enum class Flavor : std::size_t { kSingleLevel = 0, kL2Random, kL2Lru };

const FlavorCounters& flavor_counters(Flavor f) {
  static const FlavorCounters table[3] = {
      {obs::counter("replay.single_level.runs"),
       obs::counter("replay.single_level.batch_runs"),
       obs::counter("replay.single_level.entries")},
      {obs::counter("replay.l2_random.runs"),
       obs::counter("replay.l2_random.batch_runs"),
       obs::counter("replay.l2_random.entries")},
      {obs::counter("replay.l2_lru.runs"),
       obs::counter("replay.l2_lru.batch_runs"),
       obs::counter("replay.l2_lru.entries")},
  };
  return table[static_cast<std::size_t>(f)];
}

Flavor flavor_of(const MachineConfig& config) {
  if (!config.l2.enabled) return Flavor::kSingleLevel;
  return config.l2.policy == L2Policy::kRandom ? Flavor::kL2Random
                                               : Flavor::kL2Lru;
}

#endif  // !MBCR_OBS_DISABLED

}  // namespace

Machine::Machine(const MachineConfig& config) : config_(config) {
  config_.il1.validate();
  config_.dl1.validate();
  config_.l2.validate(config_.il1.line_bytes);
  if (config_.l2.enabled && config_.dl1.line_bytes != config_.il1.line_bytes) {
    throw std::invalid_argument(
        "a unified L2 requires IL1 and DL1 to share one line size");
  }
}

std::uint64_t Machine::run_once(const CompactTrace& trace,
                                std::uint64_t run_seed) const {
  // One workspace per thread, reused for the life of the process: the
  // convenience overload must not pay (or measure) per-run allocations.
  static thread_local RunWorkspace ws;
  return run_once(trace, run_seed, ws);
}

void Machine::run_batch(const CompactTrace& trace,
                        std::span<const std::uint64_t> seeds, RunWorkspace& ws,
                        std::uint64_t* out) const {
  const std::size_t batch = seeds.size();
  if (batch == 0) return;
#if !defined(MBCR_OBS_DISABLED)
  if (obs::enabled()) {
    const FlavorCounters& fc = flavor_counters(flavor_of(config_));
    fc.runs.add(batch);
    fc.batch_runs.add(batch);
    fc.entries.add(trace.size() * batch);
  }
#endif
  std::fill(out, out + batch, 0);
  BatchSide il1(config_.il1, trace.ilines, kIl1Placement, kIl1Replacement,
                seeds, ws, ws.il1_tags, ws.il1_set_of, ws.il1_rng);
  BatchSide dl1(config_.dl1, trace.dlines, kDl1Placement, kDl1Replacement,
                seeds, ws, ws.dl1_tags, ws.dl1_set_of, ws.dl1_rng);
  const TimingParams& t = config_.timing;
  if (config_.l2.enabled) {
    if (config_.l2.policy == L2Policy::kRandom) {
      BatchSide l2(config_.l2.l2, trace.ulines, kL2Placement, kL2Replacement,
                   seeds, ws, ws.l2_tags, ws.l2_set_of, ws.l2_rng);
      replay_hierarchy_batch(trace, il1, dl1, l2, t, config_.l2.latency,
                             batch, out);
      return;
    }
    BatchLruL2 l2(config_.l2.l2, trace.ulines, batch, ws.l2_tags,
                  ws.l2_set_of);
    replay_hierarchy_batch(trace, il1, dl1, l2, t, config_.l2.latency, batch,
                           out);
    return;
  }
  replay_single_level_batch(trace, il1, dl1, t, batch, out);
}

std::uint64_t Machine::run_once(const CompactTrace& trace,
                                std::uint64_t run_seed,
                                RunWorkspace& ws) const {
#if !defined(MBCR_OBS_DISABLED)
  if (obs::enabled()) {
    const FlavorCounters& fc = flavor_counters(flavor_of(config_));
    obs::add_pair(fc.runs, 1, fc.entries, trace.size());
  }
#endif
  FastSide il1(config_.il1, trace.ilines, mix64(kIl1Placement, run_seed),
               mix64(kIl1Replacement, run_seed), ws.il1_tags, ws.il1_set_of);
  FastSide dl1(config_.dl1, trace.dlines, mix64(kDl1Placement, run_seed),
               mix64(kDl1Replacement, run_seed), ws.dl1_tags, ws.dl1_set_of);
  const TimingParams& t = config_.timing;
  if (config_.l2.enabled) {
    if (config_.l2.policy == L2Policy::kRandom) {
      FastSide l2(config_.l2.l2, trace.ulines, mix64(kL2Placement, run_seed),
                  mix64(kL2Replacement, run_seed), ws.l2_tags, ws.l2_set_of);
      return replay_hierarchy(trace, il1, dl1, l2, t, config_.l2.latency);
    }
    FastLruL2 l2(config_.l2.l2, trace.ulines, ws.l2_tags, ws.l2_set_of);
    return replay_hierarchy(trace, il1, dl1, l2, t, config_.l2.latency);
  }
  return replay_single_level(trace, il1, dl1, t);
}

std::uint64_t Machine::run_once_reference(const MemTrace& trace,
                                          std::uint64_t run_seed) const {
  RandomCache il1(config_.il1, mix64(kIl1Placement, run_seed),
                  mix64(kIl1Replacement, run_seed));
  RandomCache dl1(config_.dl1, mix64(kDl1Placement, run_seed),
                  mix64(kDl1Replacement, run_seed));
  if (config_.l2.enabled) {
    if (config_.l2.policy == L2Policy::kRandom) {
      RandomCache l2(config_.l2.l2, mix64(kL2Placement, run_seed),
                     mix64(kL2Replacement, run_seed));
      return execute_trace_hierarchy(trace, il1, dl1, l2, config_.timing,
                                     config_.l2.latency);
    }
    LruCache l2(config_.l2.l2);
    return execute_trace_hierarchy(trace, il1, dl1, l2, config_.timing,
                                   config_.l2.latency);
  }
  return execute_trace(trace, il1, dl1, config_.timing);
}

}  // namespace mbcr::platform
