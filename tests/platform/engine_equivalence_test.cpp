// Engine-equivalence suite: every execution path must produce
// bit-identical samples for a fixed master seed — fast replay vs reference
// cache model, the pool engine vs a per-seed run_once loop, any thread
// count, workspace reuse, streamed vs one-shot. These tests pin that
// contract.
#include <gtest/gtest.h>

#include "ir/interp.hpp"
#include "platform/campaign.hpp"
#include "platform/machine.hpp"
#include "suite/malardalen.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"

namespace mbcr::platform {
namespace {

struct TestWorkload {
  MemTrace mem;
  CompactTrace trace;
};

TestWorkload test_workload(const std::string& name = "bs") {
  const auto b = suite::make_benchmark(name);
  TestWorkload w;
  w.mem = ir::lower_and_execute(b.program, b.default_input).trace;
  w.trace = CompactTrace::from(w.mem);
  return w;
}

TEST(EngineEquivalence, FastReplayMatchesReferenceAcrossSeeds) {
  const TestWorkload w = test_workload();
  const Machine machine;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    EXPECT_EQ(machine.run_once(w.trace, seed),
              machine.run_once_reference(w.mem, seed))
        << "seed " << seed;
  }
}

TEST(EngineEquivalence, FastReplayMatchesReferenceAcrossGeometries) {
  const TestWorkload w = test_workload("janne");
  const CacheConfig geometries[] = {
      CacheConfig::paper_l1(), CacheConfig::example_s8w4(),
      CacheConfig{1, 4, 32},    // fully associative, single set
      CacheConfig{256, 1, 32},  // direct mapped
  };
  for (const CacheConfig& il1 : geometries) {
    for (const CacheConfig& dl1 : geometries) {
      MachineConfig cfg;
      cfg.il1 = il1;
      cfg.dl1 = dl1;
      const Machine machine(cfg);
      for (std::uint64_t seed : {0ull, 7ull, 123456789ull}) {
        EXPECT_EQ(machine.run_once(w.trace, seed),
                  machine.run_once_reference(w.mem, seed))
            << "il1 " << il1.sets << "x" << il1.ways << " dl1 " << dl1.sets
            << "x" << dl1.ways << " seed " << seed;
      }
    }
  }
}

TEST(EngineEquivalence, FastReplayMatchesReferenceWithWideLines) {
  // The compact trace pre-resolves byte addresses to line ids, so its line
  // size must match the cache geometry's; rebuild it for 64B lines.
  const TestWorkload w = test_workload("janne");
  const CompactTrace wide_trace = CompactTrace::from(w.mem, 64);
  MachineConfig cfg;
  cfg.il1 = CacheConfig{16, 8, 64};
  cfg.dl1 = CacheConfig{16, 8, 64};
  const Machine machine(cfg);
  for (std::uint64_t seed : {0ull, 7ull, 123456789ull}) {
    EXPECT_EQ(machine.run_once(wide_trace, seed),
              machine.run_once_reference(w.mem, seed))
        << "seed " << seed;
  }
}

TEST(EngineEquivalence, TwoLevelReplayMatchesReferenceAcrossConfigs) {
  // The fast two-level replay must agree with the generic-cache oracle
  // bit for bit: both policies, several L2 geometries (including an L2
  // *smaller* than the L1s), several seeds.
  const TestWorkload w = test_workload("janne");
  const CacheConfig l2_geometries[] = {
      CacheConfig{256, 8, 32},  // 64KB, the default
      CacheConfig{64, 4, 32},   // 8KB
      CacheConfig{16, 2, 32},   // 1KB: smaller than the L1s
      CacheConfig{1, 8, 32},    // single-set
  };
  for (const L2Policy policy : {L2Policy::kRandom, L2Policy::kLru}) {
    for (const CacheConfig& geo : l2_geometries) {
      MachineConfig cfg;
      cfg.l2.enabled = true;
      cfg.l2.l2 = geo;
      cfg.l2.policy = policy;
      const Machine machine(cfg);
      for (std::uint64_t seed : {0ull, 7ull, 123456789ull}) {
        EXPECT_EQ(machine.run_once(w.trace, seed),
                  machine.run_once_reference(w.mem, seed))
            << to_string(policy) << " L2 " << geo.sets << "x" << geo.ways
            << " seed " << seed;
      }
    }
  }
}

TEST(EngineEquivalence, ModuloPlacementReplayMatchesReference) {
  // Random-modulo placement on every level, mixed with hash placement.
  const TestWorkload w = test_workload();
  for (const Placement l1_placement : {Placement::kHash, Placement::kModulo}) {
    MachineConfig cfg;
    cfg.il1.placement = l1_placement;
    cfg.dl1.placement = Placement::kModulo;
    cfg.l2.enabled = true;
    cfg.l2.l2.placement = Placement::kModulo;
    const Machine machine(cfg);
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      EXPECT_EQ(machine.run_once(w.trace, seed),
                machine.run_once_reference(w.mem, seed))
          << "l1 placement " << to_string(l1_placement) << " seed " << seed;
    }
  }
}

TEST(EngineEquivalence, RunBatchMatchesRunOnceAcrossPoliciesGeometriesSeeds) {
  // The trace-major batched replay must agree with per-seed run_once bit
  // for bit: single-level and both L2 policies, hash and modulo
  // placement, odd geometries, several batch widths (including partial
  // and width-1 batches), one workspace reused throughout.
  const TestWorkload w = test_workload("janne");
  std::vector<MachineConfig> configs;
  configs.emplace_back();  // paper single-level default
  {
    MachineConfig odd;  // direct-mapped IL1, fully associative DL1
    odd.il1 = CacheConfig{256, 1, 32};
    odd.dl1 = CacheConfig{1, 4, 32};
    configs.push_back(odd);
  }
  for (const L2Policy policy : {L2Policy::kRandom, L2Policy::kLru}) {
    MachineConfig cfg;
    cfg.l2.enabled = true;
    cfg.l2.policy = policy;
    configs.push_back(cfg);
    cfg.il1.placement = Placement::kModulo;
    cfg.dl1.placement = Placement::kModulo;
    cfg.l2.l2 = CacheConfig{64, 4, 32};
    cfg.l2.l2.placement = Placement::kModulo;
    configs.push_back(cfg);
  }

  RunWorkspace ws;  // reused across every machine and width
  for (const MachineConfig& cfg : configs) {
    const Machine machine(cfg);
    for (const std::size_t width : {1u, 2u, 5u, 32u, 33u}) {
      std::vector<std::uint64_t> seeds(width);
      for (std::size_t i = 0; i < width; ++i) {
        seeds[i] = mix64(1000 + i, 0xabcdef);  // arbitrary, non-consecutive
      }
      std::vector<std::uint64_t> batched(width);
      machine.run_batch(w.trace, seeds, ws, batched.data());
      for (std::size_t i = 0; i < width; ++i) {
        EXPECT_EQ(batched[i], machine.run_once(w.trace, seeds[i]))
            << "l2 " << (cfg.l2.enabled ? to_string(cfg.l2.policy) : "off")
            << " il1 " << cfg.il1.sets << "x" << cfg.il1.ways << " width "
            << width << " run " << i;
      }
    }
  }
}

TEST(EngineEquivalence, RunBatchMatchesReferenceOracle) {
  // Transitively pinned via run_once, but hold the batched replay to the
  // generic-cache oracle directly too.
  const TestWorkload w = test_workload();
  MachineConfig cfg;
  cfg.l2 = HierarchyConfig::shared_l2_random();
  const Machine machine(cfg);
  RunWorkspace ws;
  std::vector<std::uint64_t> seeds(16);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = i;
  std::vector<std::uint64_t> batched(seeds.size());
  machine.run_batch(w.trace, seeds, ws, batched.data());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(batched[i], machine.run_once_reference(w.mem, seeds[i]))
        << "seed " << seeds[i];
  }
}

TEST(EngineEquivalence, CampaignInvariantUnderBatchWidth) {
  // The batch width is a pure throughput knob: any width (and any
  // batch/grain interplay, including grain < batch) produces the
  // identical sample. crc: long enough to clear the engine's
  // tiny-trace per-run fallback, so batching really runs.
  const TestWorkload w = test_workload("crc");
  ASSERT_GE(w.trace.replay.size(), kBatchMinTraceEntries);
  MachineConfig mcfg;
  mcfg.l2 = HierarchyConfig::shared_l2_random();
  const Machine machine(mcfg);
  CampaignConfig unbatched;
  unbatched.batch = 1;
  const std::vector<double> want =
      run_campaign(machine, w.trace, 1000, unbatched);
  for (const std::size_t batch : {2u, 7u, 32u, 500u, 5000u}) {
    for (const std::size_t grain : {5u, 64u, 1024u}) {
      CampaignConfig cfg;
      cfg.batch = batch;
      cfg.grain = grain;
      EXPECT_EQ(run_campaign(machine, w.trace, 1000, cfg), want)
          << "batch " << batch << " grain " << grain;
    }
  }
}

TEST(EngineEquivalence, BatchedCampaignInvariantUnderThreadCount) {
  const TestWorkload w = test_workload("crc");  // above the batch fallback
  const Machine machine;
  CampaignConfig cfg;
  cfg.grain = 48;  // not a batch multiple: every chunk ends on a partial batch
  cfg.batch = 32;
  std::vector<double> baseline;
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<double> times(2000);
    run_campaign_into(machine, w.trace, times.size(), times.data(), cfg, 0,
                      &pool);
    if (baseline.empty()) {
      baseline = times;
    } else {
      EXPECT_EQ(baseline, times) << "threads " << threads;
    }
  }
}

TEST(EngineEquivalence, DisabledL2IsBitIdenticalToSingleLevelMachine) {
  // A configured-but-disabled hierarchy must not perturb a single sample.
  const TestWorkload w = test_workload();
  MachineConfig cfg;
  cfg.l2.enabled = false;
  cfg.l2.l2 = CacheConfig{16, 2, 32};  // would change results if consulted
  cfg.l2.latency = 999;
  const Machine configured(cfg);
  const Machine plain;
  EXPECT_EQ(run_campaign(configured, w.trace, 500),
            run_campaign(plain, w.trace, 500));
}

TEST(EngineEquivalence, TwoLevelWorkspaceReuseAndStreamingAndThreads) {
  // The campaign-engine contract extends to two-level machines: workspace
  // reuse is bit-identical, streamed == one-shot, thread count and grain
  // don't matter.
  const TestWorkload w = test_workload();
  MachineConfig cfg;
  cfg.l2 = HierarchyConfig::shared_l2_random();
  const Machine machine(cfg);
  RunWorkspace ws;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    EXPECT_EQ(machine.run_once(w.trace, seed, ws),
              machine.run_once(w.trace, seed));
  }

  const CampaignConfig ccfg;
  CampaignSampler sampler(machine, w.trace, ccfg);
  std::vector<double> streamed;
  for (std::size_t chunk : {3, 137, 360, 500}) {
    sampler.append_to(streamed, chunk);
  }
  const std::vector<double> one_shot =
      run_campaign(machine, w.trace, 1000, ccfg);
  EXPECT_EQ(streamed, one_shot);

  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    CampaignConfig grained;
    grained.grain = 17;
    std::vector<double> times(1000);
    run_campaign_into(machine, w.trace, times.size(), times.data(), grained,
                      0, &pool);
    EXPECT_EQ(times, one_shot) << "threads " << threads;
  }
}

TEST(EngineEquivalence, WorkspaceReuseIsBitIdentical) {
  const TestWorkload w = test_workload();
  const TestWorkload small = test_workload("janne");
  MachineConfig small_cfg;
  small_cfg.il1 = CacheConfig::example_s8w4();
  small_cfg.dl1 = CacheConfig::example_s8w4();
  const Machine machine;
  const Machine small_machine(small_cfg);
  RunWorkspace ws;  // one workspace reused across runs, traces, machines
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    EXPECT_EQ(machine.run_once(w.trace, seed, ws),
              machine.run_once(w.trace, seed));
    EXPECT_EQ(small_machine.run_once(small.trace, seed, ws),
              small_machine.run_once(small.trace, seed));
  }
}

TEST(EngineEquivalence, PoolEngineInvariantUnderThreadCount) {
  const TestWorkload w = test_workload();
  const Machine machine;
  CampaignConfig cfg;
  cfg.grain = 32;
  std::vector<double> baseline;
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<double> times(3000);
    run_campaign_into(machine, w.trace, times.size(), times.data(), cfg, 0,
                      &pool);
    if (baseline.empty()) {
      baseline = times;
    } else {
      EXPECT_EQ(baseline, times) << "threads " << threads;
    }
  }
}

TEST(EngineEquivalence, PoolEngineMatchesPerSeedRunOnce) {
  // Run i of a campaign is run_once with seed mix64(i, master_seed),
  // whatever the concurrency bound.
  const TestWorkload w = test_workload();
  const Machine machine;
  CampaignConfig cfg;
  const std::vector<double> want =
      run_campaign_reference(machine, w.trace, 2000, cfg.master_seed);
  for (unsigned threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    EXPECT_EQ(run_campaign(machine, w.trace, 2000, cfg), want)
        << "threads " << threads;
  }
}

TEST(EngineEquivalence, StreamedSamplesMatchOneShotCampaign) {
  // The streaming-sink property: growing one sample buffer through
  // CampaignSampler::append_to reproduces the one-shot campaign exactly,
  // whatever the chunking.
  const TestWorkload w = test_workload();
  const Machine machine;
  const CampaignConfig cfg;
  CampaignSampler sampler(machine, w.trace, cfg);
  std::vector<double> streamed;
  for (std::size_t chunk : {1, 137, 300, 62, 500}) {
    sampler.append_to(streamed, chunk);
  }
  EXPECT_EQ(sampler.runs_done(), 1000u);
  EXPECT_EQ(streamed, run_campaign(machine, w.trace, 1000, cfg));
}

TEST(EngineEquivalence, GrainDoesNotChangeResults) {
  const TestWorkload w = test_workload();
  const Machine machine;
  CampaignConfig coarse;
  coarse.grain = 1024;
  CampaignConfig fine;
  fine.grain = 1;
  EXPECT_EQ(run_campaign(machine, w.trace, 1500, coarse),
            run_campaign(machine, w.trace, 1500, fine));
}

}  // namespace
}  // namespace mbcr::platform
