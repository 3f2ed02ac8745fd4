// Seed-invariant hit folding (CompactTrace::replay): the folded replay view
// drops every access that re-touches the line its side touched last, and
// the replay loops charge those sure hits as a per-trace constant. These
// tests pin the fold's shape and prove replay over it is bit-identical to
// replay over the unfolded entries, for every suite kernel and flavor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cpu/trace.hpp"
#include "ir/interp.hpp"
#include "platform/machine.hpp"
#include "pub/pub_transform.hpp"
#include "suite/malardalen.hpp"
#include "util/rng.hpp"

namespace mbcr::platform {
namespace {

bool same_entry(const CompactTrace::Entry& a, const CompactTrace::Entry& b) {
  return a.line_id == b.line_id && a.is_instr == b.is_instr;
}

/// The same trace with folding switched off: the replay view is every
/// entry and nothing is folded. Replay over it re-simulates every access.
CompactTrace unfolded(const CompactTrace& trace) {
  CompactTrace out = trace;
  out.replay = out.entries;
  out.folded_ifetch = 0;
  out.folded_data = 0;
  return out;
}

/// Checks the fold's invariants against the MemTrace it was built from.
void expect_fold_invariants(const MemTrace& mem, const CompactTrace& c,
                            const std::string& what) {
  // `entries` is untouched: one entry per access, resolving back to the
  // access's own line on its own side.
  ASSERT_EQ(c.entries.size(), mem.size()) << what;
  for (std::size_t i = 0; i < mem.size(); ++i) {
    const Access& a = mem.accesses[i];
    const CompactTrace::Entry& e = c.entries[i];
    ASSERT_EQ(e.is_instr, a.is_instruction() ? 1 : 0) << what << " @" << i;
    const std::vector<Addr>& lines = e.is_instr ? c.ilines : c.dlines;
    ASSERT_EQ(lines[e.line_id], line_of(a.addr)) << what << " @" << i;
  }

  EXPECT_EQ(c.replay.size() + c.folded_ifetch + c.folded_data,
            c.entries.size())
      << what;

  // No two consecutive same-side replayed entries share a line.
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t last[2] = {kNone, kNone};
  for (const CompactTrace::Entry& e : c.replay) {
    EXPECT_NE(e.line_id, last[e.is_instr]) << what;
    last[e.is_instr] = e.line_id;
  }

  // Walking `entries`, every entry is either the next replayed one or a
  // repeat of its side's last line — and the folded ones add up per side.
  std::size_t next = 0;
  std::size_t folded[2] = {0, 0};
  last[0] = last[1] = kNone;
  for (const CompactTrace::Entry& e : c.entries) {
    if (e.line_id == last[e.is_instr]) {
      ++folded[e.is_instr];
      continue;
    }
    ASSERT_LT(next, c.replay.size()) << what;
    ASSERT_TRUE(same_entry(c.replay[next], e)) << what << " replay " << next;
    ++next;
    last[e.is_instr] = e.line_id;
  }
  EXPECT_EQ(next, c.replay.size()) << what;
  EXPECT_EQ(folded[1], c.folded_ifetch) << what;
  EXPECT_EQ(folded[0], c.folded_data) << what;
}

TEST(CompactTraceFold, AllRepeatTraceFoldsToOneEntryPerSide) {
  MemTrace mem;
  for (int i = 0; i < 50; ++i) {
    mem.emit(0x1000 + 4 * (i % 8), AccessKind::kIFetch);  // one IL1 line
    mem.emit(0x8000 + 4 * (i % 4), i % 2 ? AccessKind::kStore
                                         : AccessKind::kLoad);  // one DL1
  }
  const CompactTrace c = CompactTrace::from(mem);
  expect_fold_invariants(mem, c, "all-repeat");
  ASSERT_EQ(c.replay.size(), 2u);
  EXPECT_EQ(c.replay[0].is_instr, 1);
  EXPECT_EQ(c.replay[1].is_instr, 0);
  EXPECT_EQ(c.folded_ifetch, 49u);
  EXPECT_EQ(c.folded_data, 49u);
}

TEST(CompactTraceFold, InterleavedSidesFoldIndependently) {
  // One byte range touched as both code and data: the two sides are
  // separate caches, so a data access between two fetches of the same
  // line does not break the IL1 repeat, and vice versa. A different line
  // on the same side does break it.
  MemTrace mem;
  mem.emit(0x1000, AccessKind::kIFetch);  // I line A: replayed
  mem.emit(0x1004, AccessKind::kLoad);    // D line A: replayed
  mem.emit(0x1008, AccessKind::kIFetch);  // I line A again: folded
  mem.emit(0x100c, AccessKind::kStore);   // D line A again: folded
  mem.emit(0x1020, AccessKind::kIFetch);  // I line B: replayed
  mem.emit(0x1010, AccessKind::kLoad);    // D line A again: folded
  mem.emit(0x1000, AccessKind::kIFetch);  // I line A after B: replayed
  const CompactTrace c = CompactTrace::from(mem);
  expect_fold_invariants(mem, c, "interleaved");
  ASSERT_EQ(c.replay.size(), 4u);
  EXPECT_EQ(c.folded_ifetch, 1u);
  EXPECT_EQ(c.folded_data, 2u);
  EXPECT_TRUE(same_entry(c.replay[0], c.entries[0]));
  EXPECT_TRUE(same_entry(c.replay[1], c.entries[1]));
  EXPECT_TRUE(same_entry(c.replay[2], c.entries[4]));
  EXPECT_TRUE(same_entry(c.replay[3], c.entries[6]));
}

TEST(CompactTraceFold, EmptyTraceFoldsToNothing) {
  const CompactTrace c = CompactTrace::from(MemTrace{});
  EXPECT_TRUE(c.replay.empty());
  EXPECT_EQ(c.folded_ifetch, 0u);
  EXPECT_EQ(c.folded_data, 0u);
}

TEST(CompactTraceFold, FoldedReplayEqualsUnfoldedForEverySuiteKernel) {
  // Every suite kernel, pubbed (the traces a pub_tac study replays), on
  // the single-level platform (default and skewed hit costs) and behind a
  // random and an LRU L2: run_once and run_batch over the folded view
  // must equal the same replay over the unfolded entries, seed by seed.
  MachineConfig single;
  MachineConfig l2_random;
  l2_random.l2 = HierarchyConfig::shared_l2_random();
  MachineConfig l2_lru;
  l2_lru.l2 = HierarchyConfig::shared_l2_lru();
  // Distinct per-side hit costs, so the folded constant must charge each
  // side its own (the defaults charge both sides 1 cycle).
  MachineConfig skewed;
  skewed.timing.issue_cycles = 2;
  skewed.timing.dl1_hit_cycles = 3;
  const std::pair<const char*, MachineConfig> flavors[] = {
      {"l1", single},
      {"l2_random", l2_random},
      {"l2_lru", l2_lru},
      {"l1_skewed_timing", skewed}};
  constexpr std::size_t kSeeds = 2000;
  constexpr std::size_t kBatch = 32;

  for (const suite::SuiteEntry& entry : suite::all()) {
    const suite::SuiteBenchmark b = entry.make();
    const MemTrace mem =
        ir::lower_and_execute(pub::apply_pub(b.program), b.default_input)
            .trace;
    const CompactTrace folded = CompactTrace::from(mem);
    const std::string name(entry.name);
    expect_fold_invariants(mem, folded, name);
    EXPECT_LT(folded.replay.size(), folded.size()) << name;
    const CompactTrace plain = unfolded(folded);

    for (const auto& [flavor, cfg] : flavors) {
      const Machine machine(cfg);
      RunWorkspace ws;
      std::vector<std::uint64_t> seeds(kSeeds);
      for (std::size_t i = 0; i < kSeeds; ++i) seeds[i] = mix64(i, 42);
      std::size_t mismatches = 0;
      for (const std::uint64_t seed : seeds) {
        mismatches += machine.run_once(folded, seed, ws) !=
                      machine.run_once(plain, seed, ws);
      }
      EXPECT_EQ(mismatches, 0u) << name << " " << flavor << " run_once";

      std::vector<std::uint64_t> got(kBatch);
      std::vector<std::uint64_t> want(kBatch);
      mismatches = 0;
      for (std::size_t i = 0; i < kSeeds; i += kBatch) {
        const std::span<const std::uint64_t> slice(
            seeds.data() + i, std::min(kBatch, kSeeds - i));
        machine.run_batch(folded, slice, ws, got.data());
        machine.run_batch(plain, slice, ws, want.data());
        for (std::size_t j = 0; j < slice.size(); ++j) {
          mismatches += got[j] != want[j];
        }
      }
      EXPECT_EQ(mismatches, 0u) << name << " " << flavor << " run_batch";
    }
  }
}

}  // namespace
}  // namespace mbcr::platform
