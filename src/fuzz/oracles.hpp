// The cross-stack oracles of the differential fuzzer. Each oracle takes a
// complete FuzzCaseData, re-derives whatever it needs (traces, pubbed
// program, hierarchy flavors) and checks one equivalence or conservatism
// contract end to end:
//
//   replay      fast Machine::run_once == generic-cache reference, over the
//               full flavor grid (L1-only / random-L2 / LRU-L2, each under
//               hash and modulo placement) and every sampled run seed
//   batch       Machine::run_batch == per-seed run_once at several widths
//   campaign    streamed campaign == one-shot, invariant under threads,
//               grain and batch width
//   pub         PUB invariants on every input: original token stream is a
//               subsequence of the pubbed stream, final state preserved
//   tac         conservatism: TAC events are sane (p in (0,1], R >= 1) and
//               the all-miss architectural ceiling upper-bounds every
//               observed latency across flavors and sampled seeds
//   study_json  StudySpec and StudyResult JSON round-trip text-identically
//               (spec -> json -> spec -> json, and result doc -> parse ->
//               re-emit)
//   vm          the bytecode VM (ir/vm) is bit-identical to the
//               tree-walking interpreter — trace, env, tokens, path,
//               leaf_steps and ExecError texts — on both the original and
//               the pubbed program, for every input
//   verify      the static verifier (ir/verify) accepts the compiled
//               original and pubbed programs
//   evt         EVT/convergence estimator identities on campaign samples:
//               every incremental refit == a from-scratch fit on its
//               prefix, and the count table folded delta by delta == the
//               one counted at once
//
// Oracles are pure: they never mutate the case and are deterministic in
// it, which is what lets the shrinker re-evaluate candidates cheaply.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "fuzz/fuzz.hpp"

namespace mbcr::fuzz {

struct OracleOutcome {
  bool ok = true;
  std::string detail;  ///< first failing comparison when !ok
};

struct Oracle {
  const char* name;
  const char* summary;
  /// `inject_fault` is the harness self-test switch (FuzzConfig); only the
  /// replay oracle consults it.
  OracleOutcome (*run)(const FuzzCaseData& data, bool inject_fault);
};

/// All nine oracles, in the documentation order above.
std::span<const Oracle> all_oracles();

/// Lookup by name; nullptr for unknown names ("all" is not an oracle).
const Oracle* find_oracle(std::string_view name);

/// The hierarchy-flavor grid the replay-family oracles sweep, derived from
/// the case's base machine config: {L1-only, random L2, LRU L2} x
/// {hash, modulo} placement on every level. Exposed so tests and the
/// corpus replayer agree with the oracles on what a case covers.
std::vector<platform::MachineConfig> flavor_grid(
    const platform::MachineConfig& base);

}  // namespace mbcr::fuzz
