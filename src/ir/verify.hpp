// Static verification of compiled bytecode: the fail-closed gate between
// the compiler (ir/bytecode) and the dispatch loop (ir/vm).
//
// `verify` runs two passes over a `BytecodeProgram` and never executes it:
//
//   pass 1 (structural): every jump/branch target lands on an op boundary
//   inside the program, every operand index (constant, scalar, array,
//   fetch-site, loop, branch-id) is in range, array heap windows tile the
//   flat heap exactly, and no op can fall through off the end of the op
//   stream.
//
//   pass 2 (depth worklist): a worklist over the op-level CFG computes the
//   *exact* operand-stack depth and ghost nesting depth at every reachable
//   op. Merge points must agree on both, no op may underflow the stack,
//   ghost enter/exit ops must nest (no exit without a frame, no halt inside
//   one), and the stack high-water mark must equal the compiler's declared
//   `max_stack` — the VM sizes its operand stack from it and never checks
//   for overflow at run time. CFG-unreachable ops are flagged as dead.
//
// Depths are static per opcode and no edge is ever pruned, so the analysis
// needs no value facts: every element access keeps its runtime bounds
// branch in the VM. `compile_verified` is the pipeline the default
// executor uses: compile, then verify (throwing VerifyError on any
// diagnostic — fail closed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/bytecode.hpp"
#include "ir/interp.hpp"

namespace mbcr::ir {

/// One verifier diagnostic, anchored at the op it was discovered on.
struct VerifyIssue {
  std::uint32_t op = 0;
  std::string message;
};

/// Everything `verify` learned about a program. `ok()` is the verdict;
/// the rest are facts callers may report (lint).
struct VerifyResult {
  std::vector<VerifyIssue> errors;

  /// Exact operand-stack high-water mark from the dataflow (equals the
  /// declared max_stack on accepted programs).
  std::uint32_t computed_max_stack = 0;
  /// Statically-unreachable op indices (flagged, not rejected).
  std::vector<std::uint32_t> dead_ops;

  bool ok() const { return errors.empty(); }
  /// "op 12: jump target 99 out of range [0, 40)" — one line per error.
  std::string describe() const;
};

/// Raised when the verifier rejects a program. Derives ExecError so
/// existing fail-closed catch sites keep working.
class VerifyError : public ExecError {
public:
  using ExecError::ExecError;
};

/// Static analysis of `bc`; never executes it.
VerifyResult verify(const BytecodeProgram& bc);

/// Runs `verify` and throws VerifyError listing every diagnostic when it
/// rejects `bc`. The one throw site of the fail-closed pipeline.
void verify_or_throw(const BytecodeProgram& bc);

/// The fail-closed compile pipeline of the default executor: compile, then
/// `verify_or_throw`.
BytecodeProgram compile_verified(const Program& program, const Linked& linked);

}  // namespace mbcr::ir
