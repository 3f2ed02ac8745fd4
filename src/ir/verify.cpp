#include "ir/verify.hpp"

#include <deque>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mbcr::ir {

namespace {

/// Operand-stack slots an op consumes (reads below the current depth).
int stack_inputs(OpCode code) {
  switch (code) {
    case OpCode::kStoreScalar:
    case OpCode::kPop:
    case OpCode::kBranch:
    case OpCode::kLoopNext:
    case OpCode::kLoadElem:
    case OpCode::kNeg:
    case OpCode::kLNot:
    case OpCode::kBitNot:
      return 1;
    case OpCode::kStoreElem:
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv:
    case OpCode::kMod:
    case OpCode::kShl:
    case OpCode::kShr:
    case OpCode::kBitAnd:
    case OpCode::kBitOr:
    case OpCode::kBitXor:
    case OpCode::kLt:
    case OpCode::kLe:
    case OpCode::kGt:
    case OpCode::kGe:
    case OpCode::kEq:
    case OpCode::kNe:
    case OpCode::kLAnd:
    case OpCode::kLOr:
      return 2;
    case OpCode::kSelect:
      return 3;
    default:
      return 0;
  }
}

/// Net stack effect (mirrors the compiler's accounting in bytecode.cpp).
int stack_delta_of(OpCode code) {
  switch (code) {
    case OpCode::kPushConst:
    case OpCode::kLoadScalar:
      return 1;
    case OpCode::kStoreScalar:
    case OpCode::kPop:
    case OpCode::kBranch:
    case OpCode::kLoopNext:
      return -1;
    case OpCode::kStoreElem:
    case OpCode::kSelect:
      return -2;
    default:
      break;
  }
  if (code >= OpCode::kAdd && code <= OpCode::kLOr) return -1;
  return 0;
}

/// The dataflow fact at one op: the exact operand-stack and ghost nesting
/// depths on entry. Both are path-independent in well-formed bytecode, so
/// the first edge to reach an op fixes its state and every later edge must
/// agree with it.
struct DepthState {
  bool reachable = false;
  std::int32_t depth = 0;
  std::int32_t ghost = 0;
};

using Edge = std::pair<std::uint32_t, DepthState>;

class Checker {
public:
  Checker(const BytecodeProgram& bc, VerifyResult& out) : bc_(bc), out_(out) {}

  void structural();
  void dataflow();

private:
  void err(std::uint32_t op, std::string message) {
    out_.errors.push_back({op, std::move(message)});
  }

  void check_operands(std::uint32_t i, const Op& op);

  /// Computes the successor edges of executing op `i` on `in`; records
  /// transfer errors. Returns false when propagation must stop at this op.
  bool transfer(std::uint32_t i, const DepthState& in,
                std::vector<Edge>& out_edges);

  /// Joins `from` into `into`; reports depth/ghost mismatches at op `t`.
  /// Returns whether `into` changed; sets `bad` on mismatch.
  bool join_state(std::uint32_t t, DepthState& into, const DepthState& from,
                  bool& bad);

  const BytecodeProgram& bc_;
  VerifyResult& out_;
  std::vector<DepthState> st_;
  std::vector<bool> errored_;
};

void Checker::check_operands(std::uint32_t i, const Op& op) {
  const auto n = static_cast<std::uint32_t>(bc_.ops.size());
  const auto in_range = [&](const char* what, std::uint32_t idx,
                            std::size_t limit) {
    if (idx >= limit) {
      err(i, std::string(what) + " index " + std::to_string(idx) +
                 " out of range [0, " + std::to_string(limit) + ")");
    }
  };
  const auto target = [&](std::uint32_t t) {
    if (t >= n) {
      err(i, "jump target " + std::to_string(t) + " out of range [0, " +
                 std::to_string(n) + ")");
    }
  };
  switch (op.code) {
    case OpCode::kPushConst:
      in_range("constant", op.a, bc_.consts.size());
      break;
    case OpCode::kLoadScalar:
    case OpCode::kStoreScalar:
      in_range("scalar slot", op.a, bc_.scalar_names.size());
      break;
    case OpCode::kAddScalarImm:
      in_range("scalar slot", op.a, bc_.scalar_names.size());
      in_range("constant", op.b, bc_.consts.size());
      break;
    case OpCode::kLoadElem:
    case OpCode::kStoreElem:
      in_range("array slot", op.a, bc_.arrays.size());
      break;
    case OpCode::kStepFetch:
    case OpCode::kFetch:
      in_range("fetch site", op.a, bc_.sites.size());
      break;
    case OpCode::kJump:
      target(op.a);
      break;
    case OpCode::kBranch:
      target(op.a);
      in_range("branch id", op.b, bc_.branch_ids.size());
      break;
    case OpCode::kResetTrips:
    case OpCode::kPathLoop:
      in_range("loop slot", op.a, bc_.loops.size());
      break;
    case OpCode::kLoopNext:
    case OpCode::kPadEnter:
    case OpCode::kPadNext:
      in_range("loop slot", op.a, bc_.loops.size());
      target(op.b);
      break;
    default:
      break;
  }
}

void Checker::structural() {
  if (bc_.ops.empty()) {
    err(0, "empty op stream");
    return;
  }
  for (std::uint32_t i = 0; i < bc_.ops.size(); ++i) {
    check_operands(i, bc_.ops[i]);
  }
  // The last op must not fall through off the end of the stream.
  const OpCode last = bc_.ops.back().code;
  if (last != OpCode::kHalt && last != OpCode::kJump) {
    err(static_cast<std::uint32_t>(bc_.ops.size()) - 1,
        "control falls through off the end of the op stream");
  }
  // Array windows must tile the flat heap exactly.
  std::uint32_t offset = 0;
  for (std::size_t k = 0; k < bc_.arrays.size(); ++k) {
    const ArraySlot& a = bc_.arrays[k];
    if (a.offset != offset) {
      err(0, "array '" + a.name + "' heap window starts at " +
                 std::to_string(a.offset) + ", expected " +
                 std::to_string(offset));
    }
    offset += a.size;
  }
  if (offset != bc_.heap_init.size()) {
    err(0, "array windows cover " + std::to_string(offset) +
               " heap cells, heap_init has " +
               std::to_string(bc_.heap_init.size()));
  }
}

bool Checker::transfer(std::uint32_t i, const DepthState& in,
                       std::vector<Edge>& out_edges) {
  const Op& op = bc_.ops[i];
  const int need = stack_inputs(op.code);
  if (in.depth < need) {
    err(i, std::string("operand stack underflow: ") + to_string(op.code) +
               " needs " + std::to_string(need) + " value(s), depth is " +
               std::to_string(in.depth));
    return false;
  }

  DepthState s = in;
  s.depth += stack_delta_of(op.code);
  switch (op.code) {
    case OpCode::kHalt:
      if (in.ghost != 0) {
        err(i, "halt inside " + std::to_string(in.ghost) +
                   " open ghost frame(s)");
        return false;
      }
      return true;  // no successors
    case OpCode::kJump:
      out_edges.emplace_back(op.a, s);
      return true;
    case OpCode::kBranch:
      out_edges.emplace_back(i + 1, s);  // taken
      out_edges.emplace_back(op.a, s);
      return true;
    case OpCode::kLoopNext:
      out_edges.emplace_back(i + 1, s);  // another trip
      out_edges.emplace_back(op.b, s);
      return true;
    case OpCode::kPadEnter: {
      DepthState entered = s;
      ++entered.ghost;
      out_edges.emplace_back(i + 1, entered);
      out_edges.emplace_back(op.b, s);
      return true;
    }
    case OpCode::kPadNext:
      out_edges.emplace_back(op.b, s);
      out_edges.emplace_back(i + 1, s);
      return true;
    case OpCode::kGhostEnter:
      ++s.ghost;
      break;
    case OpCode::kGhostExit:
      if (s.ghost == 0) {
        err(i, "ghost exit with no open ghost frame");
        return false;
      }
      --s.ghost;
      break;
    default:
      break;
  }
  out_edges.emplace_back(i + 1, s);
  return true;
}

bool Checker::join_state(std::uint32_t t, DepthState& into,
                         const DepthState& from, bool& bad) {
  if (!into.reachable) {
    into = from;
    into.reachable = true;
    return true;
  }
  if (into.depth != from.depth) {
    err(t, "operand stack depth mismatch at merge: " +
               std::to_string(into.depth) + " vs " +
               std::to_string(from.depth));
    bad = true;
  } else if (into.ghost != from.ghost) {
    err(t, "ghost nesting depth mismatch at merge: " +
               std::to_string(into.ghost) + " vs " +
               std::to_string(from.ghost));
    bad = true;
  }
  return false;
}

void Checker::dataflow() {
  const auto n = static_cast<std::uint32_t>(bc_.ops.size());
  st_.assign(n, {});
  errored_.assign(n, false);
  // A state only changes when an op is first reached, so each op is queued
  // at most once and the worklist terminates after n visits.
  std::deque<std::uint32_t> work;
  st_[0].reachable = true;
  work.push_back(0);
  std::vector<Edge> edges;

  while (!work.empty()) {
    const std::uint32_t i = work.front();
    work.pop_front();
    if (errored_[i]) continue;

    edges.clear();
    if (!transfer(i, st_[i], edges)) {
      errored_[i] = true;
      continue;
    }
    for (const auto& [t, s] : edges) {
      if (errored_[t]) continue;
      bool bad = false;
      const bool changed = join_state(t, st_[t], s, bad);
      if (bad) {
        errored_[t] = true;
      } else if (changed) {
        work.push_back(t);
      }
    }
  }

  // Post-pass: high-water mark and dead ops.
  std::int32_t high = 0;
  std::uint32_t high_op = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const DepthState& s = st_[i];
    if (!s.reachable) {
      out_.dead_ops.push_back(i);
      continue;
    }
    if (errored_[i]) continue;
    const int after = s.depth + stack_delta_of(bc_.ops[i].code);
    if (after > high) {
      high = after;
      high_op = i;
    }
  }
  out_.computed_max_stack = static_cast<std::uint32_t>(high);
  if (out_.errors.empty() && out_.computed_max_stack != bc_.max_stack) {
    err(high_op, "declared max_stack " + std::to_string(bc_.max_stack) +
                     " != computed high-water " +
                     std::to_string(out_.computed_max_stack));
  }
}

}  // namespace

std::string VerifyResult::describe() const {
  std::ostringstream out;
  for (const VerifyIssue& e : errors) {
    out << "op " << e.op << ": " << e.message << "\n";
  }
  return out.str();
}

VerifyResult verify(const BytecodeProgram& bc) {
  VerifyResult out;
  Checker checker(bc, out);
  checker.structural();
  if (!out.errors.empty()) return out;  // fail closed before dataflow
  checker.dataflow();
  return out;
}

void verify_or_throw(const BytecodeProgram& bc) {
  const VerifyResult facts = verify(bc);
  if (!facts.ok()) {
    throw VerifyError(bc.name + ": verifier rejected compiled bytecode:\n" +
                      facts.describe());
  }
}

BytecodeProgram compile_verified(const Program& program, const Linked& linked) {
  BytecodeProgram bc = [&] {
    obs::Span span("compile");
    return compile(program, linked);
  }();
  obs::Span span("verify");
  verify_or_throw(bc);
  if (obs::enabled()) {
    // Deterministic per program — a coverage signal for the guided fuzzer.
    static const obs::Counter c_programs = obs::counter("verify.programs");
    c_programs.add();
  }
  return bc;
}

}  // namespace mbcr::ir
