#include "ir/randprog.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace mbcr::ir {

void RandProgConfig::validate() const {
  if (array_size == 0 || (array_size & (array_size - 1)) != 0) {
    throw std::invalid_argument(
        "randprog: array_size must be a non-zero power of two (index "
        "expressions are masked with size-1), got " +
        std::to_string(array_size));
  }
  if (n_arrays < 1) {
    throw std::invalid_argument("randprog: need at least one array");
  }
  if (n_scalars < 1) {
    throw std::invalid_argument("randprog: need at least one scalar");
  }
  if (n_inputs < 0 || n_inputs > n_scalars) {
    throw std::invalid_argument(
        "randprog: n_inputs must be in [0, n_scalars]");
  }
  if (max_depth < 0 || max_depth > 16) {
    throw std::invalid_argument("randprog: max_depth must be in [0, 16]");
  }
  if (max_block_stmts < 1) {
    throw std::invalid_argument(
        "randprog: blocks need at least one statement");
  }
  if (max_loop_trips < 2) {
    throw std::invalid_argument(
        "randprog: max_loop_trips must be at least 2");
  }
  if (!(scalar_alias_prob >= 0.0 && scalar_alias_prob <= 1.0)) {
    throw std::invalid_argument(
        "randprog: scalar_alias_prob must be in [0, 1]");
  }
}

namespace {

/// "s3", "a0", "i1": a one-letter prefix and a decimal index.
std::string slot_name(char prefix, std::uint64_t index) {
  std::string name(1, prefix);
  name.append(std::to_string(index));
  return name;
}

class Generator {
public:
  Generator(Xoshiro256& rng, const RandProgConfig& cfg)
      : rng_(rng), cfg_(cfg) {}

  Program build() {
    Program p;
    p.name = "randprog";
    for (int i = 0; i < cfg_.n_arrays; ++i) {
      p.arrays.push_back({slot_name('a', i), cfg_.array_size, {}});
    }
    for (int i = 0; i < cfg_.n_scalars; ++i) {
      p.scalars.push_back(slot_name('s', i));
    }
    // A couple of dedicated loop counters keep loop variables from
    // clobbering the data-dependent scalars.
    for (int i = 0; i < cfg_.max_depth; ++i) {
      p.scalars.push_back(slot_name('i', i));
      loop_vars_.push_back(slot_name('i', i));
    }
    p.body = block(cfg_.max_depth);
    validate(p);
    return p;
  }

private:
  std::string rand_scalar() {
    return slot_name(
        's', rng_.uniform(static_cast<std::uint32_t>(cfg_.n_scalars)));
  }

  std::string rand_array() {
    return slot_name(
        'a', rng_.uniform(static_cast<std::uint32_t>(cfg_.n_arrays)));
  }

  /// Index expression guaranteed in-bounds: (e & (size-1)).
  ExprPtr rand_index(int depth) {
    return bin(BinOp::kBitAnd, rand_expr(depth),
               cst(static_cast<Value>(cfg_.array_size - 1)));
  }

  ExprPtr rand_expr(int depth) {
    const std::uint32_t pick = rng_.uniform(depth > 0 ? 5 : 3);
    switch (pick) {
      case 0:
        return cst(static_cast<Value>(rng_.uniform(16)));
      case 1:
        return var(rand_scalar());
      case 2: {
        // loop counters appear in expressions too
        if (!active_loops_.empty() && rng_.uniform(2) == 0) {
          return var(active_loops_[rng_.uniform(
              static_cast<std::uint32_t>(active_loops_.size()))]);
        }
        return var(rand_scalar());
      }
      case 3:
        return ld(rand_array(), rand_index(depth - 1));
      default: {
        static constexpr BinOp kOps[] = {BinOp::kAdd, BinOp::kSub,
                                         BinOp::kMul, BinOp::kBitXor,
                                         BinOp::kBitAnd};
        return bin(kOps[rng_.uniform(5)], rand_expr(depth - 1),
                   rand_expr(depth - 1));
      }
    }
  }

  ExprPtr rand_cond(int depth) {
    static constexpr BinOp kCmp[] = {BinOp::kLt, BinOp::kLe, BinOp::kEq,
                                     BinOp::kNe, BinOp::kGt};
    return bin(kCmp[rng_.uniform(5)], rand_expr(depth), rand_expr(depth));
  }

  /// Assignment target: usually a data scalar, but with
  /// `scalar_alias_prob` an *inactive* loop counter — counters are
  /// re-initialized at loop entry, so aliasing them never breaks bounds.
  std::string rand_assign_target() {
    if (cfg_.scalar_alias_prob > 0.0 &&
        rng_.uniform01() < cfg_.scalar_alias_prob) {
      std::vector<std::string> inactive;
      for (const std::string& iv : loop_vars_) {
        bool active = false;
        for (const std::string& a : active_loops_) active |= (a == iv);
        if (!active) inactive.push_back(iv);
      }
      if (!inactive.empty()) {
        return inactive[rng_.uniform(
            static_cast<std::uint32_t>(inactive.size()))];
      }
    }
    return rand_scalar();
  }

  StmtPtr rand_leaf() {
    if (rng_.uniform(2) == 0) {
      return assign(rand_assign_target(), rand_expr(2));
    }
    return store(rand_array(), rand_index(1), rand_expr(2));
  }

  StmtPtr rand_stmt(int depth) {
    if (depth == 0) return rand_leaf();
    switch (rng_.uniform(4)) {
      case 0: {  // if / if-else, input-dependent condition
        StmtPtr then_b = block(depth - 1);
        StmtPtr else_b = rng_.uniform(2) ? block(depth - 1) : nullptr;
        return if_else(rand_cond(1), std::move(then_b), std::move(else_b));
      }
      case 1: {  // bounded for, possibly input-dependent trip count
        const std::string iv = loop_vars_.at(loop_vars_.size() - depth);
        const auto bound = 2 + rng_.uniform(static_cast<std::uint32_t>(
                                   cfg_.max_loop_trips - 1));
        ExprPtr limit;
        if (rng_.uniform(2) == 0) {
          // data-dependent bound, clamped into [0, bound] via mask
          limit = bin(BinOp::kBitAnd, var(rand_scalar()),
                      cst(static_cast<Value>(bound)));
        } else {
          limit = cst(static_cast<Value>(bound));
        }
        active_loops_.push_back(iv);
        StmtPtr body = block(depth - 1);
        active_loops_.pop_back();
        return for_loop(iv, cst(0), var(iv) < std::move(limit), 1,
                        std::move(body), cfg_.max_loop_trips + 2);
      }
      default:
        return rand_leaf();
    }
  }

  StmtPtr block(int depth) {
    const std::uint32_t n =
        1 + rng_.uniform(static_cast<std::uint32_t>(cfg_.max_block_stmts));
    std::vector<StmtPtr> stmts;
    stmts.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) stmts.push_back(rand_stmt(depth));
    return seq(std::move(stmts));
  }

  Xoshiro256& rng_;
  RandProgConfig cfg_;
  std::vector<std::string> loop_vars_;
  std::vector<std::string> active_loops_;
};

}  // namespace

Program random_program(Xoshiro256& rng, const RandProgConfig& config) {
  config.validate();
  Generator gen(rng, config);
  return gen.build();
}

InputVector random_input(const Program& program, Xoshiro256& rng,
                         const RandProgConfig& config) {
  config.validate();
  InputVector in;
  in.label = "rand";
  for (int i = 0; i < config.n_inputs && i < config.n_scalars; ++i) {
    in.scalars[slot_name('s', i)] = static_cast<Value>(rng.uniform(32));
  }
  for (const auto& a : program.arrays) {
    std::vector<Value> contents(a.size);
    for (auto& v : contents) v = static_cast<Value>(rng.uniform(64));
    in.arrays[a.name] = std::move(contents);
  }
  return in;
}

}  // namespace mbcr::ir
