// janne — the `janne_complex` kernel (Mälardalen), two nested
// data-dependent while loops whose trip counts depend intricately on the
// inputs (a, b). A classic flow-analysis stress test; multipath with
// input-dependent iteration structure.
//
//   while (a < 30) {
//     while (b < a) {
//       if (b > 5) b = b * 3; else b = b + 2;
//       if (b >= 10 && b <= 12) a = a + 10; else a = a + 1;
//     }
//     a = a + 2;
//     b = b - 10;
//   }
//
// Inputs are restricted to 0 <= a, b <= 30. Bounds (tight, as the flow
// analysis behind the paper's loop-bound inputs would derive): the outer
// loop adds at least 2 to `a` per iteration, so 16 iterations suffice
// from a=0; within one outer iteration `b` climbs from at worst a-10-ish
// (it drops 10 per outer round after having reached `a`) to `a` by at
// least +2 per inner step, and from the initial corner (b=0, a<=30) needs
// at most 15 steps: 16 covers both.
#include "suite/malardalen.hpp"

namespace mbcr::suite {

using namespace ir;

SuiteBenchmark make_janne() {
  Program p;
  p.name = "janne";
  // The kernel is register-only in real code; we give it a tiny state
  // array so the data cache sees the live-in/live-out traffic of the
  // enclosing call (matches how the harness benchmarks the original).
  p.arrays.push_back({"io", 2, {}});
  p.scalars = {"a", "b"};

  StmtPtr inner_body = seq({
      if_else(var("b") > cst(5),
              assign("b", var("b") * cst(3)),
              assign("b", var("b") + cst(2))),
      if_else(land(var("b") >= cst(10), var("b") <= cst(12)),
              assign("a", var("a") + cst(10)),
              assign("a", var("a") + cst(1))),
  });
  StmtPtr outer_body = seq({
      while_loop(var("b") < var("a"), std::move(inner_body),
                 /*max_trips=*/16),
      assign("a", var("a") + cst(2)),
      assign("b", var("b") - cst(10)),
  });
  p.body = seq({
      assign("a", ld("io", cst(0))),
      assign("b", ld("io", cst(1))),
      while_loop(var("a") < cst(30), std::move(outer_body), /*max_trips=*/16),
      store("io", cst(0), var("a")),
      store("io", cst(1), var("b")),
  });
  validate(p);

  SuiteBenchmark b;
  b.name = "janne";
  b.program = std::move(p);

  auto make_input = [](Value a, Value b_val) {
    InputVector in;
    in.label = std::string("a")
                   .append(std::to_string(a))
                   .append("_b")
                   .append(std::to_string(b_val));
    in.arrays["io"] = {a, b_val};
    return in;
  };
  // Default: the input with the largest total loop work over the whole
  // 0..30 x 0..30 domain (exhaustive sweep; see suite tests) — the
  // worst-case path, as the paper's janne default input provides.
  b.default_input = make_input(0, 5);
  b.path_inputs.push_back(b.default_input);
  b.path_inputs.push_back(make_input(0, 0));
  b.path_inputs.push_back(make_input(1, 1));
  b.path_inputs.push_back(make_input(25, 2));
  b.path_inputs.push_back(make_input(29, 29));
  b.path_inputs.push_back(make_input(0, 30));
  b.single_path = false;
  b.default_hits_worst_path = true;
  return b;
}

}  // namespace mbcr::suite
