// Differential fuzz of the netlist evaluator: random modules — expression
// trees over inputs, registers (with and without enable and reset) and a
// memory's read data, plus the memory's ports — run cycle by cycle on
// ModuleSim and on the independent reference interpreter
// (reference_sim.h). Catches masking, topo-sort, width and edge-commit bugs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "reference_sim.h"
#include "rtl/eval.h"
#include "support/rng.h"

namespace hicsync::rtl {
namespace {

using testing::ReferenceSim;

struct Gen {
  support::Rng rng;
  std::vector<std::pair<int, int>> leaves;  // net, width
  /// Beyond the basic ops: shifts, offset slices, multi-part concats,
  /// reductions and Ne/Le.
  bool extended = false;

  explicit Gen(std::uint64_t seed) : rng(seed) {}

  /// A leaf net (sliced or zero-padded to the width) or a constant.
  RtlExprPtr leaf(int want_width) {
    if (!leaves.empty() && rng.next_bool(0.7)) {
      auto [net, w] = leaves[rng.next_below(leaves.size())];
      RtlExprPtr e = eref(net, w);
      if (w > want_width) {
        const int lo = extended ? static_cast<int>(rng.next_below(
                                      static_cast<std::uint64_t>(
                                          w - want_width + 1)))
                                : 0;
        return eslice(std::move(e), lo + want_width - 1, lo);
      }
      if (w < want_width) {
        std::vector<RtlExprPtr> parts;
        parts.push_back(econst(0, want_width - w));
        parts.push_back(std::move(e));
        return econcat(std::move(parts));
      }
      return e;
    }
    return econst(rng.next_u64(), want_width);
  }

  /// `cmp` (1 bit) zero-extended to `want_width`.
  static RtlExprPtr widen(RtlExprPtr cmp, int want_width) {
    if (want_width == 1) return cmp;
    std::vector<RtlExprPtr> parts;
    parts.push_back(econst(0, want_width - 1));
    parts.push_back(std::move(cmp));
    return econcat(std::move(parts));
  }

  RtlExprPtr expr(int depth, int want_width) {
    if (depth == 0 || rng.next_bool(0.25)) return leaf(want_width);
    switch (rng.next_below(extended ? 12 : 8)) {
      case 0:
        return ebin(RtlOp::And, expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      case 1:
        return ebin(RtlOp::Or, expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      case 2:
        return ebin(RtlOp::Xor, expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      case 3:
        return ebin(RtlOp::Add, expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      case 4:
        return ebin(RtlOp::Sub, expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      case 5:
        return enot(expr(depth - 1, want_width));
      case 6: {
        // Mux steered by a 1-bit subexpression.
        return emux(expr(depth - 1, 1), expr(depth - 1, want_width),
                    expr(depth - 1, want_width));
      }
      case 7: {
        // Comparison widened back to the target width.
        RtlExprPtr cmp = ebin(rng.next_bool(0.5) ? RtlOp::Eq : RtlOp::Lt,
                              expr(depth - 1, want_width),
                              expr(depth - 1, want_width));
        return widen(std::move(cmp), want_width);
      }
      case 8: {
        // Shift by a constant amount below the width.
        const RtlOp op = rng.next_bool(0.5) ? RtlOp::Shl : RtlOp::Shr;
        const std::uint64_t by =
            rng.next_below(static_cast<std::uint64_t>(want_width));
        return ebin(op, expr(depth - 1, want_width), econst(by, want_width));
      }
      case 9: {
        // A wider subexpression sliced back down.
        const int wide = std::min(
            64, want_width + 1 + static_cast<int>(rng.next_below(8)));
        const int lo = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(wide - want_width + 1)));
        return eslice(expr(depth - 1, wide), lo + want_width - 1, lo);
      }
      case 10: {
        // Two or three parts concatenated to exactly the width.
        if (want_width < 2) return expr(depth - 1, want_width);
        std::vector<RtlExprPtr> parts;
        int left = want_width;
        while (left > 0) {
          const int w = parts.size() == 2
                            ? left
                            : 1 + static_cast<int>(rng.next_below(
                                      static_cast<std::uint64_t>(left)));
          parts.push_back(expr(depth - 1, w));
          left -= w;
        }
        return econcat(std::move(parts));
      }
      default: {
        // Reductions and the remaining comparisons.
        const bool reduce = rng.next_bool(0.5);
        RtlExprPtr a = expr(depth - 1, want_width);
        RtlExprPtr one;
        if (reduce) {
          one = rng.next_bool(0.5) ? ereduce_or(std::move(a))
                                   : ereduce_and(std::move(a));
        } else {
          one = ebin(rng.next_bool(0.5) ? RtlOp::Ne : RtlOp::Le, std::move(a),
                     expr(depth - 1, want_width));
        }
        return widen(std::move(one), want_width);
      }
    }
  }
};

// The first six are the widths of the combinational fuzz.
const int kWidths[] = {1, 7, 8, 13, 32, 33, 64};

class EvalFuzz : public ::testing::TestWithParam<int> {};

// Combinational trees only, settled against the reference's tree walk.
TEST_P(EvalFuzz, ModuleSimMatchesReference) {
  Gen gen(static_cast<std::uint64_t>(GetParam()) * 2654435761u);
  Module m("fuzz");
  for (int i = 0; i < 4; ++i) {
    const int w = kWidths[gen.rng.next_below(6)];
    gen.leaves.emplace_back(m.add_input("in" + std::to_string(i), w), w);
  }
  std::vector<int> outputs;
  for (int o = 0; o < 5; ++o) {
    const int w = kWidths[gen.rng.next_below(6)];
    const int out = m.add_output("out" + std::to_string(o), w);
    m.assign(out, gen.expr(4, w));
    outputs.push_back(out);
  }
  ModuleSim sim(m);
  ReferenceSim ref(m);
  for (int round = 0; round < 20; ++round) {
    for (auto [net, w] : gen.leaves) {
      const std::uint64_t v = gen.rng.next_u64();
      sim.set_input(net, v);
      ref.set_input(net, v);
    }
    sim.settle();
    ref.settle();
    for (int out : outputs) {
      ASSERT_EQ(sim.get(out), ref.get(out))
          << "seed " << GetParam() << " round " << round << " "
          << m.net(out).name;
    }
  }
}

// Sequential modules: registers with and without enable and reset, a
// memory with a read/write and a write-only port, and combinational wires
// chained through each other (declared in reverse so the order must be
// sorted), over reset and free-running cycles.
TEST_P(EvalFuzz, SequentialModuleMatchesReferenceEveryCycle) {
  Gen gen(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ULL);
  gen.extended = true;
  auto pick_width = [&gen] { return kWidths[gen.rng.next_below(7)]; };
  Module m("fuzz_seq");
  (void)m.clk();
  const int rst = m.rst();
  std::vector<std::pair<int, int>> inputs;
  for (int i = 0; i < 4; ++i) {
    const int w = pick_width();
    inputs.emplace_back(m.add_input("in" + std::to_string(i), w), w);
  }
  gen.leaves = inputs;
  std::vector<std::pair<int, int>> regs;
  for (int r = 0; r < 4; ++r) {
    const int w = pick_width();
    regs.emplace_back(m.add_reg("r" + std::to_string(r), w), w);
  }
  const int mem_width = pick_width();
  const int rdata = m.add_reg("rdata", mem_width);
  for (const auto& r : regs) gen.leaves.push_back(r);
  gen.leaves.emplace_back(rdata, mem_width);

  // Wires w_k read only earlier wires, registers and inputs; assigning them
  // in reverse declaration order exercises the topological sort.
  std::vector<std::pair<int, RtlExprPtr>> wires;
  for (int k = 0; k < 4; ++k) {
    const int w = pick_width();
    const int net = m.add_wire("w" + std::to_string(k), w);
    wires.emplace_back(net, gen.expr(3, w));
    gen.leaves.emplace_back(net, w);
  }
  for (auto it = wires.rbegin(); it != wires.rend(); ++it) {
    m.assign(it->first, std::move(it->second));
  }

  for (const auto& [net, w] : regs) {
    RtlExprPtr enable = gen.rng.next_bool(0.5) ? gen.expr(2, 1) : nullptr;
    const bool has_reset = gen.rng.next_bool(0.7);
    // Reset values are not narrowed to the register's width.
    m.seq(net, gen.expr(3, w), std::move(enable), gen.rng.next_u64(),
          has_reset);
  }
  Memory& mem = m.add_memory("ram", mem_width, 16);
  {
    MemoryPort rw;
    rw.addr = gen.expr(2, 4);
    rw.write_enable = gen.expr(2, 1);
    rw.write_data = gen.expr(3, mem_width);
    rw.read_data = rdata;
    mem.ports.push_back(std::move(rw));
    MemoryPort wo;
    wo.addr = gen.expr(2, 6);  // wider than the depth: wraps
    wo.write_enable = gen.expr(2, 1);
    wo.write_data = gen.expr(3, mem_width);
    mem.ports.push_back(std::move(wo));
  }
  std::string error;
  ASSERT_TRUE(m.validate(&error)) << error;

  ModuleSim sim(m);
  ReferenceSim ref(m);
  for (int cycle = 0; cycle < 40; ++cycle) {
    const std::uint64_t reset = cycle == 0 || gen.rng.next_bool(0.1) ? 1 : 0;
    sim.set_input(rst, reset);
    ref.set_input(rst, reset);
    for (auto [net, w] : inputs) {
      const std::uint64_t v = gen.rng.next_u64();
      sim.set_input(net, v);
      ref.set_input(net, v);
    }
    sim.settle();
    ref.settle();
    for (const Net& n : m.nets()) {
      ASSERT_EQ(sim.get(n.id), ref.get(n.id))
          << "seed " << GetParam() << " cycle " << cycle << " " << n.name;
    }
    sim.step();
    ref.step();
    for (std::size_t a = 0; a < 16; ++a) {
      ASSERT_EQ(sim.read_mem("ram", a), ref.word(0, a))
          << "seed " << GetParam() << " cycle " << cycle << " word " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalFuzz, ::testing::Range(1, 13));

}  // namespace
}  // namespace hicsync::rtl
