// Reference netlist interpreter for differential tests of rtl::ModuleSim.
//
// Written directly against the RtlOp and Module semantics and sharing no
// code with ModuleSim: expressions are evaluated by walking their trees, and
// settle() re-evaluates every continuous assign in declaration order until
// a pass changes nothing (no topological sort). A clock edge evaluates every
// register next-state and memory port from the pre-edge values, then
// commits registers, read ports (read-first) and writes (not under reset).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtl/netlist.h"

namespace hicsync::rtl::testing {

class ReferenceSim {
 public:
  explicit ReferenceSim(const Module& module)
      : m_(module), values_(module.nets().size(), 0) {
    for (const Net& n : module.nets()) {
      if (n.name == "rst") rst_ = n.id;
    }
    for (const Memory& mem : module.memories()) {
      memories_.emplace_back(static_cast<std::size_t>(mem.depth), 0);
    }
  }

  void set_input(int net, std::uint64_t value) {
    values_[index(net)] = mask(value, m_.net(net).width);
  }
  [[nodiscard]] std::uint64_t get(int net) const {
    return values_[index(net)];
  }
  [[nodiscard]] std::uint64_t word(std::size_t memory,
                                   std::size_t addr) const {
    return memories_[memory][addr];
  }

  void settle() {
    const auto& assigns = m_.assigns();
    for (std::size_t pass = 0; pass <= assigns.size(); ++pass) {
      bool changed = false;
      for (const ContAssign& a : assigns) {
        const std::uint64_t v = mask(eval(*a.value), m_.net(a.target).width);
        if (values_[index(a.target)] != v) {
          values_[index(a.target)] = v;
          changed = true;
        }
      }
      if (!changed) return;
    }
    throw std::runtime_error("ReferenceSim: " + m_.name() +
                             " did not settle");
  }

  void step() {
    struct Commit {
      int target;
      std::uint64_t value;
    };
    struct Write {
      std::size_t memory;
      std::size_t addr;
      std::uint64_t value;
    };
    std::vector<Commit> commits;
    std::vector<Write> writes;
    const bool in_reset = rst_ >= 0 && get(rst_) != 0;
    for (const SeqAssign& s : m_.seqs()) {
      if (in_reset && s.has_reset) {
        commits.push_back({s.target, s.reset_value});
      } else if (s.enable == nullptr || eval(*s.enable) != 0) {
        commits.push_back({s.target, mask(eval(*s.value),
                                          m_.net(s.target).width)});
      }
    }
    const auto& mems = m_.memories();
    for (std::size_t k = 0; k < mems.size(); ++k) {
      const std::vector<std::uint64_t>& words = memories_[k];
      for (const MemoryPort& p : mems[k].ports) {
        const std::size_t addr =
            static_cast<std::size_t>(eval(*p.addr)) % words.size();
        if (p.read_data >= 0) {
          commits.push_back({p.read_data, mask(words[addr], mems[k].width)});
        }
        if (p.write_enable != nullptr && eval(*p.write_enable) != 0 &&
            !in_reset) {
          writes.push_back({k, addr, mask(eval(*p.write_data),
                                          mems[k].width)});
        }
      }
    }
    for (const Commit& c : commits) values_[index(c.target)] = c.value;
    for (const Write& w : writes) memories_[w.memory][w.addr] = w.value;
  }

  [[nodiscard]] std::uint64_t eval(const RtlExpr& e) const {
    auto arg = [&](std::size_t i) { return eval(*e.args[i]); };
    switch (e.op) {
      case RtlOp::Const: return e.value;
      case RtlOp::Ref: return get(e.net);
      case RtlOp::Slice: return mask(arg(0) >> e.lo, e.hi - e.lo + 1);
      case RtlOp::Concat: {
        std::uint64_t v = 0;
        for (const auto& a : e.args) {
          v = (v << a->width) | mask(eval(*a), a->width);
        }
        return mask(v, e.width);
      }
      case RtlOp::Not: return mask(~arg(0), e.width);
      case RtlOp::And: return mask(arg(0) & arg(1), e.width);
      case RtlOp::Or: return mask(arg(0) | arg(1), e.width);
      case RtlOp::Xor: return mask(arg(0) ^ arg(1), e.width);
      case RtlOp::Add: return mask(arg(0) + arg(1), e.width);
      case RtlOp::Sub: return mask(arg(0) - arg(1), e.width);
      case RtlOp::Eq: return arg(0) == arg(1) ? 1 : 0;
      case RtlOp::Ne: return arg(0) != arg(1) ? 1 : 0;
      case RtlOp::Lt: return arg(0) < arg(1) ? 1 : 0;
      case RtlOp::Le: return arg(0) <= arg(1) ? 1 : 0;
      case RtlOp::Shl: return mask(arg(0) << arg(1), e.width);
      case RtlOp::Shr: return mask(arg(0) >> arg(1), e.width);
      case RtlOp::Mux: return mask(arg(0) != 0 ? arg(1) : arg(2), e.width);
      case RtlOp::ReduceOr: return arg(0) != 0 ? 1 : 0;
      case RtlOp::ReduceAnd: {
        const std::uint64_t all = mask(~0ULL, e.args[0]->width);
        return (arg(0) & all) == all ? 1 : 0;
      }
    }
    throw std::runtime_error("ReferenceSim: unknown op");
  }

 private:
  static std::uint64_t mask(std::uint64_t v, int width) {
    return width >= 64 ? v : v & ((1ULL << width) - 1);
  }
  static std::size_t index(int net) { return static_cast<std::size_t>(net); }

  const Module& m_;
  std::vector<std::uint64_t> values_;
  std::vector<std::vector<std::uint64_t>> memories_;
  int rst_ = -1;
};

}  // namespace hicsync::rtl::testing
