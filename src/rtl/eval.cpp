#include "rtl/eval.h"

#include <algorithm>
#include <bit>
#include <set>
#include <stdexcept>
#include <unordered_map>

namespace hicsync::rtl {

using support::low_mask;

namespace {

void collect_refs(const RtlExpr& e, std::set<int>& refs) {
  if (e.op == RtlOp::Ref) refs.insert(e.net);
  for (const auto& a : e.args) collect_refs(*a, refs);
}

/// Strict-mode scan: every net read anywhere must have some driver.
void check_undriven_reads(const Module& module) {
  std::vector<bool> driven(module.nets().size(), false);
  for (const Port& p : module.ports()) {
    if (p.dir == PortDir::Input) driven[static_cast<std::size_t>(p.net)] = true;
  }
  for (const ContAssign& a : module.assigns()) {
    driven[static_cast<std::size_t>(a.target)] = true;
  }
  for (const SeqAssign& s : module.seqs()) {
    driven[static_cast<std::size_t>(s.target)] = true;
  }
  for (const Memory& m : module.memories()) {
    for (const MemoryPort& p : m.ports) {
      if (p.read_data >= 0) driven[static_cast<std::size_t>(p.read_data)] = true;
    }
  }
  auto check = [&](const RtlExpr* e, const std::string& site) {
    if (e == nullptr) return;
    std::set<int> refs;
    collect_refs(*e, refs);
    for (int r : refs) {
      if (!driven[static_cast<std::size_t>(r)]) {
        throw std::runtime_error("ModuleSim: read of undriven net '" +
                                 module.net(r).name + "' in " + site + " (" +
                                 module.name() + ", strict mode)");
      }
    }
  };
  for (const ContAssign& a : module.assigns()) {
    check(a.value.get(), "continuous assign to '" + module.net(a.target).name +
                             "'");
  }
  for (const SeqAssign& s : module.seqs()) {
    check(s.value.get(), "next-state of '" + module.net(s.target).name + "'");
    check(s.enable.get(), "enable of '" + module.net(s.target).name + "'");
  }
  for (const Memory& m : module.memories()) {
    for (std::size_t i = 0; i < m.ports.size(); ++i) {
      const MemoryPort& p = m.ports[i];
      const std::string where =
          "memory '" + m.name + "' port " + std::to_string(i);
      check(p.addr.get(), "address of " + where);
      check(p.write_enable.get(), "write enable of " + where);
      check(p.write_data.get(), "write data of " + where);
    }
  }
}

int bit_length(std::uint64_t v) { return static_cast<int>(std::bit_width(v)); }

}  // namespace

/// Lowers a module's expression trees onto ModuleSim's tapes. Every lowered
/// value is an Operand: its slot and an upper bound on its significant
/// bits, which lets a Concat part skip its mask when it already fits.
class TapeBuilder {
 public:
  using Code = ModuleSim::Code;
  using Instr = ModuleSim::Instr;

  explicit TapeBuilder(ModuleSim& sim)
      : sim_(sim), nets_(static_cast<std::uint32_t>(sim.values_.size())) {
    const Module& m = sim.module_;
    // Register and memory-read commits are not always narrowed to the
    // net's width (an unmasked reset value, a wider memory word).
    net_bits_.reserve(m.nets().size());
    for (const Net& n : m.nets()) net_bits_.push_back(n.width);
    for (const SeqAssign& s : m.seqs()) {
      if (!s.has_reset) continue;
      int& bits = net_bits_[static_cast<std::size_t>(s.target)];
      bits = std::max(bits, bit_length(s.reset_value));
    }
    for (const Memory& mem : m.memories()) {
      for (const MemoryPort& p : mem.ports) {
        if (p.read_data < 0) continue;
        int& bits = net_bits_[static_cast<std::size_t>(p.read_data)];
        bits = std::max(bits, mem.width);
      }
    }
  }

  void build() {
    const Module& m = sim_.module_;
    const auto& assigns = m.assigns();
    sim_.comb_.reserve(assigns.size() * 2);
    for (int i : assign_order(m, "ModuleSim")) {
      const ContAssign& a = assigns[static_cast<std::size_t>(i)];
      const Operand v = lower(*a.value, sim_.comb_);
      const std::uint64_t mask = low_mask(m.net(a.target).width);
      const auto target = static_cast<std::uint32_t>(a.target);
      if (v.computed) {
        // Retarget the root instruction onto the net; free its temporary.
        sim_.comb_.back().dst = target;
        sim_.comb_.back().mask &= mask;
        sim_.values_.pop_back();
      } else {
        sim_.comb_.push_back(Instr{Code::Copy, target, v.slot, 0, 0, mask});
      }
    }

    std::vector<Instr>& edge = sim_.edge_;
    for (const SeqAssign& s : m.seqs()) {
      ModuleSim::RegCommit r;
      r.target = static_cast<std::uint32_t>(s.target);
      r.value = edge_root(*s.value, low_mask(m.net(s.target).width), edge);
      if (s.enable != nullptr) r.enable = edge_root(*s.enable, ~0ULL, edge);
      r.has_reset = s.has_reset;
      r.reset_value = s.reset_value;
      sim_.regs_.push_back(r);
    }
    const auto& mems = m.memories();
    for (std::size_t k = 0; k < mems.size(); ++k) {
      const std::uint64_t word = low_mask(mems[k].width);
      for (const MemoryPort& p : mems[k].ports) {
        ModuleSim::PortCommit c;
        c.memory = static_cast<std::uint32_t>(k);
        c.addr = edge_root(*p.addr, ~0ULL, edge);
        if (p.write_enable != nullptr) {
          c.write_enable = edge_root(*p.write_enable, ~0ULL, edge);
          c.write_data = edge_root(*p.write_data, word, edge);
        }
        c.read_data = p.read_data;
        c.mask = word;
        sim_.ports_.push_back(c);
      }
    }
  }

 private:
  struct Operand {
    std::uint32_t slot = 0;
    int bits = 64;
    bool computed = false;  // written by the tape's last instruction
  };

  [[nodiscard]] Operand constant(std::uint64_t value) {
    auto [it, fresh] = constants_.try_emplace(
        value, static_cast<std::uint32_t>(sim_.values_.size()));
    if (fresh) sim_.values_.push_back(value);
    return Operand{it->second, bit_length(value), false};
  }

  /// Appends `code` writing a fresh temporary.
  Operand emit(std::vector<Instr>& tape, Code code, std::uint32_t a,
               std::uint32_t b, std::uint32_t c, std::uint64_t mask,
               int bits) {
    const auto dst = static_cast<std::uint32_t>(sim_.values_.size());
    sim_.values_.push_back(0);
    tape.push_back(Instr{code, dst, a, b, c, mask});
    return Operand{dst, bits, true};
  }

  /// `v` narrowed to `width` bits, by an instruction only if it may not fit.
  Operand narrow(std::vector<Instr>& tape, Operand v, int width) {
    if (width >= 64 || v.bits <= width) return v;
    return emit(tape, Code::Copy, v.slot, 0, 0, low_mask(width), width);
  }

  Operand lower(const RtlExpr& e, std::vector<Instr>& tape) {
    const std::uint64_t mask = low_mask(e.width);
    const int bits = std::min(e.width, 64);
    auto arg = [&](std::size_t i) { return lower(*e.args[i], tape).slot; };
    auto binary = [&](Code code, std::uint64_t m, int b) {
      const std::uint32_t a0 = arg(0);
      const std::uint32_t a1 = arg(1);
      return emit(tape, code, a0, a1, 0, m, b);
    };
    switch (e.op) {
      case RtlOp::Const:
        return constant(e.value);
      case RtlOp::Ref:
        return Operand{static_cast<std::uint32_t>(e.net),
                       net_bits_[static_cast<std::size_t>(e.net)], false};
      case RtlOp::Slice: {
        const int w = e.hi - e.lo + 1;
        return emit(tape, Code::Slice, arg(0), 0,
                    static_cast<std::uint32_t>(e.lo), low_mask(w),
                    std::min(w, 64));
      }
      case RtlOp::Concat: {
        if (e.args.empty()) return constant(0);
        // Masking the running value to e.width at every step equals
        // masking it once at the end: the shifts only move bits up.
        const RtlExpr& head = *e.args[0];
        Operand acc = narrow(tape, lower(head, tape),
                             std::min(head.width, e.width));
        for (std::size_t i = 1; i < e.args.size(); ++i) {
          const RtlExpr& part = *e.args[i];
          const Operand p = narrow(tape, lower(part, tape), part.width);
          acc = emit(tape, Code::Concat, acc.slot, p.slot,
                     static_cast<std::uint32_t>(part.width), mask, bits);
        }
        return acc;
      }
      case RtlOp::Not:
        return emit(tape, Code::Not, arg(0), 0, 0, mask, bits);
      case RtlOp::And: return binary(Code::And, mask, bits);
      case RtlOp::Or: return binary(Code::Or, mask, bits);
      case RtlOp::Xor: return binary(Code::Xor, mask, bits);
      case RtlOp::Add: return binary(Code::Add, mask, bits);
      case RtlOp::Sub: return binary(Code::Sub, mask, bits);
      case RtlOp::Shl: return binary(Code::Shl, mask, bits);
      case RtlOp::Shr: return binary(Code::Shr, mask, bits);
      case RtlOp::Eq: return binary(Code::Eq, ~0ULL, 1);
      case RtlOp::Ne: return binary(Code::Ne, ~0ULL, 1);
      case RtlOp::Lt: return binary(Code::Lt, ~0ULL, 1);
      case RtlOp::Le: return binary(Code::Le, ~0ULL, 1);
      case RtlOp::Mux: {
        const std::uint32_t sel = arg(0);
        const std::uint32_t t = arg(1);
        const std::uint32_t f = arg(2);
        return emit(tape, Code::Mux, sel, t, f, mask, bits);
      }
      case RtlOp::ReduceOr:
        return emit(tape, Code::ReduceOr, arg(0), 0, 0, ~0ULL, 1);
      case RtlOp::ReduceAnd: {
        const std::uint32_t a0 = arg(0);
        const std::uint32_t all = constant(low_mask(e.args[0]->width)).slot;
        return emit(tape, Code::ReduceAnd, a0, all, 0, ~0ULL, 1);
      }
    }
    return constant(0);
  }

  /// Lowers an edge-time value masked by `mask` into a slot that no
  /// register commit overwrites (a temporary or a constant), so that every
  /// commit of an edge sees pre-edge values.
  std::uint32_t edge_root(const RtlExpr& e, std::uint64_t mask,
                          std::vector<Instr>& tape) {
    const Operand v = lower(e, tape);
    if (v.computed) {
      tape.back().mask &= mask;
      return v.slot;
    }
    if (v.slot >= nets_) return constant(sim_.values_[v.slot] & mask).slot;
    return emit(tape, Code::Copy, v.slot, 0, 0, mask, 64).slot;
  }

  ModuleSim& sim_;
  const std::uint32_t nets_;
  std::vector<int> net_bits_;  // bound on the bits a net's value may hold
  std::unordered_map<std::uint64_t, std::uint32_t> constants_;
};

ModuleSim::ModuleSim(const Module& module) : ModuleSim(module, SimOptions{}) {}

ModuleSim::ModuleSim(const Module& module, const SimOptions& options)
    : module_(module) {
  if (options.strict_undriven) check_undriven_reads(module);
  if (!module.instances().empty()) {
    throw std::runtime_error("ModuleSim: instances are not supported (" +
                             module.name() + ")");
  }
  values_.assign(module.nets().size(), 0);
  for (const Net& n : module.nets()) {
    if (n.name == "rst") rst_ = n.id;
  }
  for (const Memory& m : module.memories()) {
    memories_.emplace_back(static_cast<std::size_t>(m.depth), 0);
  }
  TapeBuilder(*this).build();
}

int ModuleSim::net_id(const std::string& name) const {
  for (const Net& n : module_.nets()) {
    if (n.name == name) return n.id;
  }
  throw std::runtime_error("ModuleSim: no net named '" + name + "'");
}

std::size_t ModuleSim::memory_index(const std::string& name) const {
  const auto& mems = module_.memories();
  for (std::size_t i = 0; i < mems.size(); ++i) {
    if (mems[i].name == name) return i;
  }
  throw std::runtime_error("ModuleSim: no memory named '" + name + "'");
}

void ModuleSim::run(const std::vector<Instr>& tape) {
  std::uint64_t* v = values_.data();
  for (const Instr& in : tape) {
    const std::uint64_t a = v[in.a];
    std::uint64_t r = 0;
    switch (in.code) {
      case Code::Copy: r = a; break;
      case Code::Not: r = ~a; break;
      case Code::And: r = a & v[in.b]; break;
      case Code::Or: r = a | v[in.b]; break;
      case Code::Xor: r = a ^ v[in.b]; break;
      case Code::Add: r = a + v[in.b]; break;
      case Code::Sub: r = a - v[in.b]; break;
      case Code::Shl: r = a << v[in.b]; break;
      case Code::Shr: r = a >> v[in.b]; break;
      case Code::Eq: r = a == v[in.b] ? 1 : 0; break;
      case Code::Ne: r = a != v[in.b] ? 1 : 0; break;
      case Code::Lt: r = a < v[in.b] ? 1 : 0; break;
      case Code::Le: r = a <= v[in.b] ? 1 : 0; break;
      case Code::Mux: r = a != 0 ? v[in.b] : v[in.c]; break;
      case Code::ReduceOr: r = a != 0 ? 1 : 0; break;
      case Code::ReduceAnd: r = (a & v[in.b]) == v[in.b] ? 1 : 0; break;
      case Code::Slice: r = a >> in.c; break;
      case Code::Concat: r = (a << in.c) | v[in.b]; break;
    }
    v[in.dst] = r & in.mask;
  }
}

void ModuleSim::settle() {
  run(comb_);
  ++settles_;
}

void ModuleSim::step() {
  // Every edge value lands in a temporary first, so the commits below all
  // see the pre-edge state.
  run(edge_);
  const bool in_reset = rst_ >= 0 && get(rst_) != 0;
  for (const RegCommit& r : regs_) {
    if (in_reset && r.has_reset) {
      values_[r.target] = r.reset_value;
    } else if (r.enable == kNone || values_[r.enable] != 0) {
      values_[r.target] = values_[r.value];
    }
  }
  // Read-first: every read port captures the pre-edge word, then the
  // write ports commit.
  for (const PortCommit& p : ports_) {
    if (p.read_data < 0) continue;
    const std::vector<std::uint64_t>& words = memories_[p.memory];
    values_[static_cast<std::size_t>(p.read_data)] =
        words[values_[p.addr] % words.size()] & p.mask;
  }
  if (!in_reset) {
    for (const PortCommit& p : ports_) {
      if (p.write_enable == kNone || values_[p.write_enable] == 0) continue;
      std::vector<std::uint64_t>& words = memories_[p.memory];
      words[values_[p.addr] % words.size()] = values_[p.write_data];
    }
  }
  ++cycles_;
}

void ModuleSim::reset() {
  if (rst_ < 0) return;
  set_input(rst_, 1);
  settle();
  step();
  set_input(rst_, 0);
}

void ModuleSim::clear_state() {
  std::fill_n(values_.begin(), module_.nets().size(), 0);
  for (auto& words : memories_) std::fill(words.begin(), words.end(), 0);
  cycles_ = 0;
  settles_ = 0;
}

std::uint64_t ModuleSim::read_mem(const std::string& mem,
                                  std::size_t addr) const {
  return memories_[memory_index(mem)].at(addr);
}

void ModuleSim::write_mem(const std::string& mem, std::size_t addr,
                          std::uint64_t value) {
  memories_[memory_index(mem)].at(addr) = value;
}

}  // namespace hicsync::rtl
