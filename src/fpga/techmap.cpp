#include "fpga/techmap.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "memalloc/bram.h"
#include "support/strings.h"

namespace hicsync::fpga {
namespace {

enum class NodeKind { Const, PI, Gate, Carry };

struct Node {
  NodeKind kind = NodeKind::Gate;
  std::vector<int> fanins;
  int fanout = 0;
  int chain_pos = 0;  // position along a carry chain (Carry only)
};

/// Bit-blasting context for one module.
class Blaster {
 public:
  explicit Blaster(const rtl::Module& m) : m_(m) {
    const0_ = add_node(NodeKind::Const);
    const1_ = add_node(NodeKind::Const);
  }

  void run() {
    const auto& assigns = m_.assigns();
    for (int i : rtl::assign_order(m_, "techmap")) {
      const rtl::ContAssign& a = assigns[static_cast<std::size_t>(i)];
      std::vector<int> bits = blast(*a.value);
      bits.resize(static_cast<std::size_t>(m_.net(a.target).width), const0_);
      net_bits_[a.target] = std::move(bits);
    }
    // Roots: register D inputs and enables, memory port expressions.
    for (const rtl::SeqAssign& s : m_.seqs()) {
      add_roots(blast(*s.value));
      if (s.enable != nullptr) add_roots(blast(*s.enable));
    }
    for (const rtl::Memory& mem : m_.memories()) {
      for (const rtl::MemoryPort& p : mem.ports) {
        add_roots(blast(*p.addr));
        if (p.write_enable != nullptr) add_roots(blast(*p.write_enable));
        if (p.write_data != nullptr) add_roots(blast(*p.write_data));
      }
    }
    // Output port cones are roots too.
    for (const rtl::Port& p : m_.ports()) {
      if (p.dir == rtl::PortDir::Output) add_roots(bits_of_net(p.net));
    }
  }

  /// Greedy LUT4 covering + level computation.
  MapResult cover(const Virtex2ProDevice& device) const {
    MapResult r;
    std::vector<char> absorbed(nodes_.size(), 0);
    std::vector<std::vector<int>> leaves(nodes_.size());
    std::vector<int> level(nodes_.size(), 0);
    std::vector<int> chain_into(nodes_.size(), 0);  // carry bits on path

    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      if (n.kind == NodeKind::Const || n.kind == NodeKind::PI) continue;
      if (n.kind == NodeKind::Carry) {
        int lv = 0;
        int chain = 0;
        for (int f : n.fanins) {
          auto fi = static_cast<std::size_t>(f);
          if (nodes_[fi].kind == NodeKind::Carry) {
            // Along the chain: no extra LUT level, carry bit accumulates.
            lv = std::max(lv, level[fi]);
            chain = std::max(chain, chain_into[fi] + 1);
          } else {
            lv = std::max(lv, level[fi] + 1);
            chain = std::max(chain, 1);
          }
        }
        level[id] = lv;
        chain_into[id] = chain;
        continue;
      }
      // Gate: grow a cone.
      std::vector<int> cone;
      for (int f : n.fanins) {
        if (std::find(cone.begin(), cone.end(), f) == cone.end()) {
          cone.push_back(f);
        }
      }
      bool grew = true;
      while (grew && cone.size() <= 4) {
        grew = false;
        for (std::size_t li = 0; li < cone.size(); ++li) {
          int cand = cone[li];
          auto ci = static_cast<std::size_t>(cand);
          if (nodes_[ci].kind != NodeKind::Gate) continue;
          if (nodes_[ci].fanout != 1) continue;
          // Tentative merge.
          std::vector<int> merged;
          for (std::size_t k = 0; k < cone.size(); ++k) {
            if (k != li) merged.push_back(cone[k]);
          }
          for (int f : leaves[ci]) {
            if (std::find(merged.begin(), merged.end(), f) == merged.end()) {
              merged.push_back(f);
            }
          }
          if (merged.size() <= 4) {
            cone = std::move(merged);
            absorbed[ci] = 1;
            grew = true;
            break;
          }
        }
      }
      leaves[id].assign(cone.begin(), cone.end());
      int lv = 0;
      int chain = 0;
      for (int f : cone) {
        auto fi = static_cast<std::size_t>(f);
        lv = std::max(lv, level[fi] + 1);
        chain = std::max(chain, chain_into[fi]);
      }
      level[id] = lv;
      chain_into[id] = chain;
    }

    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      if (n.kind == NodeKind::Carry) {
        ++r.luts;
        ++r.carry_luts;
      } else if (n.kind == NodeKind::Gate && !absorbed[id]) {
        ++r.luts;
      }
      r.logic_levels = std::max(r.logic_levels, level[id]);
      r.max_carry_bits = std::max(r.max_carry_bits, chain_into[id]);
    }

    r.ffs = m_.flipflop_bits();
    int lut_slices = (r.luts + device.luts_per_slice - 1) /
                     device.luts_per_slice;
    int ff_slices = (r.ffs + device.ffs_per_slice - 1) /
                    device.ffs_per_slice;
    r.slices = std::max(lut_slices, ff_slices);
    for (const rtl::Memory& mem : m_.memories()) {
      r.bram_blocks += memalloc::BramModel::primitives_for(
          mem.width, static_cast<std::int64_t>(mem.depth));
    }
    return r;
  }

 private:
  int add_node(NodeKind kind, std::vector<int> fanins = {}) {
    for (int f : fanins) ++nodes_[static_cast<std::size_t>(f)].fanout;
    Node n;
    n.kind = kind;
    n.fanins = std::move(fanins);
    nodes_.push_back(std::move(n));
    return static_cast<int>(nodes_.size()) - 1;
  }

  void add_roots(const std::vector<int>& bits) {
    for (int b : bits) ++nodes_[static_cast<std::size_t>(b)].fanout;
  }

  const std::vector<int>& bits_of_net(int net) {
    auto it = net_bits_.find(net);
    if (it != net_bits_.end()) return it->second;
    // Not driven combinationally: a primary input, a register output, or a
    // memory read register — PIs for mapping purposes.
    std::vector<int> bits;
    int w = m_.net(net).width;
    for (int i = 0; i < w; ++i) bits.push_back(add_node(NodeKind::PI));
    return net_bits_.emplace(net, std::move(bits)).first->second;
  }

  std::vector<int> extend(std::vector<int> bits, int width) const {
    bits.resize(static_cast<std::size_t>(width), const0_);
    return bits;
  }

  std::vector<int> blast(const rtl::RtlExpr& e) {
    using rtl::RtlOp;
    switch (e.op) {
      case RtlOp::Const: {
        std::vector<int> bits;
        for (int i = 0; i < e.width; ++i) {
          bits.push_back(((e.value >> i) & 1) != 0 ? const1_ : const0_);
        }
        return bits;
      }
      case RtlOp::Ref:
        return bits_of_net(e.net);
      case RtlOp::Slice: {
        std::vector<int> base = blast(*e.args[0]);
        std::vector<int> bits;
        for (int i = e.lo; i <= e.hi; ++i) {
          bits.push_back(i < static_cast<int>(base.size())
                             ? base[static_cast<std::size_t>(i)]
                             : const0_);
        }
        return bits;
      }
      case RtlOp::Concat: {
        // args[0] holds the MSBs.
        std::vector<int> bits;
        for (auto it = e.args.rbegin(); it != e.args.rend(); ++it) {
          std::vector<int> part = blast(**it);
          bits.insert(bits.end(), part.begin(), part.end());
        }
        return bits;
      }
      case RtlOp::Not: {
        std::vector<int> a = extend(blast(*e.args[0]), e.width);
        std::vector<int> bits;
        for (int b : a) {
          if (b == const0_) {
            bits.push_back(const1_);
          } else if (b == const1_) {
            bits.push_back(const0_);
          } else {
            bits.push_back(add_node(NodeKind::Gate, {b}));
          }
        }
        return bits;
      }
      case RtlOp::And:
      case RtlOp::Or:
      case RtlOp::Xor: {
        std::vector<int> a = extend(blast(*e.args[0]), e.width);
        std::vector<int> b = extend(blast(*e.args[1]), e.width);
        std::vector<int> bits;
        for (int i = 0; i < e.width; ++i) {
          auto ai = a[static_cast<std::size_t>(i)];
          auto bi = b[static_cast<std::size_t>(i)];
          // Constant folding keeps controller constants free.
          if (e.op == RtlOp::And && (ai == const0_ || bi == const0_)) {
            bits.push_back(const0_);
          } else if (e.op == RtlOp::And && ai == const1_) {
            bits.push_back(bi);
          } else if (e.op == RtlOp::And && bi == const1_) {
            bits.push_back(ai);
          } else if (e.op == RtlOp::Or && (ai == const1_ || bi == const1_)) {
            bits.push_back(const1_);
          } else if (e.op == RtlOp::Or && ai == const0_) {
            bits.push_back(bi);
          } else if (e.op == RtlOp::Or && bi == const0_) {
            bits.push_back(ai);
          } else {
            bits.push_back(add_node(NodeKind::Gate, {ai, bi}));
          }
        }
        return bits;
      }
      case RtlOp::Add:
      case RtlOp::Sub: {
        std::vector<int> a = extend(blast(*e.args[0]), e.width);
        std::vector<int> b = extend(blast(*e.args[1]), e.width);
        // Carry chain: one Carry node per bit, chained.
        std::vector<int> bits;
        int prev = -1;
        for (int i = 0; i < e.width; ++i) {
          std::vector<int> fanins{a[static_cast<std::size_t>(i)],
                                  b[static_cast<std::size_t>(i)]};
          if (prev >= 0) fanins.push_back(prev);
          int node = add_node(NodeKind::Carry, std::move(fanins));
          bits.push_back(node);
          prev = node;
        }
        return bits;
      }
      case RtlOp::Lt:
      case RtlOp::Le: {
        std::vector<int> a = blast(*e.args[0]);
        std::vector<int> b = blast(*e.args[1]);
        int w = std::max(a.size(), b.size());
        a = extend(std::move(a), static_cast<int>(w));
        b = extend(std::move(b), static_cast<int>(w));
        int prev = -1;
        for (std::size_t i = 0; i < static_cast<std::size_t>(w); ++i) {
          std::vector<int> fanins{a[i], b[i]};
          if (prev >= 0) fanins.push_back(prev);
          prev = add_node(NodeKind::Carry, std::move(fanins));
        }
        return {prev < 0 ? const0_ : prev};
      }
      case RtlOp::Eq:
      case RtlOp::Ne: {
        std::vector<int> a = blast(*e.args[0]);
        std::vector<int> b = blast(*e.args[1]);
        int w = static_cast<int>(std::max(a.size(), b.size()));
        a = extend(std::move(a), w);
        b = extend(std::move(b), w);
        std::vector<int> xs;
        for (int i = 0; i < w; ++i) {
          auto ai = a[static_cast<std::size_t>(i)];
          auto bi = b[static_cast<std::size_t>(i)];
          const bool a_const = ai == const0_ || ai == const1_;
          const bool b_const = bi == const0_ || bi == const1_;
          if (a_const && b_const) {
            xs.push_back(ai == bi ? const1_ : const0_);
          } else if (ai == bi) {
            xs.push_back(const1_);
          } else if (b_const) {
            // Bit equals a constant: pass-through or inversion; the INV is
            // absorbed into the reduce tree by the coverer.
            xs.push_back(bi == const1_ ? ai
                                       : add_node(NodeKind::Gate, {ai}));
          } else if (a_const) {
            xs.push_back(ai == const1_ ? bi
                                       : add_node(NodeKind::Gate, {bi}));
          } else {
            xs.push_back(add_node(NodeKind::Gate, {ai, bi}));  // XNOR
          }
        }
        // AND-reduce the per-bit equalities (constant-true bits drop out).
        std::vector<int> live;
        for (int x : xs) {
          if (x == const1_) continue;
          if (x == const0_) return {e.op == RtlOp::Eq ? const0_ : const1_};
          live.push_back(x);
        }
        int result = reduce_tree(live, const1_);
        if (e.op == RtlOp::Ne) {
          result = (result == const0_)   ? const1_
                   : (result == const1_) ? const0_
                       : add_node(NodeKind::Gate, {result});
        }
        return {result};
      }
      case RtlOp::Shl:
      case RtlOp::Shr: {
        if (e.args[1]->op != RtlOp::Const) {
          throw std::runtime_error(
              "techmap: only constant shift amounts are supported");
        }
        std::vector<int> a = extend(blast(*e.args[0]), e.width);
        int sh = static_cast<int>(e.args[1]->value);
        std::vector<int> bits(static_cast<std::size_t>(e.width), const0_);
        for (int i = 0; i < e.width; ++i) {
          int src = e.op == RtlOp::Shl ? i - sh : i + sh;
          if (src >= 0 && src < e.width) {
            bits[static_cast<std::size_t>(i)] =
                a[static_cast<std::size_t>(src)];
          }
        }
        return bits;
      }
      case RtlOp::Mux: {
        std::vector<int> sel = blast(*e.args[0]);
        std::vector<int> t = extend(blast(*e.args[1]), e.width);
        std::vector<int> f = extend(blast(*e.args[2]), e.width);
        int s = sel.empty() ? const0_ : sel[0];
        std::vector<int> bits;
        for (int i = 0; i < e.width; ++i) {
          auto ti = t[static_cast<std::size_t>(i)];
          auto fi = f[static_cast<std::size_t>(i)];
          if (s == const1_) {
            bits.push_back(ti);
          } else if (s == const0_) {
            bits.push_back(fi);
          } else if (ti == fi) {
            bits.push_back(ti);
          } else if (ti == const1_ && fi == const0_) {
            bits.push_back(s);  // sel ? 1 : 0 == sel
          } else {
            bits.push_back(add_node(NodeKind::Gate, {s, ti, fi}));
          }
        }
        return bits;
      }
      case RtlOp::ReduceOr:
      case RtlOp::ReduceAnd: {
        std::vector<int> a = blast(*e.args[0]);
        std::vector<int> live;
        const bool is_or = e.op == RtlOp::ReduceOr;
        for (int x : a) {
          if (x == (is_or ? const0_ : const1_)) continue;
          if (x == (is_or ? const1_ : const0_)) {
            return {is_or ? const1_ : const0_};
          }
          live.push_back(x);
        }
        return {reduce_tree(live, is_or ? const0_ : const1_)};
      }
    }
    throw std::runtime_error("techmap: unhandled expression op");
  }

  /// Balanced reduction tree over 1-bit nodes; identity when empty.
  int reduce_tree(std::vector<int> xs, int identity) {
    if (xs.empty()) return identity;
    while (xs.size() > 1) {
      std::vector<int> next;
      // Up to 4 inputs fold into one LUT level.
      for (std::size_t i = 0; i < xs.size(); i += 4) {
        std::vector<int> group(
            xs.begin() + static_cast<std::ptrdiff_t>(i),
            xs.begin() + static_cast<std::ptrdiff_t>(
                             std::min(i + 4, xs.size())));
        if (group.size() == 1) {
          next.push_back(group[0]);
        } else {
          next.push_back(add_node(NodeKind::Gate, std::move(group)));
        }
      }
      xs = std::move(next);
    }
    return xs[0];
  }

  const rtl::Module& m_;
  std::vector<Node> nodes_;
  std::map<int, std::vector<int>> net_bits_;
  int const0_ = -1;
  int const1_ = -1;
};

}  // namespace

std::string MapResult::str() const {
  return support::format(
      "LUT %d (carry %d)  FF %d  slices %d  BRAM %d  depth %d levels "
      "(+%d carry bits)",
      luts, carry_luts, ffs, slices, bram_blocks, logic_levels,
      max_carry_bits);
}

MapResult TechMapper::map(const rtl::Module& module) const {
  Blaster blaster(module);
  blaster.run();
  return blaster.cover(device_);
}

}  // namespace hicsync::fpga
