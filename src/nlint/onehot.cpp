#include "nlint/onehot.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "support/bits.h"

namespace hicsync::nlint {

const char* to_string(OneHotStatus s) {
  switch (s) {
    case OneHotStatus::Proved:
      return "proved";
    case OneHotStatus::Violation:
      return "violation";
    case OneHotStatus::Inconclusive:
      return "inconclusive";
  }
  return "?";
}

namespace {

using rtl::RtlExpr;
using rtl::RtlOp;

// ---------------------------------------------------------------------------
// Fact store: exact net values derived during one member's propagation,
// epoch-stamped so resets are O(1).
// ---------------------------------------------------------------------------

class FactStore {
 public:
  explicit FactStore(int nets)
      : value_(static_cast<std::size_t>(nets), 0),
        epoch_(static_cast<std::size_t>(nets), 0) {}

  void reset() {
    ++cur_;
    trail_.clear();
  }

  enum class Record { New, Known, Contradiction };

  Record record(int net, std::uint64_t v) {
    auto un = static_cast<std::size_t>(net);
    if (epoch_[un] == cur_) {
      return value_[un] == v ? Record::Known : Record::Contradiction;
    }
    epoch_[un] = cur_;
    value_[un] = v;
    trail_.push_back(net);
    return Record::New;
  }

  [[nodiscard]] bool known(int net) const {
    return epoch_[static_cast<std::size_t>(net)] == cur_;
  }
  [[nodiscard]] std::uint64_t value(int net) const {
    return value_[static_cast<std::size_t>(net)];
  }
  /// Nets given a value since the last reset, in derivation order.
  [[nodiscard]] const std::vector<int>& trail() const { return trail_; }

 private:
  std::vector<std::uint64_t> value_;
  std::vector<std::uint32_t> epoch_;
  std::uint32_t cur_ = 1;
  std::vector<int> trail_;
};

// ---------------------------------------------------------------------------
// Backward implication propagation.
// ---------------------------------------------------------------------------

class Propagator {
 public:
  Propagator(const NetGraph& g, FactStore& store) : g_(g), store_(store) {}

  /// Distinct 1-bit mux-select nets whose unknown value stalled
  /// propagation; candidates for global case splitting.
  std::vector<int> split_candidates;
  std::uint64_t facts = 0;

  [[nodiscard]] bool assume_net(int net, std::uint64_t v) {
    v &= support::low_mask(g_.module().net(net).width);
    switch (store_.record(net, v)) {
      case FactStore::Record::Known:
        return true;
      case FactStore::Record::Contradiction:
        return false;
      case FactStore::Record::New:
        break;
    }
    ++facts;
    const RtlExpr* drv = g_.comb_driver(net);
    if (drv == nullptr) return true;  // free variable (input/reg/mem read)
    return require(*drv, v);
  }

  /// Requires expression e to evaluate to v (masked to e.width); derives
  /// the implied net facts. Returns false on contradiction.
  [[nodiscard]] bool require(const RtlExpr& e, std::uint64_t v) {
    v &= support::low_mask(e.width);
    switch (e.op) {
      case RtlOp::Const:
        return (e.value & support::low_mask(e.width)) == v;
      case RtlOp::Ref:
        return assume_net(e.net, v);
      case RtlOp::Not:
        return require(*e.args[0],
                       (~v & support::low_mask(e.args[0]->width)));
      case RtlOp::And: {
        if (v == support::low_mask(e.width) &&
            e.args[0]->width == e.width && e.args[1]->width == e.width) {
          return require(*e.args[0], v) && require(*e.args[1], v);
        }
        if (e.width == 1 && v == 0) {
          auto a = partial_eval(*e.args[0]);
          auto b = partial_eval(*e.args[1]);
          if (a && *a != 0) return require(*e.args[1], 0);
          if (b && *b != 0) return require(*e.args[0], 0);
        }
        return true;
      }
      case RtlOp::Or: {
        if (v == 0) {
          return require(*e.args[0], 0) && require(*e.args[1], 0);
        }
        if (e.width == 1) {
          auto a = partial_eval(*e.args[0]);
          auto b = partial_eval(*e.args[1]);
          if (a && *a == 0) return require(*e.args[1], 1);
          if (b && *b == 0) return require(*e.args[0], 1);
        }
        return true;
      }
      case RtlOp::Xor: {
        auto a = partial_eval(*e.args[0]);
        auto b = partial_eval(*e.args[1]);
        if (a && e.args[1]->width == e.width) {
          return require(*e.args[1], v ^ *a);
        }
        if (b && e.args[0]->width == e.width) {
          return require(*e.args[0], v ^ *b);
        }
        return true;
      }
      case RtlOp::Eq:
      case RtlOp::Ne: {
        const bool want_equal = (e.op == RtlOp::Eq) == (v != 0);
        if (!want_equal) return true;  // disequalities carry no exact fact
        auto a = partial_eval(*e.args[0]);
        auto b = partial_eval(*e.args[1]);
        if (a && b) return *a == *b;
        if (b) return require(*e.args[0], *b);
        if (a) return require(*e.args[1], *a);
        return true;
      }
      case RtlOp::Mux: {
        auto s = partial_eval(*e.args[0]);
        if (s) return require(*s != 0 ? *e.args[1] : *e.args[2], v);
        auto t = partial_eval(*e.args[1]);
        auto f = partial_eval(*e.args[2]);
        if (t && f) {
          const std::uint64_t tv = *t & support::low_mask(e.width);
          const std::uint64_t fv = *f & support::low_mask(e.width);
          if (tv == v && fv != v) return require(*e.args[0], 1);
          if (fv == v && tv != v) return require(*e.args[0], 0);
          if (tv != v && fv != v) return false;
          return true;
        }
        nominate_split(*e.args[0]);
        return true;
      }
      case RtlOp::Slice: {
        if (e.lo == 0 && e.hi == e.args[0]->width - 1) {
          return require(*e.args[0], v);
        }
        return true;
      }
      case RtlOp::Concat: {
        int offset = e.width;
        for (const auto& part : e.args) {
          offset -= part->width;
          const std::uint64_t pv =
              (offset >= 0 ? v >> offset : 0) & support::low_mask(part->width);
          if (!require(*part, pv)) return false;
        }
        return true;
      }
      case RtlOp::ReduceOr:
        if (v == 0) return require(*e.args[0], 0);
        if (e.args[0]->width == 1) return require(*e.args[0], 1);
        return true;
      case RtlOp::ReduceAnd:
        if (v != 0) {
          return require(*e.args[0],
                         support::low_mask(e.args[0]->width));
        }
        if (e.args[0]->width == 1) return require(*e.args[0], 0);
        return true;
      case RtlOp::Add:
      case RtlOp::Sub:
      case RtlOp::Lt:
      case RtlOp::Le:
      case RtlOp::Shl:
      case RtlOp::Shr:
        return true;  // no exact backward facts
    }
    return true;
  }

 private:
  /// Value of e under current facts and folded constants, when determined.
  [[nodiscard]] std::optional<std::uint64_t> partial_eval(const RtlExpr& e) {
    switch (e.op) {
      case RtlOp::Const:
        return e.value & support::low_mask(e.width);
      case RtlOp::Ref:
        if (store_.known(e.net)) return store_.value(e.net);
        return g_.const_value(e.net);
      case RtlOp::Not: {
        auto v = partial_eval(*e.args[0]);
        if (!v) return std::nullopt;
        return ~*v & support::low_mask(e.width);
      }
      case RtlOp::And: {
        auto a = partial_eval(*e.args[0]);
        if (a && *a == 0) return 0;
        auto b = partial_eval(*e.args[1]);
        if (b && *b == 0) return 0;
        if (a && b) return *a & *b & support::low_mask(e.width);
        return std::nullopt;
      }
      case RtlOp::Or: {
        auto a = partial_eval(*e.args[0]);
        auto b = partial_eval(*e.args[1]);
        if (e.width == 1 && a && *a == 1) return 1;
        if (e.width == 1 && b && *b == 1) return 1;
        if (a && b) return (*a | *b) & support::low_mask(e.width);
        return std::nullopt;
      }
      case RtlOp::Eq: {
        auto a = partial_eval(*e.args[0]);
        auto b = partial_eval(*e.args[1]);
        if (a && b) return *a == *b ? 1 : 0;
        return std::nullopt;
      }
      case RtlOp::Mux: {
        auto s = partial_eval(*e.args[0]);
        if (!s) return std::nullopt;
        auto arm = partial_eval(*s != 0 ? *e.args[1] : *e.args[2]);
        if (!arm) return std::nullopt;
        return *arm & support::low_mask(e.width);
      }
      default: {
        // Fall back to pure constant folding for the remaining shapes.
        return g_.fold(e);
      }
    }
  }

  void nominate_split(const RtlExpr& sel) {
    if (sel.op == RtlOp::Ref && sel.width == 1 &&
        g_.module().net(sel.net).width == 1) {
      if (std::find(split_candidates.begin(), split_candidates.end(),
                    sel.net) == split_candidates.end()) {
        split_candidates.push_back(sel.net);
      }
    }
  }

  const NetGraph& g_;
  FactStore& store_;
};

// ---------------------------------------------------------------------------
// Pair-coverage bookkeeping: one bit row per member.
// ---------------------------------------------------------------------------

class PairMatrix {
 public:
  PairMatrix(int k, bool ones) : k_(k), words_((k + 63) / 64) {
    bits_.assign(static_cast<std::size_t>(k_) * words_,
                 ones ? ~0ULL : 0ULL);
  }

  void set(int i, int j) {
    bits_[static_cast<std::size_t>(i) * words_ +
          static_cast<std::size_t>(j / 64)] |= 1ULL << (j % 64);
    bits_[static_cast<std::size_t>(j) * words_ +
          static_cast<std::size_t>(i / 64)] |= 1ULL << (i % 64);
  }

  void set_row(int i) {
    for (std::size_t w = 0; w < words_; ++w) {
      bits_[static_cast<std::size_t>(i) * words_ + w] = ~0ULL;
    }
    for (int j = 0; j < k_; ++j) set(i, j);
  }

  [[nodiscard]] bool get(int i, int j) const {
    return (bits_[static_cast<std::size_t>(i) * words_ +
                  static_cast<std::size_t>(j / 64)] >>
            (j % 64)) &
           1ULL;
  }

  void or_into_row(int i, const std::vector<std::uint64_t>& row) {
    for (std::size_t w = 0; w < words_; ++w) {
      bits_[static_cast<std::size_t>(i) * words_ + w] |= row[w];
    }
  }

  void and_with(const PairMatrix& other) {
    for (std::size_t w = 0; w < bits_.size(); ++w) bits_[w] &= other.bits_[w];
  }

  [[nodiscard]] int words() const { return static_cast<int>(words_); }

 private:
  int k_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

// Per-net value groups accumulated during one case.
struct NetGroups {
  // Parallel arrays: distinct values seen, and the members that derived
  // each value. Nearly always two groups, one a singleton.
  std::vector<std::uint64_t> values;
  std::vector<std::vector<int>> members;

  void add(std::uint64_t v, int member) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] == v) {
        members[i].push_back(member);
        return;
      }
    }
    values.push_back(v);
    members.push_back({member});
  }
};

// ---------------------------------------------------------------------------
// Exhaustive fallback: evaluate the pair's cones over every assignment of
// their (small) free support.
// ---------------------------------------------------------------------------

class ConeEval {
 public:
  explicit ConeEval(const NetGraph& g)
      : g_(g),
        value_(static_cast<std::size_t>(g.net_count()), 0),
        state_(static_cast<std::size_t>(g.net_count()), 0),
        epoch_(static_cast<std::size_t>(g.net_count()), 0) {}

  void new_assignment() { ++cur_; }

  void set(int net, std::uint64_t v) {
    auto un = static_cast<std::size_t>(net);
    epoch_[un] = cur_;
    state_[un] = 2;
    value_[un] = v & support::low_mask(g_.module().net(net).width);
  }

  std::uint64_t net_value(int net) {
    auto un = static_cast<std::size_t>(net);
    if (epoch_[un] == cur_ && state_[un] == 2) return value_[un];
    if (epoch_[un] == cur_ && state_[un] == 1) return 0;  // comb cycle guard
    epoch_[un] = cur_;
    state_[un] = 1;
    const RtlExpr* drv = g_.comb_driver(net);
    std::uint64_t v = 0;
    if (drv != nullptr) {
      v = eval(*drv) & support::low_mask(g_.module().net(net).width);
    }
    epoch_[un] = cur_;
    state_[un] = 2;
    value_[un] = v;
    return v;
  }

  std::uint64_t eval(const RtlExpr& e) {
    auto m = [&](std::uint64_t v) { return v & support::low_mask(e.width); };
    switch (e.op) {
      case RtlOp::Const:
        return m(e.value);
      case RtlOp::Ref:
        return net_value(e.net);
      case RtlOp::Slice:
        return (eval(*e.args[0]) >> e.lo) & support::low_mask(e.hi - e.lo + 1);
      case RtlOp::Concat: {
        std::uint64_t v = 0;
        for (const auto& a : e.args) {
          v = (v << a->width) | (eval(*a) & support::low_mask(a->width));
        }
        return m(v);
      }
      case RtlOp::Not:
        return m(~eval(*e.args[0]));
      case RtlOp::And:
        return m(eval(*e.args[0]) & eval(*e.args[1]));
      case RtlOp::Or:
        return m(eval(*e.args[0]) | eval(*e.args[1]));
      case RtlOp::Xor:
        return m(eval(*e.args[0]) ^ eval(*e.args[1]));
      case RtlOp::Add:
        return m(eval(*e.args[0]) + eval(*e.args[1]));
      case RtlOp::Sub:
        return m(eval(*e.args[0]) - eval(*e.args[1]));
      case RtlOp::Eq:
        return eval(*e.args[0]) == eval(*e.args[1]) ? 1 : 0;
      case RtlOp::Ne:
        return eval(*e.args[0]) != eval(*e.args[1]) ? 1 : 0;
      case RtlOp::Lt:
        return eval(*e.args[0]) < eval(*e.args[1]) ? 1 : 0;
      case RtlOp::Le:
        return eval(*e.args[0]) <= eval(*e.args[1]) ? 1 : 0;
      case RtlOp::Shl:
        return m(eval(*e.args[0]) << eval(*e.args[1]));
      case RtlOp::Shr:
        return m(eval(*e.args[0]) >> eval(*e.args[1]));
      case RtlOp::Mux:
        return m(eval(*e.args[0]) != 0 ? eval(*e.args[1])
                                       : eval(*e.args[2]));
      case RtlOp::ReduceOr:
        return eval(*e.args[0]) != 0 ? 1 : 0;
      case RtlOp::ReduceAnd:
        return (eval(*e.args[0]) & support::low_mask(e.args[0]->width)) ==
                       support::low_mask(e.args[0]->width)
                   ? 1
                   : 0;
    }
    return 0;
  }

 private:
  const NetGraph& g_;
  std::vector<std::uint64_t> value_;
  std::vector<char> state_;  // 0 none, 1 in progress, 2 done (this epoch)
  std::vector<std::uint32_t> epoch_;
  std::uint32_t cur_ = 1;
};

struct EnumResult {
  enum class Kind { Proved, Violation, TooWide } kind = Kind::TooWide;
  std::string witness;
};

EnumResult enumerate_pair(const NetGraph& g, int a, int b, int max_bits) {
  EnumResult res;
  std::vector<int> support = g.cone_support({a, b});
  int total_bits = 0;
  for (int s : support) total_bits += g.module().net(s).width;
  if (total_bits > max_bits) return res;  // TooWide

  ConeEval eval(g);
  const std::uint64_t limit = 1ULL << total_bits;
  for (std::uint64_t word = 0; word < limit; ++word) {
    eval.new_assignment();
    int off = 0;
    for (int s : support) {
      const int w = g.module().net(s).width;
      eval.set(s, (word >> off) & support::low_mask(w));
      off += w;
    }
    if (eval.net_value(a) != 0 && eval.net_value(b) != 0) {
      std::ostringstream witness;
      bool any = false;
      int woff = 0;
      for (int s : support) {
        const int w = g.module().net(s).width;
        const std::uint64_t v = (word >> woff) & support::low_mask(w);
        woff += w;
        if (v == 0) continue;
        if (any) witness << ' ';
        witness << g.net_name(s) << '=' << v;
        any = true;
      }
      if (!any) witness << "(all cone inputs 0)";
      witness << " -> " << g.net_name(a) << "=1 " << g.net_name(b) << "=1";
      res.kind = EnumResult::Kind::Violation;
      res.witness = witness.str();
      return res;
    }
  }
  res.kind = EnumResult::Kind::Proved;
  return res;
}

}  // namespace

// ---------------------------------------------------------------------------

OneHotOutcome prove_onehot(const NetGraph& g, const std::vector<int>& members,
                           const OneHotOptions& opt) {
  OneHotOutcome out;

  // Deduplicate while preserving order; a literally repeated net can
  // trivially be high "twice", so report it as a violation outright.
  std::vector<int> ms;
  for (int m : members) {
    if (std::find(ms.begin(), ms.end(), m) != ms.end()) {
      out.status = OneHotStatus::Violation;
      out.net_a = out.net_b = m;
      out.witness = g.net_name(m) + " listed twice in the claim";
      return out;
    }
    ms.push_back(m);
  }
  const int k = static_cast<int>(ms.size());
  out.pairs_total = k * (k - 1) / 2;
  if (k < 2) {
    out.status = OneHotStatus::Proved;
    out.cases_used = 0;
    return out;
  }

  FactStore store(g.net_count());
  std::vector<int> split_nets;  // grows after a failed round

  // covered(i,j) once a contradiction separates the pair in EVERY case.
  PairMatrix covered(k, /*ones=*/false);

  auto run_round = [&](const std::vector<int>& splits) {
    const int ncases = 1 << splits.size();
    PairMatrix all_cases(k, /*ones=*/true);
    std::vector<int> next_candidates;
    for (int c = 0; c < ncases; ++c) {
      PairMatrix case_cov(k, /*ones=*/false);
      // Seed facts defining this case.
      store.reset();
      Propagator seed_prop(g, store);
      bool case_possible = true;
      for (std::size_t b = 0; b < splits.size(); ++b) {
        if (!seed_prop.assume_net(splits[b], (c >> b) & 1ULL)) {
          case_possible = false;
          break;
        }
      }
      out.facts_derived += seed_prop.facts;
      if (!case_possible) continue;  // vacuous: everything stays covered
      std::vector<std::pair<int, std::uint64_t>> seed_facts;
      for (int net : store.trail()) {
        seed_facts.emplace_back(net, store.value(net));
      }

      std::vector<NetGroups> groups(static_cast<std::size_t>(g.net_count()));
      std::vector<int> touched;
      std::vector<char> impossible(static_cast<std::size_t>(k), 0);
      for (int i = 0; i < k; ++i) {
        store.reset();
        bool ok = true;
        for (const auto& [net, v] : seed_facts) {
          // Replaying recorded closures: plain inserts, no re-derivation.
          if (store.record(net, v) == FactStore::Record::Contradiction) {
            ok = false;
            break;
          }
        }
        Propagator prop(g, store);
        ok = ok && prop.assume_net(ms[static_cast<std::size_t>(i)], 1);
        out.facts_derived += prop.facts;
        for (int cand : prop.split_candidates) {
          if (std::find(next_candidates.begin(), next_candidates.end(),
                        cand) == next_candidates.end()) {
            next_candidates.push_back(cand);
          }
        }
        if (!ok) {
          impossible[static_cast<std::size_t>(i)] = 1;
          continue;
        }
        // The first seed_facts.size() trail entries are the replayed seeds;
        // everything after is this member's own closure.
        const std::vector<int>& trail = store.trail();
        for (std::size_t t = seed_facts.size(); t < trail.size(); ++t) {
          const int net = trail[t];
          NetGroups& ng = groups[static_cast<std::size_t>(net)];
          if (ng.values.empty()) touched.push_back(net);
          ng.add(store.value(net), i);
        }
      }

      // Conflicts: members deriving different values of the same net.
      std::vector<std::uint64_t> row(static_cast<std::size_t>(
          covered.words()));
      for (int net : touched) {
        const NetGroups& ng = groups[static_cast<std::size_t>(net)];
        if (ng.values.size() < 2) continue;
        for (std::size_t a = 0; a < ng.values.size(); ++a) {
          for (std::size_t b = a + 1; b < ng.values.size(); ++b) {
            const auto& ga = ng.members[a];
            const auto& gb = ng.members[b];
            const auto& small = ga.size() <= gb.size() ? ga : gb;
            const auto& large = ga.size() <= gb.size() ? gb : ga;
            if (small.size() == 1) {
              const int s = small.front();
              std::fill(row.begin(), row.end(), 0);
              for (int o : large) {
                row[static_cast<std::size_t>(o / 64)] |= 1ULL << (o % 64);
                case_cov.set(o, s);
              }
              case_cov.or_into_row(s, row);
            } else {
              for (int x : small) {
                for (int y : large) case_cov.set(x, y);
              }
            }
          }
        }
      }
      for (int i = 0; i < k; ++i) {
        if (impossible[static_cast<std::size_t>(i)] != 0) case_cov.set_row(i);
      }
      all_cases.and_with(case_cov);
    }
    covered = all_cases;
    out.cases_used += ncases;
    return next_candidates;
  };

  std::vector<int> candidates = run_round(split_nets);

  auto all_covered = [&]() {
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        if (!covered.get(i, j)) return false;
      }
    }
    return true;
  };

  if (!all_covered() && !candidates.empty()) {
    for (int cand : candidates) {
      if (static_cast<int>(split_nets.size()) >= opt.max_split_nets) break;
      split_nets.push_back(cand);
    }
    run_round(split_nets);
  }

  // Count implication-proved pairs, then hand leftovers to enumeration.
  std::vector<std::pair<int, int>> unproved;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (covered.get(i, j)) {
        ++out.pairs_by_implication;
      } else {
        unproved.emplace_back(i, j);
      }
    }
  }

  int fallback_used = 0;
  for (const auto& [i, j] : unproved) {
    const int a = ms[static_cast<std::size_t>(i)];
    const int b = ms[static_cast<std::size_t>(j)];
    if (fallback_used >= opt.max_fallback_pairs) {
      out.status = OneHotStatus::Inconclusive;
      out.net_a = a;
      out.net_b = b;
      out.detail = "fallback budget exhausted";
      return out;
    }
    ++fallback_used;
    EnumResult er = enumerate_pair(g, a, b, opt.max_enum_bits);
    switch (er.kind) {
      case EnumResult::Kind::Proved:
        ++out.pairs_by_enumeration;
        break;
      case EnumResult::Kind::Violation:
        out.status = OneHotStatus::Violation;
        out.net_a = a;
        out.net_b = b;
        out.witness = std::move(er.witness);
        return out;
      case EnumResult::Kind::TooWide:
        out.status = OneHotStatus::Inconclusive;
        out.net_a = a;
        out.net_b = b;
        out.detail = "cone support exceeds the enumeration budget";
        return out;
    }
  }

  out.status = OneHotStatus::Proved;
  {
    std::ostringstream d;
    d << out.pairs_total << " pair(s) proved ("
      << out.pairs_by_implication << " by implication, "
      << out.pairs_by_enumeration << " by enumeration) across "
      << out.cases_used << " case(s)";
    if (!split_nets.empty()) {
      d << ", split on";
      for (int s : split_nets) d << ' ' << g.net_name(s);
    }
    out.detail = d.str();
  }
  return out;
}

}  // namespace hicsync::nlint
