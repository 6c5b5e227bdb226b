#include "bound/blocking.h"

#include <algorithm>

#include "bound/lattice.h"
#include "support/graph.h"
#include "support/strings.h"

namespace hicsync::bound {

namespace {

using verify::SyncOp;

/// Marks the nodes of one thread graph (successors from NodeModel, which
/// include the Exit→Entry restart edge) that lie on a cycle made of
/// usable nodes: a node is "on a cycle" when its SCC is nontrivial or it
/// has a usable self-loop. `scc` is scratch reused across calls.
std::vector<char> cycle_nodes(const verify::ThreadModel& tm,
                              const std::vector<char>& usable,
                              support::Scc& scc) {
  const int n = static_cast<int>(tm.nodes.size());
  auto succs = [&](int v) -> const std::vector<int>& {
    return tm.nodes[static_cast<std::size_t>(v)].succs;
  };
  scc.run(n, succs,
          [&](int v) { return usable[static_cast<std::size_t>(v)] != 0; });
  std::vector<char> on_cycle(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    const int c = scc.comp(v);
    if (c < 0) continue;
    const std::vector<int>& out = succs(v);
    on_cycle[static_cast<std::size_t>(v)] =
        scc.members(c).size() > 1 ||
        std::find(out.begin(), out.end(), v) != out.end();
  }
  return on_cycle;
}

struct EndpointAnalysis {
  const verify::ProgramModel& model;
  int d0;       // frozen dependency
  int c;        // frozen consumer thread
  bool explain;
  BlockingStaticBound* out;
  support::Scc& scc;  // shared by every endpoint of one analysis

  // Dep-level usability (arbitrated) / controller usability (event-driven),
  // shrunk to a greatest fixpoint.
  std::vector<char> produce_usable;
  std::vector<char> consume_usable;
  std::vector<char> controller_usable;
  std::vector<char> live;
  std::vector<std::vector<char>> on_cycle;  // per thread, per node

  bool op_usable(const SyncOp& op) const {
    if (model.organization() == sim::OrgKind::Arbitrated) {
      return op.kind == SyncOp::Kind::Produce
                 ? produce_usable[static_cast<std::size_t>(op.dep)] != 0
                 : consume_usable[static_cast<std::size_t>(op.dep)] != 0;
    }
    return controller_usable[static_cast<std::size_t>(op.controller)] != 0;
  }

  void recompute_threads() {
    for (std::size_t t = 0; t < model.threads().size(); ++t) {
      const verify::ThreadModel& tm = model.threads()[t];
      if (static_cast<int>(t) == c) {
        live[t] = 0;
        std::fill(on_cycle[t].begin(), on_cycle[t].end(), 0);
        continue;
      }
      std::vector<char> usable(tm.nodes.size(), 1);
      for (std::size_t n = 0; n < tm.nodes.size(); ++n) {
        for (const SyncOp& op : tm.nodes[n].ops) {
          if (!op_usable(op)) usable[n] = 0;
        }
      }
      on_cycle[t] = cycle_nodes(tm, usable, scc);
      live[t] = 0;
      for (char oc : on_cycle[t]) {
        if (oc) live[t] = 1;
      }
    }
  }

  /// Some consumer endpoint of dep e, other than the frozen thread, can
  /// cycle through its consume site (so the countdown of e can drain
  /// every round).
  bool drain_ok(int e) const {
    const verify::DepModel& dm = model.deps()[static_cast<std::size_t>(e)];
    for (const verify::DepModel::ConsumeSite& site : dm.consume_sites) {
      if (site.thread < 0 || site.thread == c || site.node < 0) continue;
      if (on_cycle[static_cast<std::size_t>(site.thread)]
                  [static_cast<std::size_t>(site.node)]) {
        return true;
      }
    }
    return false;
  }

  void run() {
    const std::size_t nd = model.deps().size();
    const std::size_t nc = model.controllers().size();
    produce_usable.assign(nd, 1);
    consume_usable.assign(nd, 1);
    controller_usable.assign(nc, 1);
    live.assign(model.threads().size(), 1);
    on_cycle.assign(model.threads().size(), {});

    const verify::DepModel& frozen =
        model.deps()[static_cast<std::size_t>(d0)];
    if (model.organization() == sim::OrgKind::Arbitrated) {
      // The guard stays disabled only while countdown(d0) == 0, which
      // rules out every op on d0 for the whole blocked stretch.
      produce_usable[static_cast<std::size_t>(d0)] = 0;
      consume_usable[static_cast<std::size_t>(d0)] = 0;
    } else if (frozen.controller >= 0) {
      // The schedule of c's controller is parked short of c's slot; no op
      // of that controller can happen without first enabling the guard.
      controller_usable[static_cast<std::size_t>(frozen.controller)] = 0;
    }

    int round = 0;
    bool changed = true;
    while (changed) {
      ++round;
      recompute_threads();
      changed = false;
      if (model.organization() == sim::OrgKind::Arbitrated) {
        for (std::size_t e = 0; e < nd; ++e) {
          const verify::DepModel& dm = model.deps()[e];
          if (produce_usable[e] && !drain_ok(static_cast<int>(e))) {
            produce_usable[e] = 0;
            changed = true;
            if (explain) {
              out->provenance.push_back(support::format(
                  "round %d: produce('%s') cannot recur — no consumer "
                  "other than the frozen thread can cycle through a "
                  "consume of it, so its countdown never drains",
                  round, dm.dep->id.c_str()));
            }
          }
          bool prod_live =
              dm.producer_thread >= 0 && dm.producer_thread != c &&
              live[static_cast<std::size_t>(dm.producer_thread)] != 0 &&
              produce_usable[e] != 0;
          if (consume_usable[e] && !prod_live) {
            consume_usable[e] = 0;
            changed = true;
            if (explain) {
              out->provenance.push_back(support::format(
                  "round %d: consume('%s') cannot recur — its producer "
                  "cannot produce it infinitely often under the freeze",
                  round, dm.dep->id.c_str()));
            }
          }
        }
      } else {
        for (std::size_t x = 0; x < nc; ++x) {
          if (!controller_usable[x]) continue;
          bool owners_live = true;
          for (int di : model.controllers()[x].deps) {
            const verify::DepModel& dm =
                model.deps()[static_cast<std::size_t>(di)];
            if (dm.producer_thread < 0 || dm.producer_thread == c ||
                !live[static_cast<std::size_t>(dm.producer_thread)]) {
              owners_live = false;
            }
            for (const verify::DepModel::ConsumeSite& site :
                 dm.consume_sites) {
              if (site.thread < 0 || site.thread == c ||
                  !live[static_cast<std::size_t>(site.thread)]) {
                owners_live = false;
              }
            }
          }
          if (!owners_live) {
            controller_usable[x] = 0;
            changed = true;
            if (explain) {
              out->provenance.push_back(support::format(
                  "round %d: bram%d schedule cannot complete a round — a "
                  "slot owner cannot move infinitely often under the "
                  "freeze",
                  round, model.controllers()[x].bram_id));
            }
          }
        }
      }
    }
  }
};

}  // namespace

std::vector<BlockingStaticBound> blocking_bounds(
    const verify::ProgramModel& model, bool explain) {
  std::vector<BlockingStaticBound> out;

  // Controller-state factor of the region-size bound, shared by every
  // endpoint: arbitrated Π(N_d + 1) countdown values, event-driven
  // Π total_slots slot values.
  std::uint64_t ctrl_states = 1;
  if (model.organization() == sim::OrgKind::Arbitrated) {
    for (const verify::DepModel& dm : model.deps()) {
      ctrl_states = sat_mul(
          ctrl_states,
          static_cast<std::uint64_t>(std::max(dm.dependency_number, 0)) + 1);
    }
  } else {
    for (const verify::ControllerModel& cm : model.controllers()) {
      ctrl_states = sat_mul(
          ctrl_states,
          static_cast<std::uint64_t>(std::max(cm.total_slots, 1)));
    }
  }

  support::Scc scc;
  for (std::size_t di = 0; di < model.deps().size(); ++di) {
    const verify::DepModel& dm = model.deps()[di];
    for (std::size_t k = 0; k < dm.consume_sites.size(); ++k) {
      const verify::DepModel::ConsumeSite& site = dm.consume_sites[k];
      BlockingStaticBound b;
      b.dep = dm.dep->id;
      b.thread =
          site.thread >= 0
              ? model.threads()[static_cast<std::size_t>(site.thread)].name
              : "?";
      b.consumer = static_cast<int>(k);
      if (site.thread < 0 || site.node < 0) {
        b.bounded = true;
        out.push_back(std::move(b));
        continue;
      }

      EndpointAnalysis ea{model, static_cast<int>(di), site.thread, explain,
                          &b,   scc,                   {},          {},
                          {},   {},                    {}};
      ea.run();

      int live_thread = -1;
      for (std::size_t t = 0; t < ea.live.size(); ++t) {
        if (ea.live[t]) live_thread = static_cast<int>(t);
      }
      if (live_thread >= 0) {
        b.bounded = false;
        b.note = support::format(
            "thread '%s' can cycle forever without ever enabling the "
            "read's guard (no op of '%s' on its cycle)",
            model.threads()[static_cast<std::size_t>(live_thread)]
                .name.c_str(),
            b.dep.c_str());
      } else {
        b.bounded = true;
        // Region-size bound: states with this consumer parked at its read
        // are at most Π (other threads' CFG sizes) × controller states;
        // the checker's exact longest blocked path cannot exceed it.
        std::uint64_t steps = ctrl_states;
        for (std::size_t t = 0; t < model.threads().size(); ++t) {
          if (static_cast<int>(t) == site.thread) continue;
          steps = sat_mul(
              steps,
              static_cast<std::uint64_t>(
                  std::max<std::size_t>(model.threads()[t].nodes.size(), 1)));
        }
        b.steps = steps;
        int window =
            dm.controller >= 0 ? model.fairness_window(dm.controller) : 1;
        b.cycles = sat_mul(sat_add(b.steps, 1),
                           static_cast<std::uint64_t>(window) + 1);
        b.saturated = b.steps == kInf || b.cycles == kInf;
        if (explain) {
          b.provenance.push_back(support::format(
              "no thread can move infinitely often while '%s' waits; "
              "blocked-region bound: %llu controller state(s) x product of "
              "other threads' CFG sizes -> %s steps",
              b.thread.c_str(),
              static_cast<unsigned long long>(ctrl_states),
              b.saturated ? "saturated (2^64-1)"
                          : std::to_string(b.steps).c_str()));
        }
      }
      out.push_back(std::move(b));
    }
  }
  return out;
}

}  // namespace hicsync::bound
