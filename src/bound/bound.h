// hic-bound: sound static bounds where hic-verify enumerates.
//
// The checker (verify/checker.h) answers occupancy, blocking, and
// deadlock questions *exactly* by exploring the reachable product state
// space — exponential in the thread count, so a 1024-consumer fan-out
// exhausts any state budget. This facade answers the first two questions
// with sound over-approximations computed by abstract interpretation over
// the per-thread CFGs (bound/engine.h): roughly N², about 0.37 s per
// organization at 1024 consumers (hic-bench compile_corpus,
// bound.analyze_ms), and every reported interval provably contains the
// checker's exact value (the differential suite in tests/bound asserts
// this on every fixture the checker can finish).
//
// Three clients (each its own translation unit):
//  1. occupancy.h — dependency-list occupancy vs generated CAM capacity,
//     plus memalloc::DepListHints that let the generators shrink the
//     dependency list and drop dead pseudo-ports;
//  2. blocking.h — per-consumer worst-case blocking boundedness and a
//     saturating steps/cycles bound;
//  3. deadport.h — pseudo-ports that can never raise a request, with an
//     estimated flip-flop saving (Tables 1–2 tightening).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bound/blocking.h"
#include "bound/counters.h"
#include "bound/deadport.h"
#include "bound/occupancy.h"
#include "memalloc/allocator.h"
#include "memalloc/portplan.h"
#include "support/diagnostics.h"
#include "verify/model.h"

namespace hicsync::bound {

struct BoundOptions {
  bool enabled = false;
  /// Feed shrinking DepListHints into the memory-organization generators
  /// (drops provably dead dependency entries and their pseudo-ports).
  bool apply_sizing = true;
  /// Collect per-derivation provenance traces (hic-bound --explain).
  bool explain = false;
};

/// All static bounds for one memory organization.
struct BoundResult {
  sim::OrgKind organization = sim::OrgKind::Arbitrated;

  std::vector<OccupancyBound> occupancy;
  std::vector<BlockingStaticBound> blocking;
  std::vector<DeadPortReport> dead_ports;
  /// Hints that actually shrink something, for memalloc::apply_dep_list_hint.
  std::vector<memalloc::DepListHint> sizing_hints;

  /// Total worklist iterations across every per-thread solve (profiling).
  std::uint64_t worklist_steps = 0;
  /// Any per-thread solve hit the widening threshold.
  bool widened = false;

  /// Occupancy hi ≤ capacity (arbitrated) / slot hi < total (event-driven)
  /// on every controller.
  [[nodiscard]] bool all_within_capacity() const;
  [[nodiscard]] bool all_blocking_bounded() const;

  [[nodiscard]] std::string text() const;
  [[nodiscard]] std::string json() const;
  /// Provenance traces, one block per derivation (--explain).
  [[nodiscard]] std::string explain_text() const;
};

/// Runs every client for one organization. `sema` must have run
/// successfully; `map`/`plans` from the allocator and port planner.
[[nodiscard]] BoundResult run_bound(
    const hic::Program& program, const hic::Sema& sema,
    const memalloc::MemoryMap& map,
    const std::vector<memalloc::BramPortPlan>& plans,
    sim::OrgKind organization, const BoundOptions& options);

/// Reports the result's findings into `diags` with stable check IDs
/// (bound-occupancy-exceeds-capacity, bound-dead-dependency,
/// bound-blocking-unbounded, bound-dead-port; see docs/DIAGNOSTICS.md).
/// Returns the number of error-severity findings (drivers map it to exit
/// code 6).
std::size_t report_findings(const BoundResult& result, const hic::Sema& sema,
                            support::DiagnosticEngine& diags);

}  // namespace hicsync::bound
