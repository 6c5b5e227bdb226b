#include "memorg/eventdriven.h"

#include <algorithm>

#include "memorg/ports.h"
#include "rtl/builder.h"
#include "support/bits.h"

namespace hicsync::memorg {

using rtl::ebin;
using rtl::econst;
using rtl::emux;
using rtl::enot;
using rtl::eref;
using rtl::RtlExprPtr;
using rtl::RtlOp;

int total_slots(const EventDrivenConfig& cfg) { return total_slots(cfg.deps); }

rtl::Module& generate_eventdriven(rtl::Design& design,
                                  const EventDrivenConfig& cfg,
                                  const std::string& name) {
  rtl::Module& m = design.add_module(name);
  const int aw = cfg.addr_width;
  const int dw = cfg.data_width;
  const int nc = cfg.num_consumers;
  const int np = cfg.num_producers;
  // The §3.2 schedule: owner of each slot; slot s is followed by s+1. A
  // controller without dependencies keeps one idle producer slot.
  std::vector<Slot> slots = slot_schedule(cfg.deps);
  if (slots.empty()) slots.push_back(Slot{0, true, 0});
  const int nslots = static_cast<int>(slots.size());
  const int sw = support::clog2_at_least1(
      static_cast<std::uint64_t>(std::max(nslots, cfg.max_slots)));

  (void)m.clk();
  (void)m.rst();

  // ---- Port A: direct. ----
  const PortANets a = add_port_a(m, aw, dw);

  // ---- Producer ports. ----
  std::vector<ProducerNets> pport;
  std::vector<int> ev_p;
  for (int j = 0; j < np; ++j) {
    pport.push_back(add_producer_port(m, true, j, aw, dw));
    ev_p.push_back(m.add_output("ev_p" + std::to_string(j), 1));
  }

  // ---- Consumer ports. ----
  std::vector<ConsumerNets> cport;  // grant = ev_c<i>
  for (int i = 0; i < nc; ++i) {
    cport.push_back(add_consumer_port(m, true, i, aw));
  }
  int bus_rdata = m.add_output_reg("bus_rdata", dw);

  // ---- Selection logic state. ----
  int slot = m.add_output_reg("slot", sw);
  int prev_slot = m.add_reg("prev_slot", sw);
  int advance_valid = m.add_reg("advance_valid", 1);

  // One-hot decode of the slot register (shared by events, fire logic, and
  // the mux network).
  std::vector<int> slot_onehot(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    int w = m.add_wire("slot_is" + std::to_string(s), 1);
    m.assign(w, ebin(RtlOp::Eq, eref(slot, sw),
                     econst(static_cast<std::uint64_t>(s), sw)));
    slot_onehot[s] = w;
  }
  auto slot_is = [&](int s) {
    return eref(slot_onehot[static_cast<std::size_t>(s)], 1);
  };

  // Per-slot "owner fired" condition.
  std::vector<int> fire(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    int w = m.add_wire("fire_s" + std::to_string(s), 1);
    const auto pp = static_cast<std::size_t>(slots[s].pseudo_port);
    int owner_req = slots[s].producer ? pport[pp].req : cport[pp].req;
    m.assign(w, ebin(RtlOp::And, slot_is(static_cast<int>(s)),
                     eref(owner_req, 1)));
    fire[s] = w;
  }

  // Events: slot ownership exported to the threads.
  for (int j = 0; j < np; ++j) {
    std::vector<RtlExprPtr> selected;
    std::vector<RtlExprPtr> fired;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].producer || slots[s].pseudo_port != j) continue;
      selected.push_back(slot_is(static_cast<int>(s)));
      fired.push_back(eref(fire[s], 1));
    }
    m.assign(ev_p[static_cast<std::size_t>(j)],
             rtl::eor_chain(std::move(selected), 1));
    m.assign(pport[static_cast<std::size_t>(j)].grant,
             rtl::eor_chain(std::move(fired), 1));
  }
  for (int i = 0; i < nc; ++i) {
    std::vector<RtlExprPtr> selected;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].producer || slots[s].pseudo_port != i) continue;
      selected.push_back(slot_is(static_cast<int>(s)));
    }
    m.assign(cport[static_cast<std::size_t>(i)].grant,
             rtl::eor_chain(std::move(selected), 1));
  }

  // Slot advance: when the current slot's owner fires, move to the next
  // slot (wrapping the last slot to 0) — this *is* the modulo schedule.
  std::vector<RtlExprPtr> fired;
  for (int f : fire) fired.push_back(eref(f, 1));
  int advance = m.add_wire("advance", 1);
  m.assign(advance, rtl::eor_chain(std::move(fired), 1));

  std::vector<rtl::RtlExprPtr> succ_values;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    succ_values.push_back(econst((s + 1) % slots.size(), sw));
  }
  RtlExprPtr next_slot =
      emux(eref(advance, 1),
           rtl::build_onehot_mux(m, fire, std::move(succ_values), sw),
           eref(slot, sw));
  m.seq(slot, std::move(next_slot));
  m.seq(prev_slot, eref(slot, sw), eref(advance, 1));

  // Consumer read data arrives two cycles after its slot fires: the port-1
  // operand register stage, then the BRAM read register.
  std::vector<rtl::RtlExprPtr> consumed_terms;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (!slots[s].producer) consumed_terms.push_back(eref(fire[s], 1));
  }
  m.seq(advance_valid, rtl::eor_tree(std::move(consumed_terms), 1));
  int v2 = m.add_reg("read_valid_q2", 1);
  m.seq(v2, eref(advance_valid, 1));
  int ps2 = m.add_reg("prev_slot_q2", sw);
  m.seq(ps2, eref(prev_slot, sw));

  for (int i = 0; i < nc; ++i) {
    std::vector<rtl::RtlExprPtr> mine;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].producer || slots[s].pseudo_port != i) continue;
      mine.push_back(ebin(RtlOp::Eq, eref(ps2, sw),
                          econst(static_cast<std::uint64_t>(s), sw)));
    }
    m.assign(cport[static_cast<std::size_t>(i)].valid,
             ebin(RtlOp::And, eref(v2, 1),
                  rtl::eor_tree(std::move(mine), 1)));
  }

  // ---- Physical port 1: slot-selected operands land in a register stage
  // (mux 'c' of Fig. 3); the BRAM performs the operation next cycle. This
  // keeps the mux network off the BRAM setup path, and its cost is fixed —
  // scenario growth shows up only in the mux LUTs. ----
  std::vector<int> addr_sel;
  std::vector<rtl::RtlExprPtr> addr_vals;
  std::vector<int> wdata_sel;
  std::vector<rtl::RtlExprPtr> wdata_vals;
  std::vector<rtl::RtlExprPtr> we_terms;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    addr_sel.push_back(slot_onehot[s]);
    const auto pp = static_cast<std::size_t>(slots[s].pseudo_port);
    if (slots[s].producer) {
      addr_vals.push_back(eref(pport[pp].addr, aw));
      wdata_sel.push_back(slot_onehot[s]);
      wdata_vals.push_back(eref(pport[pp].wdata, dw));
      we_terms.push_back(eref(fire[s], 1));
    } else {
      addr_vals.push_back(eref(cport[pp].addr, aw));
    }
  }
  int port1_addr = m.add_reg("port1_addr", aw);
  m.seq(port1_addr,
        rtl::build_onehot_mux(m, addr_sel, std::move(addr_vals), aw));
  int port1_wdata = m.add_reg("port1_wdata", dw);
  m.seq(port1_wdata,
        rtl::build_onehot_mux(m, wdata_sel, std::move(wdata_vals), dw));
  int port1_we = m.add_reg("port1_we", 1);
  m.seq(port1_we, rtl::eor_tree(std::move(we_terms), 1));

  // ---- The BRAM: port A on physical port 0, port 1 behind the operand
  // registers. ----
  add_bram(m, a, port1_addr, port1_we, port1_wdata, bus_rdata);

  return m;
}

EventDrivenConfig eventdriven_config_from(
    const memalloc::BramInstance& bram, const memalloc::BramPortPlan& plan) {
  EventDrivenConfig cfg;
  cfg.data_width = bram.shape.width;
  cfg.addr_width = support::clog2_at_least1(
      static_cast<std::uint64_t>(bram.shape.depth) *
      static_cast<std::uint64_t>(bram.primitives));
  cfg.num_consumers = std::max(1, plan.consumer_pseudo_ports());
  cfg.num_producers = std::max(1, plan.producer_pseudo_ports());
  cfg.deps = build_dep_entries(bram, plan);
  return cfg;
}

}  // namespace hicsync::memorg
