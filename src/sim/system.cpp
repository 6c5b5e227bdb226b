#include "sim/system.h"

#include <algorithm>
#include <stdexcept>

#include "memalloc/sizing.h"
#include "memorg/ports.h"
#include "memorg/probe.h"
#include "support/bits.h"
#include "support/strings.h"

namespace hicsync::sim {

const char* to_string(OrgKind k) {
  switch (k) {
    case OrgKind::Arbitrated: return "arbitrated";
    case OrgKind::EventDriven: return "event-driven";
  }
  return "unknown";
}

bool parse_org(std::string_view name, OrgKind* out) {
  for (OrgKind k : {OrgKind::Arbitrated, OrgKind::EventDriven}) {
    if (name == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

std::uint64_t DepRound::completion_latency() const {
  std::uint64_t last = produce_grant_cycle;
  for (const auto& [thread, cycle] : consume_cycles) {
    last = std::max(last, cycle);
  }
  return last - produce_grant_cycle;
}

namespace {

/// `v` cut to `width` bits; a width <= 0 (an untyped value) is unmasked.
std::uint64_t mask_width(std::uint64_t v, int width) {
  return width <= 0 ? v : v & support::low_mask(width);
}

}  // namespace

// ---------------------------------------------------------------------------
// Controller: one generated memory organization + its host-side bookkeeping.
// ---------------------------------------------------------------------------

struct SystemSim::Controller {
  int bram_id = -1;
  const memalloc::BramPortPlan* plan = nullptr;
  std::vector<memorg::DepEntry> entries;
  std::unique_ptr<rtl::ModuleSim> sim;
  memorg::ControllerPorts ports;
  std::vector<memorg::Slot> schedule;  // event-driven only

  // Port A host-side sharing: one owner per cycle, rotating for fairness.
  std::vector<std::string> a_waiters;
  std::string a_owner;
  std::size_t a_rotate = 0;

  // hic-trace probe over the generated netlist (grants, slot).
  std::unique_ptr<memorg::ControllerProbe> probe;

  [[nodiscard]] int pseudo_port(const std::string& thread,
                                memalloc::LogicalPort port) const {
    const memalloc::PortClient* c = plan->client_for(thread, port);
    return c != nullptr ? c->pseudo_port : -1;
  }

  void begin_cycle() {
    // Clear all request-style inputs; threads re-assert each cycle.
    for (const memorg::ConsumerNets& c : ports.consumers) {
      sim->set_input(c.req, 0);
    }
    for (const memorg::ProducerNets& p : ports.producers) {
      sim->set_input(p.req, 0);
    }
    sim->set_input(ports.a.en, 0);
    sim->set_input(ports.a.we, 0);
    // Resolve port A ownership among last cycle's waiters.
    if (!a_waiters.empty()) {
      std::sort(a_waiters.begin(), a_waiters.end());
      a_owner = a_waiters[a_rotate % a_waiters.size()];
      ++a_rotate;
    } else {
      a_owner.clear();
    }
    a_waiters.clear();
  }

  /// Thread asks to use port A this cycle; true if it owns it.
  bool claim_port_a(const std::string& thread) {
    if (a_owner.empty()) a_owner = thread;  // first claimant wins
    if (a_owner == thread) return true;
    if (std::find(a_waiters.begin(), a_waiters.end(), thread) ==
        a_waiters.end()) {
      a_waiters.push_back(thread);
    }
    return false;
  }

  void release_port_a(const std::string& thread) {
    if (a_owner == thread) a_owner.clear();
  }
};

// One memory operation in flight.
struct SystemSim::MemOp {
  enum class Stage {
    Idle,
    PortA,          // waiting to own / issue on port A
    PortA_Data,     // port A read issued, data next cycle
    Request,        // arbitrated C/D request outstanding
    WaitValid,      // waiting for read data valid
    EvWaitSlot,     // event-driven: waiting for our slot
    Done,
  };
  Stage stage = Stage::Idle;
  Controller* ctrl = nullptr;
  bool is_write = false;
  synth::AccessRole role = synth::AccessRole::Plain;
  const hic::Dependency* dep = nullptr;
  std::uint64_t addr = 0;
  std::uint64_t wdata = 0;
  std::uint64_t result = 0;
  int pseudo_port = -1;
  int target_slot = -1;   // event-driven
  std::size_t round = static_cast<std::size_t>(-1);  // DepRound index
  std::uint64_t wait_cycles = 0;  // consecutive stalled cycles
};

// ---------------------------------------------------------------------------
// ThreadExec: interprets one synthesized FSM.
// ---------------------------------------------------------------------------

struct SystemSim::ThreadExec {
  std::string name;
  synth::ThreadFsm fsm;
  std::map<const hic::Symbol*, std::uint64_t> regs;
  std::function<bool(std::uint64_t)> gate;
  int passes = 0;

  enum class Mode { Gated, Plan, Fetch, Compute, Write, Advance, Halted };
  Mode mode = Mode::Gated;
  int state = -1;

  using MemOp = SystemSim::MemOp;

  // Execution plan of the current state: one entry per statement (the
  // scheduler may have chained several into the state).
  struct StmtPlan {
    const hic::Stmt* stmt = nullptr;   // Assign; nullptr for a branch cond
    const hic::Expr* cond = nullptr;   // Branch only
    struct Operand {
      const hic::Expr* expr = nullptr;
      MemOp op;
      bool fetched = false;
    };
    std::vector<Operand> operands;
    MemOp write;
    std::uint64_t computed = 0;
    bool computed_valid = false;
  };
  std::vector<StmtPlan> plan;
  std::size_t plan_index = 0;
  std::size_t operand_index = 0;
  std::uint64_t branch_value = 0;
  bool trace_blocked = false;  // a ThreadBlock event is open

  /// The memory operation currently in flight, if any.
  [[nodiscard]] MemOp* current_op() {
    if (plan_index >= plan.size()) return nullptr;
    StmtPlan& p = plan[plan_index];
    if (mode == Mode::Fetch && operand_index < p.operands.size()) {
      return &p.operands[operand_index].op;
    }
    if (mode == Mode::Write) return &p.write;
    return nullptr;
  }
  [[nodiscard]] const MemOp* current_op() const {
    return const_cast<ThreadExec*>(this)->current_op();
  }
};

// ---------------------------------------------------------------------------

SystemSim::SystemSim(const hic::Program& program, const hic::Sema& sema,
                     const memalloc::MemoryMap& map,
                     const std::vector<memalloc::BramPortPlan>& plans,
                     SystemOptions options)
    : program_(program), sema_(sema), map_(map), options_(options) {
  // Generate one controller per BRAM.
  for (const memalloc::BramInstance& bram : map.brams()) {
    const memalloc::BramPortPlan* plan = nullptr;
    for (const auto& p : plans) {
      if (p.bram_id == bram.id) plan = &p;
    }
    if (plan == nullptr) {
      throw std::runtime_error("SystemSim: no port plan for bram " +
                               std::to_string(bram.id));
    }
    auto ctrl = std::make_unique<Controller>();
    ctrl->bram_id = bram.id;
    ctrl->plan = plan;
    ctrl->entries = memorg::build_dep_entries(bram, *plan);
    std::string name = "memorg_bram" + std::to_string(bram.id);
    const bool event_driven = options.organization == OrgKind::EventDriven;
    const rtl::Module& m =
        event_driven
            ? memorg::generate_eventdriven(
                  design_, memorg::eventdriven_config_from(bram, *plan), name)
            : memorg::generate_arbitrated(
                  design_, memorg::arbitrated_config_from(bram, *plan), name);
    ctrl->sim = std::make_unique<rtl::ModuleSim>(m);
    ctrl->ports =
        memorg::bind_ports(m, event_driven, plan->consumer_pseudo_ports(),
                           plan->producer_pseudo_ports());
    if (event_driven) ctrl->schedule = memorg::slot_schedule(ctrl->entries);
    ctrl->probe = std::make_unique<memorg::ControllerProbe>(
        memorg::ProbeConfig{bram.id, ctrl->ports});
    ctrl->sim->reset();
    controllers_.push_back(std::move(ctrl));
  }

  // Synthesize and stage every thread.
  for (const hic::ThreadDecl& t : program.threads) {
    auto exec = std::make_unique<ThreadExec>();
    exec->name = t.name;
    exec->fsm = synth::ThreadFsm::synthesize(t, sema);
    const bool restart = options_.restart_threads;
    exec->gate = [restart, raw = exec.get()](std::uint64_t) {
      return restart || raw->passes == 0;
    };
    if (const auto* table = sema.thread_table(t.name)) {
      for (hic::Symbol* s : table->symbols()) {
        if (!memalloc::is_memory_resident(*s)) exec->regs[s] = 0;
      }
    }
    threads_.push_back(std::move(exec));
  }
}

SystemSim::~SystemSim() = default;

void SystemSim::reset() {
  cycle_ = 0;
  rounds_.clear();
  open_round_.clear();
  for (auto& ctrl : controllers_) {
    ctrl->sim->clear_state();
    ctrl->sim->reset();
    ctrl->a_waiters.clear();
    ctrl->a_owner.clear();
    ctrl->a_rotate = 0;
    ctrl->probe->reset();
  }
  for (auto& tp : threads_) {
    ThreadExec& t = *tp;
    t.passes = 0;
    t.mode = ThreadExec::Mode::Gated;
    t.state = -1;
    t.plan.clear();
    t.plan_index = 0;
    t.operand_index = 0;
    t.branch_value = 0;
    t.trace_blocked = false;
    for (auto& [sym, value] : t.regs) value = 0;
  }
}

std::vector<std::uint64_t> SystemSim::controller_settles() const {
  std::vector<std::uint64_t> settles;
  for (const auto& ctrl : controllers_) settles.push_back(ctrl->sim->settles());
  return settles;
}

SystemSim::ThreadExec* SystemSim::find_thread(const std::string& name) const {
  for (const auto& t : threads_) {
    if (t->name == name) return t.get();
  }
  return nullptr;
}

void SystemSim::set_gate(const std::string& thread,
                         std::function<bool(std::uint64_t)> gate) {
  ThreadExec* t = find_thread(thread);
  if (t == nullptr) {
    throw std::runtime_error("SystemSim: unknown thread '" + thread + "'");
  }
  t->gate = std::move(gate);
}

int SystemSim::passes(const std::string& thread) const {
  ThreadExec* t = find_thread(thread);
  return t != nullptr ? t->passes : 0;
}

std::uint64_t SystemSim::register_value(const std::string& thread,
                                        const std::string& var) const {
  ThreadExec* t = find_thread(thread);
  if (t == nullptr) {
    throw std::runtime_error("SystemSim: unknown thread '" + thread + "'");
  }
  hic::Symbol* sym = sema_.lookup(thread, var);
  if (sym == nullptr) {
    throw std::runtime_error("SystemSim: unknown variable '" + var + "'");
  }
  auto it = t->regs.find(sym);
  if (it == t->regs.end()) {
    throw std::runtime_error("SystemSim: '" + var + "' is memory-resident; "
                             "inspect it through the controller");
  }
  return it->second;
}

bool SystemSim::is_blocked(const std::string& thread) const {
  ThreadExec* t = find_thread(thread);
  if (t == nullptr) return false;
  return t->mode == ThreadExec::Mode::Fetch ||
         t->mode == ThreadExec::Mode::Write;
}

namespace {

const char* mode_name(SystemSim::ThreadExec::Mode m) {
  using Mode = SystemSim::ThreadExec::Mode;
  switch (m) {
    case Mode::Gated: return "gated";
    case Mode::Plan: return "plan";
    case Mode::Fetch: return "fetch";
    case Mode::Compute: return "compute";
    case Mode::Write: return "write";
    case Mode::Advance: return "advance";
    case Mode::Halted: return "halted";
  }
  return "?";
}

const char* stage_name(SystemSim::ThreadExec::MemOp::Stage s) {
  using Stage = SystemSim::ThreadExec::MemOp::Stage;
  switch (s) {
    case Stage::Idle: return "idle";
    case Stage::PortA: return "waiting for port A";
    case Stage::PortA_Data: return "port A read data";
    case Stage::Request: return "waiting for grant";
    case Stage::WaitValid: return "waiting for read data";
    case Stage::EvWaitSlot: return "waiting for schedule slot";
    case Stage::Done: return "done";
  }
  return "?";
}

}  // namespace

std::vector<ThreadDiagnostic> SystemSim::thread_diagnostics() const {
  std::vector<ThreadDiagnostic> out;
  for (const auto& tp : threads_) {
    const ThreadExec& t = *tp;
    ThreadDiagnostic d;
    d.thread = t.name;
    d.passes = t.passes;
    d.mode = mode_name(t.mode);
    d.fsm_state = t.state;
    d.blocked = t.mode == ThreadExec::Mode::Fetch ||
                t.mode == ThreadExec::Mode::Write;
    if (const ThreadExec::MemOp* mo = t.current_op();
        mo != nullptr && mo->stage != ThreadExec::MemOp::Stage::Idle &&
        mo->stage != ThreadExec::MemOp::Stage::Done) {
      const char* role = mo->role == synth::AccessRole::ConsumerRead
                             ? "consumer read"
                             : (mo->role == synth::AccessRole::ProducerWrite
                                    ? "producer write"
                                    : (mo->is_write ? "write" : "read"));
      std::string port =
          mo->role == synth::AccessRole::ConsumerRead
              ? "C" + std::to_string(mo->pseudo_port)
              : (mo->role == synth::AccessRole::ProducerWrite
                     ? "D" + std::to_string(mo->pseudo_port)
                     : "A");
      d.waiting_on = support::format(
          "%s%s on bram%d port %s, %s, %llu cycle(s) waiting", role,
          mo->dep != nullptr ? (" of dep '" + mo->dep->id + "'").c_str()
                             : "",
          mo->ctrl != nullptr ? mo->ctrl->bram_id : -1, port.c_str(),
          stage_name(mo->stage),
          static_cast<unsigned long long>(mo->wait_cycles));
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::string SystemSim::stall_report() const {
  std::string out = support::format(
      "simulation state at cycle %llu (%s organization):\n",
      static_cast<unsigned long long>(cycle_),
      to_string(options_.organization));
  for (const ThreadDiagnostic& d : thread_diagnostics()) {
    out += support::format("  %-12s passes=%d mode=%s fsm_state=%d%s\n",
                           d.thread.c_str(), d.passes, d.mode.c_str(),
                           d.fsm_state, d.blocked ? " BLOCKED" : "");
    if (!d.waiting_on.empty()) {
      out += "      waiting: " + d.waiting_on + "\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Expression evaluation and plan construction.
// ---------------------------------------------------------------------------

namespace {

using ThreadExec = SystemSim::ThreadExec;

bool expr_reads_memory(const hic::Expr& e) {
  if ((e.kind == hic::ExprKind::VarRef || e.kind == hic::ExprKind::Index ||
       e.kind == hic::ExprKind::Member) &&
      e.symbol != nullptr && memalloc::is_memory_resident(*e.symbol)) {
    return true;
  }
  for (const auto& op : e.operands) {
    if (expr_reads_memory(*op)) return true;
  }
  return false;
}

}  // namespace

// Declared outside the class to keep system.h slim.
namespace detail {

struct EvalCtx {
  ThreadExec* thread;
  const ExternFuncs* externs;
  const std::map<const hic::Expr*, std::uint64_t>* memvals;
};

std::uint64_t eval_expr(const hic::Expr& e, const EvalCtx& ctx) {
  // Memory operands were fetched ahead of time.
  if (ctx.memvals != nullptr) {
    auto it = ctx.memvals->find(&e);
    if (it != ctx.memvals->end()) return it->second;
  }
  switch (e.kind) {
    case hic::ExprKind::IntLit:
    case hic::ExprKind::CharLit:
      return e.int_value;
    case hic::ExprKind::VarRef: {
      auto it = ctx.thread->regs.find(e.symbol);
      if (it == ctx.thread->regs.end()) {
        throw std::runtime_error("sim: unfetched memory operand " +
                                 (e.symbol != nullptr
                                      ? e.symbol->qualified_name()
                                      : e.name));
      }
      return it->second;
    }
    case hic::ExprKind::Member: {
      std::uint64_t v = eval_expr(*e.operands[0], ctx);
      return mask_width(v, e.type != nullptr ? e.type->bit_width() : 64);
    }
    case hic::ExprKind::Index:
      throw std::runtime_error("sim: array access must be a memory operand");
    case hic::ExprKind::Unary: {
      std::uint64_t v = eval_expr(*e.operands[0], ctx);
      switch (e.unary_op) {
        case hic::UnaryOp::Neg: v = ~v + 1; break;
        case hic::UnaryOp::Not: v = (v == 0) ? 1 : 0; break;
        case hic::UnaryOp::BitNot: v = ~v; break;
      }
      return mask_width(v, e.type != nullptr ? e.type->bit_width() : 64);
    }
    case hic::ExprKind::Binary: {
      std::uint64_t a = eval_expr(*e.operands[0], ctx);
      std::uint64_t b = eval_expr(*e.operands[1], ctx);
      std::uint64_t v = 0;
      switch (e.binary_op) {
        case hic::BinaryOp::Add: v = a + b; break;
        case hic::BinaryOp::Sub: v = a - b; break;
        case hic::BinaryOp::Mul: v = a * b; break;
        case hic::BinaryOp::Div: v = (b == 0) ? 0 : a / b; break;
        case hic::BinaryOp::Mod: v = (b == 0) ? 0 : a % b; break;
        case hic::BinaryOp::And: v = a & b; break;
        case hic::BinaryOp::Or: v = a | b; break;
        case hic::BinaryOp::Xor: v = a ^ b; break;
        case hic::BinaryOp::Shl: v = b >= 64 ? 0 : a << b; break;
        case hic::BinaryOp::Shr: v = b >= 64 ? 0 : a >> b; break;
        case hic::BinaryOp::LogAnd: v = (a != 0 && b != 0) ? 1 : 0; break;
        case hic::BinaryOp::LogOr: v = (a != 0 || b != 0) ? 1 : 0; break;
        case hic::BinaryOp::Eq: v = (a == b) ? 1 : 0; break;
        case hic::BinaryOp::Ne: v = (a != b) ? 1 : 0; break;
        case hic::BinaryOp::Lt: v = (a < b) ? 1 : 0; break;
        case hic::BinaryOp::Le: v = (a <= b) ? 1 : 0; break;
        case hic::BinaryOp::Gt: v = (a > b) ? 1 : 0; break;
        case hic::BinaryOp::Ge: v = (a >= b) ? 1 : 0; break;
      }
      return mask_width(v, e.type != nullptr ? e.type->bit_width() : 64);
    }
    case hic::ExprKind::Call: {
      std::vector<std::uint64_t> args;
      for (const auto& a : e.operands) args.push_back(eval_expr(*a, ctx));
      return mask_width(ctx.externs->eval(e.name, args),
                        e.type != nullptr ? e.type->bit_width() : 64);
    }
  }
  return 0;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// The main simulation loop.
// ---------------------------------------------------------------------------

// One settle per controller per cycle: drivers read only registers (the
// slot), so the settle after driving serves the probe, the observers and
// the edge alike.
void SystemSim::step() {
  const bool traced = tracing();
  if (traced) trace_->begin_cycle(cycle_);
  for (auto& ctrl : controllers_) ctrl->begin_cycle();
  drive_phase();
  for (auto& ctrl : controllers_) ctrl->sim->settle();
  if (traced) {
    for (auto& ctrl : controllers_) {
      ctrl->probe->sample(*ctrl->sim, cycle_, *trace_);
    }
  }
  observe_phase();
  for (auto& ctrl : controllers_) ctrl->sim->step();
  ++cycle_;
}

bool SystemSim::run_until_passes(int target, std::uint64_t max_cycles) {
  std::uint64_t deadline = cycle_ + max_cycles;
  while (cycle_ < deadline) {
    bool all_done = true;
    for (const auto& t : threads_) {
      if (t->passes < target) all_done = false;
    }
    if (all_done) return true;
    step();
  }
  for (const auto& t : threads_) {
    if (t->passes < target) return false;
  }
  return true;
}

namespace {

/// Locates the StateAccess describing a symbol access in the current state.
const synth::StateAccess* find_access(const synth::FsmState& s,
                                      const hic::Symbol* sym, bool is_write) {
  for (const synth::StateAccess& a : s.accesses) {
    if (a.symbol == sym && a.is_write == is_write) return &a;
  }
  return nullptr;
}

}  // namespace
namespace {

using ThreadExecT = SystemSim::ThreadExec;

/// Puts a new memory operation on its port: port A, or — for a
/// synchronized access — the thread's C/D pseudo-port, behind its schedule
/// slot in the event-driven organization.
void start_mem_op(const ThreadExecT& t, SystemSim::MemOp& mo) {
  using Stage = SystemSim::MemOp::Stage;
  const bool synced = mo.role == (mo.is_write
                                      ? synth::AccessRole::ProducerWrite
                                      : synth::AccessRole::ConsumerRead);
  if (!synced) {
    mo.stage = Stage::PortA;
    return;
  }
  const SystemSim::Controller& c = *mo.ctrl;
  mo.pseudo_port =
      c.pseudo_port(t.name, mo.is_write ? memalloc::LogicalPort::D
                                        : memalloc::LogicalPort::C);
  if (!c.ports.event_driven) {
    mo.stage = Stage::Request;
    return;
  }
  int entry = -1;
  for (std::size_t e = 0; e < c.entries.size() && entry < 0; ++e) {
    if (c.entries[e].id == mo.dep->id) entry = static_cast<int>(e);
  }
  mo.target_slot =
      memorg::find_slot(c.schedule, entry, mo.is_write, mo.pseudo_port);
  mo.stage = Stage::EvWaitSlot;
}

void drive_mem_op(ThreadExecT& t, SystemSim::MemOp& mo) {
  using Stage = SystemSim::MemOp::Stage;
  SystemSim::Controller& c = *mo.ctrl;
  rtl::ModuleSim& sim = *c.sim;
  const memorg::ControllerPorts& ports = c.ports;
  switch (mo.stage) {
    case Stage::PortA:
      if (c.claim_port_a(t.name)) {
        sim.set_input(ports.a.en, 1);
        sim.set_input(ports.a.we, mo.is_write ? 1 : 0);
        sim.set_input(ports.a.addr, mo.addr);
        if (mo.is_write) sim.set_input(ports.a.wdata, mo.wdata);
      }
      break;
    case Stage::EvWaitSlot:
      // Request only in our slot. The slot is a register: reading it
      // before settle is safe.
      if (static_cast<int>(sim.get(ports.slot)) != mo.target_slot) break;
      [[fallthrough]];
    case Stage::Request: {
      const auto pp = static_cast<std::size_t>(mo.pseudo_port);
      if (mo.is_write) {
        const memorg::ProducerNets& p = ports.producers[pp];
        sim.set_input(p.req, 1);
        sim.set_input(p.addr, mo.addr);
        sim.set_input(p.wdata, mo.wdata);
      } else {
        const memorg::ConsumerNets& cn = ports.consumers[pp];
        sim.set_input(cn.req, 1);
        sim.set_input(cn.addr, mo.addr);
      }
      break;
    }
    case Stage::PortA_Data:
    case Stage::WaitValid:
    case Stage::Idle:
    case Stage::Done:
      break;
  }
}

}  // namespace

namespace {

/// Checks whether any pseudo-port other than `ours` holds its grant this
/// cycle — the ArbitrationLoss / DependencyNotProduced split.
template <typename Nets>
bool another_port_granted(const rtl::ModuleSim& sim,
                          const std::vector<Nets>& ports, int ours) {
  for (std::size_t k = 0; k < ports.size(); ++k) {
    if (static_cast<int>(k) != ours && sim.get(ports[k].grant) != 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

// Called for every cycle the op occupies (or waits for) its port: exactly
// one of granted/stalled per cycle. The data-valid cycle of a consumer read
// reports through record_consume instead.
void SystemSim::observe_mem_op(ThreadExec& t, MemOp& mo) {
  using StallCause = trace::StallCause;
  using Stage = MemOp::Stage;
  Controller& c = *mo.ctrl;
  const rtl::ModuleSim& sim = *c.sim;
  const memorg::ControllerPorts& ports = c.ports;
  switch (mo.stage) {
    case Stage::PortA:
      if (c.a_owner == t.name) {
        on_access(t, mo, true, StallCause::None);
        // A write commits on this edge; read data arrives next cycle.
        mo.stage = mo.is_write ? Stage::Done : Stage::PortA_Data;
      } else {
        on_access(t, mo, false, StallCause::PortABusy);
      }
      break;
    case Stage::PortA_Data:
      // The read issued last cycle; a_rdata now holds the value.
      mo.result = sim.get(ports.a.rdata);
      mo.stage = Stage::Done;
      break;
    case Stage::Request:
    case Stage::EvWaitSlot: {
      const bool scheduled = mo.stage == Stage::EvWaitSlot;
      if (scheduled &&
          static_cast<int>(sim.get(ports.slot)) != mo.target_slot) {
        on_access(t, mo, false, StallCause::NotOurSlot);
        break;
      }
      const auto pp = static_cast<std::size_t>(mo.pseudo_port);
      const bool granted =
          mo.is_write ? sim.get(ports.producers[pp].grant) != 0
                      : ports.read_accepted(sim, mo.pseudo_port);
      if (!granted) {
        // The schedule has no arbitration to lose.
        const bool lost =
            !scheduled &&
            (mo.is_write
                 ? another_port_granted(sim, ports.producers, mo.pseudo_port)
                 : another_port_granted(sim, ports.consumers, mo.pseudo_port));
        on_access(t, mo, false,
                  lost ? StallCause::ArbitrationLoss
                       : StallCause::DependencyNotProduced);
        break;
      }
      on_access(t, mo, true, StallCause::None);
      if (mo.is_write) {
        record_produce(t, mo);
        mo.stage = Stage::Done;
      } else {
        auto it = mo.dep != nullptr ? open_round_.find(mo.dep->id)
                                    : open_round_.end();
        mo.round = it == open_round_.end() ? static_cast<std::size_t>(-1)
                                           : it->second;
        mo.stage = Stage::WaitValid;
      }
      break;
    }
    case Stage::WaitValid: {
      const auto pp = static_cast<std::size_t>(mo.pseudo_port);
      if (sim.get(ports.consumers[pp].valid) != 0) {
        mo.result = sim.get(ports.bus_rdata);
        record_consume(t, mo);
        mo.stage = Stage::Done;
      } else {
        on_access(t, mo, false, StallCause::DataWait);
      }
      break;
    }
    case Stage::Idle:
    case Stage::Done:
      break;
  }
}

void SystemSim::thread_event(const ThreadExec& t, trace::EventKind kind,
                             std::int64_t value) {
  if (!tracing()) return;
  trace::Event e;
  e.cycle = cycle_;
  e.kind = kind;
  e.thread = t.name;
  e.value = value;
  trace_->emit(e);
}

trace::Event SystemSim::mem_event(const ThreadExec& t,
                                  const MemOp& mo) const {
  trace::Event e;
  e.cycle = cycle_;
  e.controller = mo.ctrl->bram_id;
  switch (mo.role) {
    case synth::AccessRole::ConsumerRead: e.port = trace::PortKind::C; break;
    case synth::AccessRole::ProducerWrite: e.port = trace::PortKind::D; break;
    case synth::AccessRole::Plain: e.port = trace::PortKind::A; break;
  }
  e.pseudo_port = mo.pseudo_port;
  e.thread = t.name;
  if (mo.dep != nullptr) e.dep = mo.dep->id;
  return e;
}

void SystemSim::on_access(ThreadExec& t, MemOp& mo, bool granted,
                          trace::StallCause cause) {
  if (granted) {
    mo.wait_cycles = 0;
  } else {
    ++mo.wait_cycles;
  }
  if (!tracing()) return;
  trace::Event e = mem_event(t, mo);
  e.kind = trace::EventKind::PortRequest;
  trace_->emit(e);
  if (granted) {
    e.kind = trace::EventKind::PortGrant;
    trace_->emit(e);
    if (t.trace_blocked) {
      e.kind = trace::EventKind::ThreadUnblock;
      trace_->emit(e);
      t.trace_blocked = false;
    }
  } else {
    e.kind = trace::EventKind::PortStall;
    e.cause = cause;
    trace_->emit(e);
    if (!t.trace_blocked) {
      e.kind = trace::EventKind::ThreadBlock;
      e.cause = trace::StallCause::None;
      trace_->emit(e);
      t.trace_blocked = true;
    }
  }
}

void SystemSim::record_produce(const ThreadExec& t, const MemOp& mo) {
  if (mo.dep == nullptr) return;
  DepRound round;
  round.dep_id = mo.dep->id;
  round.produce_grant_cycle = cycle_;
  open_round_[mo.dep->id] = rounds_.size();
  rounds_.push_back(std::move(round));
  if (tracing()) {
    trace::Event e = mem_event(t, mo);
    e.kind = trace::EventKind::Produce;
    trace_->emit(e);
  }
}

void SystemSim::record_consume(ThreadExec& t, MemOp& mo) {
  const bool traced = tracing();
  if (traced && t.trace_blocked) {
    trace::Event e = mem_event(t, mo);
    e.kind = trace::EventKind::ThreadUnblock;
    trace_->emit(e);
    t.trace_blocked = false;
  }
  mo.wait_cycles = 0;
  if (mo.dep == nullptr) return;
  if (traced) {
    trace::Event e = mem_event(t, mo);
    e.kind = trace::EventKind::Consume;
    trace_->emit(e);
  }
  if (mo.round >= rounds_.size()) return;
  DepRound& round = rounds_[mo.round];
  round.consume_cycles.emplace_back(t.name, cycle_);
  if (traced && round.consume_cycles.size() == mo.dep->consumers.size()) {
    trace::Event e = mem_event(t, mo);
    e.kind = trace::EventKind::RoundComplete;
    e.value = static_cast<std::int64_t>(round.completion_latency());
    trace_->emit(e);
  }
}

void SystemSim::drive_phase() {
  for (auto& tp : threads_) {
    ThreadExec& t = *tp;

    // --- Mode transitions that need no controller interaction. ---
    if (t.mode == ThreadExec::Mode::Gated) {
      if (t.gate && t.gate(cycle_)) {
        t.state = t.fsm.initial();
        t.mode = ThreadExec::Mode::Plan;
        thread_event(t, trace::EventKind::FsmState, t.state);
      } else {
        continue;
      }
    }

    if (t.mode == ThreadExec::Mode::Plan) {
      const synth::FsmState& s = t.fsm.state(t.state);
      if (s.kind == synth::StateKind::Done) {
        ++t.passes;
        thread_event(t, trace::EventKind::PassComplete, t.passes);
        t.mode = ThreadExec::Mode::Gated;
        continue;
      }
      // Build the plan for this state.
      t.plan.clear();
      t.plan_index = 0;
      t.operand_index = 0;
      auto add_stmt_plan = [&](const hic::Stmt* stmt, const hic::Expr* cond) {
        ThreadExec::StmtPlan p;
        p.stmt = stmt;
        p.cond = cond;
        // Collect memory operands from the value/cond expression tree.
        auto collect = [&](auto&& self, const hic::Expr& e) -> void {
          bool is_mem_leaf =
              (e.kind == hic::ExprKind::VarRef ||
               e.kind == hic::ExprKind::Index ||
               e.kind == hic::ExprKind::Member) &&
              e.symbol != nullptr && memalloc::is_memory_resident(*e.symbol);
          if (is_mem_leaf) {
            ThreadExec::StmtPlan::Operand op;
            op.expr = &e;
            p.operands.push_back(op);
            // Do not descend into the base; the index expression still
            // needs register evaluation at fetch time, checked there.
            return;
          }
          for (const auto& sub : e.operands) self(self, *sub);
        };
        if (cond != nullptr) collect(collect, *cond);
        if (stmt != nullptr && stmt->kind == hic::StmtKind::Assign) {
          collect(collect, *stmt->value);
          // The target's index expression may also read memory — reject
          // (documented restriction).
          if (stmt->target->kind == hic::ExprKind::Index &&
              expr_reads_memory(*stmt->target->operands[1])) {
            throw std::runtime_error(
                "sim: memory reads inside store index expressions are not "
                "supported");
          }
        }
        t.plan.push_back(std::move(p));
      };
      if (s.kind == synth::StateKind::Branch) {
        add_stmt_plan(nullptr, s.cond);
      } else {
        add_stmt_plan(s.stmt, nullptr);
        for (const hic::Stmt* c : s.chained) add_stmt_plan(c, nullptr);
      }
      t.mode = ThreadExec::Mode::Fetch;
    }

    if (t.mode != ThreadExec::Mode::Fetch &&
        t.mode != ThreadExec::Mode::Write) {
      continue;
    }

    const synth::FsmState& s = t.fsm.state(t.state);
    ThreadExec::StmtPlan& p = t.plan[t.plan_index];

    // --- Prepare the in-flight memory op, if a new one is needed. ---
    auto element_addr = [&](const hic::Expr& e,
                            const memalloc::MemoryMap::Location& loc)
        -> std::uint64_t {
      std::uint64_t base = loc.placement->base_address;
      if (e.kind == hic::ExprKind::Index) {
        if (expr_reads_memory(*e.operands[1])) {
          throw std::runtime_error(
              "sim: memory reads inside index expressions are not supported");
        }
        detail::EvalCtx ctx{&t, &externs_, nullptr};
        std::uint64_t idx = detail::eval_expr(*e.operands[1], ctx);
        std::uint64_t words_per_elem =
            loc.placement->words / e.symbol->element_count();
        if (words_per_elem == 0) words_per_elem = 1;
        std::uint64_t elems = e.symbol->element_count();
        return base + (idx % elems) * words_per_elem;
      }
      return base;
    };
    // Puts a new access of `sym` (element `e`) on its controller port.
    auto start_access = [&](MemOp& mo, const hic::Expr& e,
                            const hic::Symbol* sym, bool is_write) {
      auto loc = map_.locate(sym);
      if (loc.bram == nullptr) {
        throw std::runtime_error("sim: symbol not in memory map: " +
                                 sym->qualified_name());
      }
      mo.ctrl = nullptr;
      for (auto it = controllers_.begin();
           mo.ctrl == nullptr && it != controllers_.end(); ++it) {
        if ((*it)->bram_id == loc.bram->id) mo.ctrl = it->get();
      }
      if (mo.ctrl == nullptr) {
        throw std::runtime_error("sim: no controller for bram");
      }
      mo.is_write = is_write;
      mo.addr = element_addr(e, loc);
      const synth::StateAccess* acc = find_access(s, sym, is_write);
      mo.role = acc != nullptr ? acc->role : synth::AccessRole::Plain;
      mo.dep = acc != nullptr ? acc->dep : nullptr;
      start_mem_op(t, mo);
    };

    if (t.mode == ThreadExec::Mode::Fetch) {
      // All operands fetched? Compute and move to write.
      while (t.operand_index < p.operands.size() &&
             p.operands[t.operand_index].fetched) {
        ++t.operand_index;
      }
      if (t.operand_index >= p.operands.size()) {
        // Compute this statement's value.
        std::map<const hic::Expr*, std::uint64_t> memvals;
        for (const auto& op : p.operands) memvals[op.expr] = op.op.result;
        detail::EvalCtx ctx{&t, &externs_, &memvals};
        if (p.cond != nullptr) {
          t.branch_value = detail::eval_expr(*p.cond, ctx);
          p.computed_valid = true;
          t.mode = ThreadExec::Mode::Advance;
        } else {
          p.computed = detail::eval_expr(*p.stmt->value, ctx);
          p.computed_valid = true;
          // Set up the write.
          const hic::Expr* target = p.stmt->target.get();
          const hic::Expr* root = target;
          while (root->kind == hic::ExprKind::Index ||
                 root->kind == hic::ExprKind::Member) {
            root = root->operands[0].get();
          }
          hic::Symbol* sym = root->symbol;
          if (sym != nullptr && memalloc::is_memory_resident(*sym)) {
            p.write.wdata = mask_width(p.computed, sym->type()->bit_width());
            start_access(p.write, *target, sym, true);
            t.mode = ThreadExec::Mode::Write;
          } else {
            // Register write completes instantly.
            if (sym != nullptr) {
              t.regs[sym] =
                  mask_width(p.computed, sym->type()->bit_width());
            }
            t.mode = ThreadExec::Mode::Advance;
          }
        }
      } else {
        // Drive the current operand's memory op.
        ThreadExec::StmtPlan::Operand& op = p.operands[t.operand_index];
        ThreadExec::MemOp& mo = op.op;
        if (mo.stage == ThreadExec::MemOp::Stage::Idle) {
          start_access(mo, *op.expr, op.expr->symbol, false);
        }
        drive_mem_op(t, mo);
      }
    }

    if (t.mode == ThreadExec::Mode::Write) drive_mem_op(t, p.write);
  }
}
void SystemSim::observe_phase() {
  for (auto& tp : threads_) {
    ThreadExec& t = *tp;
    if (MemOp* mo = t.current_op(); mo != nullptr && mo->ctrl != nullptr) {
      observe_mem_op(t, *mo);
      if (mo->stage == MemOp::Stage::Done) {
        mo->ctrl->release_port_a(t.name);
        if (t.mode == ThreadExec::Mode::Fetch) {
          // The fetch loop continues next cycle (or computes next drive).
          t.plan[t.plan_index].operands[t.operand_index].fetched = true;
        } else {
          t.mode = ThreadExec::Mode::Advance;
        }
      }
    }

    if (t.mode == ThreadExec::Mode::Advance) {
      ThreadExec::StmtPlan& p = t.plan[t.plan_index];
      if (p.cond == nullptr && t.plan_index + 1 < t.plan.size()) {
        // Chained statement: move to the next statement in this state.
        ++t.plan_index;
        t.operand_index = 0;
        t.mode = ThreadExec::Mode::Fetch;
        continue;
      }
      // Choose the successor state.
      const synth::FsmState& s = t.fsm.state(t.state);
      int next = -1;
      switch (s.kind) {
        case synth::StateKind::Action:
          next = s.next;
          break;
        case synth::StateKind::Branch:
          if (s.case_targets.empty()) {
            next = (t.branch_value != 0) ? s.true_target : s.false_target;
          } else {
            for (const synth::CaseTransition& ct : s.case_targets) {
              if (!ct.is_default && ct.value == t.branch_value) {
                next = ct.target;
                break;
              }
            }
            if (next < 0) {
              for (const synth::CaseTransition& ct : s.case_targets) {
                if (ct.is_default) next = ct.target;
              }
            }
          }
          break;
        case synth::StateKind::Done:
          next = t.state;
          break;
      }
      if (next != t.state) thread_event(t, trace::EventKind::FsmState, next);
      t.state = next;
      t.mode = ThreadExec::Mode::Plan;
    }
  }
}
}  // namespace hicsync::sim
