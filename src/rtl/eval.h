// Cycle-stepped functional evaluation of a single RTL module.
//
// Lets tests and the system simulator execute *generated* netlists (the
// memory-organization controllers) rather than a separate behavioural model.
// Memories follow the BRAM read-first convention (a simultaneous read sees
// the old contents).
//
// Construction lowers the module onto two flat instruction tapes over one
// array of 64-bit value slots: the net values (slot = net id), then
// pre-loaded constants, then one temporary per instruction. Each
// instruction reads up to three operand slots, writes one slot and carries
// its result mask precomputed; a net reference is an operand, not an
// instruction. The combinational tape holds every continuous assign in
// rtl::assign_order, so settle() is a single pass over it. The edge tape
// computes every register next-state/enable and memory address/write
// enable/write data into temporaries, which step() then commits.
//
// A cycle is: set inputs -> settle() -> read nets -> step(). step() only
// commits the clock edge, from the values of the last settle(); afterwards
// registers hold their new values and combinational nets are stale until
// the next settle(). Nets are addressed by id (rtl::Net::id); the by-name
// overloads look the id up first, so per-cycle drivers resolve their nets
// once (memorg::bind_ports) and use the id forms.
//
// Instances are not elaborated — generators emit flat controller modules.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rtl/netlist.h"
#include "support/bits.h"

namespace hicsync::rtl {

struct SimOptions {
  /// When set, construction scans every expression site (continuous assign
  /// values, sequential next-state/enable expressions, memory port address/
  /// write-enable/write-data) for references to nets that nothing drives —
  /// not an input port, not a continuous or sequential target, not a memory
  /// read port. Such reads silently evaluate as 0 in the default mode,
  /// masking exactly the wiring bugs hic-nlint reports statically; strict
  /// mode throws std::runtime_error naming the net and the reading site.
  bool strict_undriven = false;
};

class ModuleSim {
 public:
  /// Lowers the module onto its tapes. Throws std::runtime_error on
  /// combinational cycles or unsupported features (instances).
  explicit ModuleSim(const Module& module);
  ModuleSim(const Module& module, const SimOptions& options);

  /// Sets an input port value (masked to the port width).
  void set_input(int net, std::uint64_t value) {
    values_[static_cast<std::size_t>(net)] =
        value & support::low_mask(module_.net(net).width);
  }
  void set_input(const std::string& name, std::uint64_t value) {
    set_input(net_id(name), value);
  }

  /// Current value of a net: a register's as of the last step(), a
  /// combinational net's as of the last settle().
  [[nodiscard]] std::uint64_t get(int net) const {
    return values_[static_cast<std::size_t>(net)];
  }
  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    return get(net_id(name));
  }

  /// Id of the named net; throws std::runtime_error if there is none.
  [[nodiscard]] int net_id(const std::string& name) const;

  /// Evaluates every combinational net from the current inputs and
  /// registers (no clock edge): one pass over the combinational tape.
  void settle();

  /// Commits one clock edge: registers and memory ports take the values
  /// computed from the last settle(). Combinational nets are not
  /// re-evaluated; call settle() before reading them again.
  void step();

  /// Applies reset for one cycle: rst=1, settle(), step(), rst=0. Like
  /// step(), leaves combinational nets stale.
  void reset();

  /// Returns the instance to its just-constructed state: every net and
  /// memory word zeroed, cycle and settle counters cleared. Unlike reset(),
  /// which only exercises the module's own reset logic, this also clears
  /// BRAM contents — it is what lets a long-lived simulator (the hic-rt
  /// executor pool) recycle a module between workloads with results
  /// identical to a fresh instance.
  void clear_state();

  /// Direct memory access for tests (word address).
  [[nodiscard]] std::uint64_t read_mem(const std::string& mem,
                                       std::size_t addr) const;
  void write_mem(const std::string& mem, std::size_t addr,
                 std::uint64_t value);

  /// Clock edges committed since construction or clear_state().
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  /// settle() passes since construction or clear_state().
  [[nodiscard]] std::uint64_t settles() const { return settles_; }

 private:
  friend class TapeBuilder;

  enum class Code : std::uint8_t {
    Copy,       // a
    Not,        // ~a
    And, Or, Xor, Add, Sub, Shl, Shr,  // a op b
    Eq, Ne, Lt, Le,                    // a cmp b
    Mux,        // a != 0 ? b : c
    ReduceOr,   // a != 0
    ReduceAnd,  // (a & b) == b, b = the operand's all-ones mask
    Slice,      // a >> c (c immediate)
    Concat,     // (a << c) | b (c immediate)
  };
  /// slots[dst] = result & mask.
  struct Instr {
    Code code = Code::Copy;
    std::uint32_t dst = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    std::uint64_t mask = ~0ULL;
  };
  static constexpr std::uint32_t kNone = ~0U;
  /// if (rst && has_reset) target <= reset_value;
  /// else if (enable == kNone || slots[enable]) target <= slots[value].
  struct RegCommit {
    std::uint32_t target = 0;
    std::uint32_t value = 0;
    std::uint32_t enable = kNone;
    bool has_reset = true;
    std::uint64_t reset_value = 0;
  };
  /// One memory port; addr/write_enable/write_data are edge-tape slots
  /// (write_data already cut to the word width).
  struct PortCommit {
    std::uint32_t memory = 0;
    std::uint32_t addr = 0;
    std::uint32_t write_enable = kNone;
    std::uint32_t write_data = 0;
    int read_data = -1;
    std::uint64_t mask = ~0ULL;  // the memory's word width
  };

  void run(const std::vector<Instr>& tape);
  [[nodiscard]] std::size_t memory_index(const std::string& name) const;

  const Module& module_;
  std::vector<std::uint64_t> values_;  // nets, then constants, temporaries
  std::vector<Instr> comb_;            // continuous assigns, topo order
  std::vector<Instr> edge_;            // next-state and memory port values
  std::vector<RegCommit> regs_;
  std::vector<PortCommit> ports_;
  std::vector<std::vector<std::uint64_t>> memories_;  // per module memory
  int rst_ = -1;                                      // "rst" net, if any
  std::uint64_t cycles_ = 0;
  std::uint64_t settles_ = 0;
};

}  // namespace hicsync::rtl
