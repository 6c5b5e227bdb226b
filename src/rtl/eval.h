// Cycle-stepped functional evaluation of a single RTL module.
//
// Lets tests and the system simulator execute *generated* netlists (the
// memory-organization controllers) rather than a separate behavioural model:
// combinational assigns are settled to a fixpoint each cycle, then registers
// and memory ports commit on the clock edge. Memories follow the BRAM
// read-first convention (a simultaneous read sees the old contents).
//
// A cycle is: set inputs -> settle() -> read outputs -> step(). Nets are
// addressed by id (rtl::Net::id); the by-name overloads look the id up
// first, so per-cycle drivers resolve their nets once (memorg::bind_ports)
// and use the id forms.
//
// Instances are not elaborated — generators emit flat controller modules.
#pragma once

#include <cstdint>
#include <map>
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
  /// Builds the evaluation order. Throws std::runtime_error on
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

  /// Value of any net after the last settle/step.
  [[nodiscard]] std::uint64_t get(int net) const {
    return values_[static_cast<std::size_t>(net)];
  }
  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    return get(net_id(name));
  }

  /// Id of the named net; throws std::runtime_error if there is none.
  [[nodiscard]] int net_id(const std::string& name) const;

  /// Re-evaluates combinational logic with current inputs/registers
  /// (no clock edge).
  void settle();

  /// One clock cycle: settle, then commit registers and memory ports, then
  /// settle again so outputs reflect the new state.
  void step();

  /// Applies reset for one cycle (rst=1, step, rst=0).
  void reset();

  /// Returns the instance to its just-constructed state: every net and
  /// memory word zeroed, cycle counter cleared, combinational logic
  /// re-settled. Unlike reset(), which only exercises the module's own
  /// reset logic, this also clears BRAM contents — it is what lets a
  /// long-lived simulator (the hic-rt executor pool) recycle a module
  /// between workloads with results identical to a fresh instance.
  void clear_state();

  /// Direct memory access for tests (word address).
  [[nodiscard]] std::uint64_t read_mem(const std::string& mem,
                                       std::size_t addr) const;
  void write_mem(const std::string& mem, std::size_t addr,
                 std::uint64_t value);

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

 private:
  [[nodiscard]] std::uint64_t eval(const RtlExpr& e) const;
  [[nodiscard]] std::size_t memory_index(const std::string& name) const;

  const Module& module_;
  std::vector<std::uint64_t> values_;                 // per net
  std::vector<int> order_;                            // topo order of assigns_
  std::vector<std::vector<std::uint64_t>> memories_;  // per module memory
  std::map<std::string, int> names_;
  int rst_ = -1;                                      // "rst" net, if any
  std::uint64_t cycles_ = 0;
};

}  // namespace hicsync::rtl
