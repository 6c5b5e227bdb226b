#include "rtl/eval.h"

#include <algorithm>
#include <set>
#include <stdexcept>

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

}  // namespace

ModuleSim::ModuleSim(const Module& module) : ModuleSim(module, SimOptions{}) {}

ModuleSim::ModuleSim(const Module& module, const SimOptions& options)
    : module_(module) {
  if (options.strict_undriven) check_undriven_reads(module);
  if (!module.instances().empty()) {
    throw std::runtime_error("ModuleSim: instances are not supported (" +
                             module.name() + ")");
  }
  values_.assign(module.nets().size(), 0);
  for (const Net& n : module.nets()) names_[n.name] = n.id;
  if (auto it = names_.find("rst"); it != names_.end()) rst_ = it->second;
  for (const Memory& m : module.memories()) {
    memories_.emplace_back(static_cast<std::size_t>(m.depth), 0);
  }

  // Topologically order the continuous assigns.
  const auto& assigns = module.assigns();
  const std::size_t n = assigns.size();
  // driver_of[net] = assign index
  std::map<int, int> driver_of;
  for (std::size_t i = 0; i < n; ++i) {
    driver_of[assigns[i].target] = static_cast<int>(i);
  }
  // Dependencies between assigns.
  std::vector<std::vector<int>> deps(n);  // assign i depends on deps[i]
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<int>> dependents(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<int> refs;
    collect_refs(*assigns[i].value, refs);
    for (int r : refs) {
      auto it = driver_of.find(r);
      if (it != driver_of.end()) {
        dependents[static_cast<std::size_t>(it->second)].push_back(
            static_cast<int>(i));
        ++indegree[i];
      }
    }
  }
  std::vector<int> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(static_cast<int>(i));
  }
  while (!ready.empty()) {
    int i = ready.back();
    ready.pop_back();
    order_.push_back(i);
    for (int d : dependents[static_cast<std::size_t>(i)]) {
      if (--indegree[static_cast<std::size_t>(d)] == 0) ready.push_back(d);
    }
  }
  if (order_.size() != n) {
    throw std::runtime_error("ModuleSim: combinational cycle in " +
                             module.name());
  }
  settle();
}

int ModuleSim::net_id(const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end()) {
    throw std::runtime_error("ModuleSim: no net named '" + name + "'");
  }
  return it->second;
}

std::size_t ModuleSim::memory_index(const std::string& name) const {
  const auto& mems = module_.memories();
  for (std::size_t i = 0; i < mems.size(); ++i) {
    if (mems[i].name == name) return i;
  }
  throw std::runtime_error("ModuleSim: no memory named '" + name + "'");
}

std::uint64_t ModuleSim::eval(const RtlExpr& e) const {
  switch (e.op) {
    case RtlOp::Const:
      return e.value;
    case RtlOp::Ref:
      return values_[static_cast<std::size_t>(e.net)];
    case RtlOp::Slice:
      return (eval(*e.args[0]) >> e.lo) & low_mask(e.hi - e.lo + 1);
    case RtlOp::Concat: {
      std::uint64_t v = 0;
      for (const auto& a : e.args) {
        v = (v << a->width) | (eval(*a) & low_mask(a->width));
      }
      return v & low_mask(e.width);
    }
    case RtlOp::Not:
      return ~eval(*e.args[0]) & low_mask(e.width);
    case RtlOp::And:
      return eval(*e.args[0]) & eval(*e.args[1]) & low_mask(e.width);
    case RtlOp::Or:
      return (eval(*e.args[0]) | eval(*e.args[1])) & low_mask(e.width);
    case RtlOp::Xor:
      return (eval(*e.args[0]) ^ eval(*e.args[1])) & low_mask(e.width);
    case RtlOp::Add:
      return (eval(*e.args[0]) + eval(*e.args[1])) & low_mask(e.width);
    case RtlOp::Sub:
      return (eval(*e.args[0]) - eval(*e.args[1])) & low_mask(e.width);
    case RtlOp::Eq:
      return eval(*e.args[0]) == eval(*e.args[1]) ? 1 : 0;
    case RtlOp::Ne:
      return eval(*e.args[0]) != eval(*e.args[1]) ? 1 : 0;
    case RtlOp::Lt:
      return eval(*e.args[0]) < eval(*e.args[1]) ? 1 : 0;
    case RtlOp::Le:
      return eval(*e.args[0]) <= eval(*e.args[1]) ? 1 : 0;
    case RtlOp::Shl:
      return (eval(*e.args[0]) << eval(*e.args[1])) & low_mask(e.width);
    case RtlOp::Shr:
      return (eval(*e.args[0]) >> eval(*e.args[1])) & low_mask(e.width);
    case RtlOp::Mux:
      return (eval(*e.args[0]) != 0 ? eval(*e.args[1]) : eval(*e.args[2])) &
             low_mask(e.width);
    case RtlOp::ReduceOr:
      return eval(*e.args[0]) != 0 ? 1 : 0;
    case RtlOp::ReduceAnd: {
      const std::uint64_t all = low_mask(e.args[0]->width);
      return (eval(*e.args[0]) & all) == all ? 1 : 0;
    }
  }
  return 0;
}

void ModuleSim::settle() {
  for (int i : order_) {
    const ContAssign& a = module_.assigns()[static_cast<std::size_t>(i)];
    values_[static_cast<std::size_t>(a.target)] =
        eval(*a.value) & low_mask(module_.net(a.target).width);
  }
}

void ModuleSim::step() {
  settle();

  // Evaluate every next-state value and memory port with the pre-edge
  // combinational state, then commit them together.
  struct Commit {
    int target;
    std::uint64_t value;
  };
  struct MemWrite {
    std::size_t memory;
    std::size_t addr;
    std::uint64_t value;
  };
  std::vector<Commit> commits;  // registers, then memory read ports
  std::vector<MemWrite> mem_writes;
  const bool in_reset = rst_ >= 0 && get(rst_) != 0;
  for (const SeqAssign& s : module_.seqs()) {
    if (in_reset && s.has_reset) {
      commits.push_back(Commit{s.target, s.reset_value});
      continue;
    }
    if (s.enable != nullptr && eval(*s.enable) == 0) continue;
    commits.push_back(Commit{
        s.target, eval(*s.value) & low_mask(module_.net(s.target).width)});
  }
  const auto& mems = module_.memories();
  for (std::size_t m = 0; m < mems.size(); ++m) {
    const Memory& mem = mems[m];
    const std::vector<std::uint64_t>& storage = memories_[m];
    for (const MemoryPort& p : mem.ports) {
      std::size_t addr = static_cast<std::size_t>(eval(*p.addr)) %
                         storage.size();
      if (p.read_data >= 0) {
        // Read-first: capture the pre-edge contents.
        commits.push_back(
            Commit{p.read_data, storage[addr] & low_mask(mem.width)});
      }
      if (p.write_enable != nullptr && eval(*p.write_enable) != 0 &&
          !in_reset) {
        mem_writes.push_back(
            MemWrite{m, addr, eval(*p.write_data) & low_mask(mem.width)});
      }
    }
  }

  for (const Commit& c : commits) {
    values_[static_cast<std::size_t>(c.target)] = c.value;
  }
  for (const MemWrite& w : mem_writes) {
    memories_[w.memory][w.addr] = w.value;
  }
  ++cycles_;
  settle();
}

void ModuleSim::reset() {
  if (rst_ < 0) return;
  set_input(rst_, 1);
  step();
  set_input(rst_, 0);
  settle();
}

void ModuleSim::clear_state() {
  std::fill(values_.begin(), values_.end(), 0);
  for (auto& words : memories_) std::fill(words.begin(), words.end(), 0);
  cycles_ = 0;
  settle();
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
