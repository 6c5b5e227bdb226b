#include "analysis/memaccess.h"

#include <algorithm>

#include "support/graph.h"

namespace hicsync::analysis {

MemAccessGraph MemAccessGraph::build(const hic::Program& program,
                                     const hic::Sema& sema,
                                     const std::vector<Cfg>& cfgs) {
  MemAccessGraph g;

  // Collect ops thread by thread, in a deterministic program-order walk of
  // each CFG (RPO approximates program order for structured code).
  std::map<const hic::Stmt*, std::vector<int>> write_ops_by_stmt;
  std::map<const hic::Stmt*, std::vector<int>> read_ops_by_stmt;

  for (const Cfg& cfg : cfgs) {
    int seq = 0;
    int prev_op = -1;
    for (int node_id : cfg.reverse_post_order()) {
      const CfgNode& node = cfg.node(node_id);
      UseDefAnalysis* unused = nullptr;
      (void)unused;
      // Gather accesses of this node directly (cheaper than a full
      // UseDefAnalysis here; direction comes from position in the Assign).
      std::vector<std::pair<hic::Symbol*, bool>> accesses;
      auto walk = [&](auto&& self, const hic::Expr& e, bool is_def) -> void {
        switch (e.kind) {
          case hic::ExprKind::VarRef:
            if (e.symbol != nullptr) accesses.emplace_back(e.symbol, is_def);
            return;
          case hic::ExprKind::Index:
            self(self, *e.operands[0], is_def);
            self(self, *e.operands[1], false);
            return;
          case hic::ExprKind::Member:
            self(self, *e.operands[0], is_def);
            return;
          case hic::ExprKind::IntLit:
          case hic::ExprKind::CharLit:
            return;
          default:
            for (const auto& op : e.operands) self(self, *op, false);
            return;
        }
      };
      if (node.kind == CfgNodeKind::Statement && node.stmt != nullptr &&
          node.stmt->kind == hic::StmtKind::Assign) {
        walk(walk, *node.stmt->value, false);
        walk(walk, *node.stmt->target, true);
      } else if (node.kind == CfgNodeKind::Branch && node.cond != nullptr) {
        walk(walk, *node.cond, false);
      } else {
        continue;
      }

      for (const auto& [sym, is_def] : accesses) {
        MemOp op;
        op.id = static_cast<int>(g.ops_.size());
        op.thread = cfg.thread_name();
        op.symbol = sym;
        op.is_write = is_def;
        op.seq = seq++;
        op.stmt = node.stmt;
        g.ops_.push_back(op);
        g.by_symbol_[sym].push_back(op.id);
        if (prev_op >= 0) g.order_edges_.emplace_back(prev_op, op.id);
        prev_op = op.id;
        if (node.stmt != nullptr) {
          (is_def ? write_ops_by_stmt : read_ops_by_stmt)[node.stmt]
              .push_back(op.id);
        }
      }
    }
  }

  // Cross-thread dependency edges: producer write → each consumer read.
  for (const hic::Dependency& dep : sema.dependencies()) {
    auto wit = write_ops_by_stmt.find(dep.producer_stmt);
    if (wit == write_ops_by_stmt.end()) continue;
    // The producing statement's write of the shared variable.
    int producer_write = -1;
    for (int op_id : wit->second) {
      if (g.ops_[static_cast<std::size_t>(op_id)].symbol == dep.shared_var) {
        producer_write = op_id;
        break;
      }
    }
    if (producer_write < 0) continue;
    for (const hic::DepConsumer& c : dep.consumers) {
      auto rit = read_ops_by_stmt.find(c.stmt);
      if (rit == read_ops_by_stmt.end()) continue;
      for (int op_id : rit->second) {
        if (g.ops_[static_cast<std::size_t>(op_id)].symbol ==
            dep.shared_var) {
          g.order_edges_.emplace_back(producer_write, op_id);
        }
      }
    }
  }

  (void)program;
  return g;
}

std::vector<MemAccessGraph::Accessor> MemAccessGraph::accessors(
    const hic::Symbol* sym) const {
  std::vector<Accessor> out;
  auto it = by_symbol_.find(sym);
  if (it == by_symbol_.end()) return out;
  for (int op_id : it->second) {
    const MemOp& op = ops_[static_cast<std::size_t>(op_id)];
    Accessor* acc = nullptr;
    for (auto& a : out) {
      if (a.thread == op.thread) {
        acc = &a;
        break;
      }
    }
    if (acc == nullptr) {
      out.push_back(Accessor{op.thread, 0, 0});
      acc = &out.back();
    }
    if (op.is_write) {
      ++acc->writes;
    } else {
      ++acc->reads;
    }
  }
  return out;
}

std::vector<hic::Symbol*> MemAccessGraph::symbols() const {
  std::vector<hic::Symbol*> out;
  for (const auto& [sym, _] : by_symbol_) {
    out.push_back(const_cast<hic::Symbol*>(sym));
  }
  std::sort(out.begin(), out.end(), [](hic::Symbol* a, hic::Symbol* b) {
    return a->id() < b->id();
  });
  return out;
}

bool MemAccessGraph::is_consistent() const {
  // Consistent iff the partial order is acyclic.
  std::vector<std::vector<int>> adj(ops_.size());
  for (const auto& [from, to] : order_edges_) {
    adj[static_cast<std::size_t>(from)].push_back(to);
  }
  return support::topological_order(static_cast<int>(ops_.size()),
                                    support::successors_in(adj))
             .size() == ops_.size();
}

int MemAccessGraph::op_count(const std::string& thread) const {
  int count = 0;
  for (const MemOp& op : ops_) {
    if (op.thread == thread) ++count;
  }
  return count;
}

}  // namespace hicsync::analysis
