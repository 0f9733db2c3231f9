//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tarjan strongly-connected-component condensation over a dense directed
/// graph, used to schedule interprocedural summary computation bottom-up
/// (cf. summary-based whole-program analyses such as arXiv:2310.10298):
/// callee components are finished before their callers, so non-recursive
/// call graphs converge in a single pass per function.
///
/// Determinism: nodes are visited in ascending id order and adjacency in
/// stored order, so component numbering and membership are a pure function
/// of the input graph.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ANALYSIS_SCC_H
#define RUSTSIGHT_ANALYSIS_SCC_H

#include <cstdint>
#include <span>
#include <vector>

namespace rs::analysis {

/// The condensation of a directed graph into strongly connected components.
///
/// Components are numbered in *reverse topological* order of the
/// condensation: for every edge u -> v with componentOf(u) !=
/// componentOf(v), componentOf(v) < componentOf(u). Processing components
/// 0, 1, 2, ... therefore visits every callee component before any of its
/// callers.
class SccGraph {
public:
  /// Condenses the graph with nodes 0..NumNodes-1 and successor lists
  /// \p Succs (Succs.size() must equal NumNodes; ids out of range are not
  /// permitted).
  SccGraph(uint32_t NumNodes, const std::vector<std::vector<uint32_t>> &Succs);

  uint32_t numComponents() const {
    return static_cast<uint32_t>(Recursive.size());
  }

  uint32_t componentOf(uint32_t Node) const { return CompOf[Node]; }

  /// Member nodes of component \p C, in ascending node id order.
  std::span<const uint32_t> members(uint32_t C) const {
    return {Members.data() + CompStart[C], Members.data() + CompStart[C + 1]};
  }

  /// True when the component contains a cycle: more than one member, or a
  /// single member with a self edge. Recursive components need fixpoint
  /// iteration; non-recursive ones converge in one visit.
  bool isRecursive(uint32_t C) const { return Recursive[C]; }

private:
  std::vector<uint32_t> CompOf;
  /// Every node, grouped by component in component order (CSR: component
  /// C's members are Members[CompStart[C], CompStart[C + 1])).
  std::vector<uint32_t> Members;
  std::vector<uint32_t> CompStart;
  std::vector<bool> Recursive;
};

} // namespace rs::analysis

#endif // RUSTSIGHT_ANALYSIS_SCC_H
