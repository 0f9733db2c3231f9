#include "analysis/Scc.h"

#include <algorithm>
#include <cassert>

using namespace rs::analysis;

// Iterative Tarjan. Components are emitted when their root finishes, which
// is exactly reverse topological order of the condensation: every component
// reachable from a root (its callees) is emitted before the root's own.
SccGraph::SccGraph(uint32_t NumNodes,
                   const std::vector<std::vector<uint32_t>> &Succs) {
  assert(Succs.size() == NumNodes && "adjacency size mismatch");
  constexpr uint32_t Undef = ~uint32_t(0);

  CompOf.assign(NumNodes, Undef);
  Members.reserve(NumNodes);
  CompStart.reserve(size_t(NumNodes) + 1);
  CompStart.push_back(0);
  std::vector<uint32_t> Index(NumNodes, Undef);
  std::vector<uint32_t> LowLink(NumNodes, 0);
  std::vector<bool> OnStack(NumNodes, false);
  std::vector<uint32_t> Stack;

  struct Frame {
    uint32_t Node;
    uint32_t NextEdge;
  };
  std::vector<Frame> Dfs;
  uint32_t NextIndex = 0;

  for (uint32_t Root = 0; Root != NumNodes; ++Root) {
    if (Index[Root] != Undef)
      continue;
    Dfs.push_back({Root, 0});
    while (!Dfs.empty()) {
      Frame &F = Dfs.back();
      uint32_t V = F.Node;
      if (F.NextEdge == 0) {
        Index[V] = LowLink[V] = NextIndex++;
        Stack.push_back(V);
        OnStack[V] = true;
      }
      bool Descended = false;
      while (F.NextEdge < Succs[V].size()) {
        uint32_t W = Succs[V][F.NextEdge++];
        if (Index[W] == Undef) {
          Dfs.push_back({W, 0});
          Descended = true;
          break;
        }
        if (OnStack[W])
          LowLink[V] = std::min(LowLink[V], Index[W]);
      }
      if (Descended)
        continue;
      // V is finished: fold its lowlink into the parent, emit if root.
      if (LowLink[V] == Index[V]) {
        uint32_t C = numComponents();
        size_t Begin = Members.size();
        uint32_t W;
        do {
          W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          CompOf[W] = C;
          Members.push_back(W);
        } while (W != V);
        std::sort(Members.begin() + Begin, Members.end());
        size_t Size = Members.size() - Begin;
        CompStart.push_back(static_cast<uint32_t>(Members.size()));
        bool SelfLoop = false;
        if (Size == 1) {
          uint32_t N = Members.back();
          SelfLoop = std::find(Succs[N].begin(), Succs[N].end(), N) !=
                     Succs[N].end();
        }
        Recursive.push_back(Size > 1 || SelfLoop);
      }
      Dfs.pop_back();
      if (!Dfs.empty()) {
        Frame &Parent = Dfs.back();
        LowLink[Parent.Node] = std::min(LowLink[Parent.Node], LowLink[V]);
      }
    }
  }
}
