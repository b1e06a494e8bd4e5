// Connected components, optionally of a masked induced subgraph.
#pragma once

#include <vector>

#include "graph/distance.hpp"
#include "graph/graph.hpp"

namespace lad {

struct Components {
  /// comp_of[v] is the component id of v, or -1 for nodes outside the mask.
  std::vector<int> comp_of;
  /// members[c] lists the nodes of component c.
  std::vector<std::vector<int>> members;

  int count() const { return static_cast<int>(members.size()); }
};

/// Computes connected components of g restricted to `mask` (all nodes when
/// the mask is empty).
Components connected_components(const Graph& g, const NodeMask& mask = {});

}  // namespace lad
