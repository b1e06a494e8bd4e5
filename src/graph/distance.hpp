// BFS-based distance utilities, with optional restriction to a node subset.
//
// Several constructions in the paper operate "within" an induced subgraph
// (a component of G_{2,3}, the not-yet-clustered graph G_i, ...). All
// functions here accept an optional mask: when given, only nodes v with
// mask[v] != 0 exist for the traversal.
//
// Complexity contract. A LOCAL decoder's per-node work depends on the radius
// it looks at, not on n, and so must the primitives it is built from.
// BoundedBfs and every function below except bfs_distances /
// bfs_distances_multi cost O(visited nodes + their incident edges) per
// search, after a one-time O(n) set-up of the search object; the free
// functions build a fresh search object per call, so callers that search
// many times (per node, per component) should hold one BoundedBfs and reuse
// it. bfs_distances / bfs_distances_multi return a dense n-sized array and
// are O(n) per call by construction: use them for true all-n searches.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace lad {

/// Node mask: mask[v] != 0 means v participates. An empty vector means all.
using NodeMask = std::vector<char>;

constexpr int kUnreachable = -1;

/// Reusable bounded breadth-first search over one graph.
///
/// Owns an n-sized slot array initialised once; each run resets only the
/// entries the previous run touched, so a run costs O(visited nodes + their
/// incident edges). Not thread-safe: give each thread (or pool chunk) its
/// own object. The graph must outlive the search.
class BoundedBfs {
 public:
  explicit BoundedBfs(const Graph& g);

  /// BFS from `sources` (duplicates ignored) inside `mask`. Nodes at
  /// distance <= max_dist are visited (no cap when max_dist < 0); the search
  /// stops as soon as `stop_at` (when >= 0) is reached, leaving the layer it
  /// sits in partially visited. Returns the visited nodes in BFS order
  /// (layer by layer, sources first in the given order); the reference
  /// stays valid until the next run or sort_layers().
  const std::vector<int>& run(std::span<const int> sources, const NodeMask& mask = {},
                              int max_dist = -1, int stop_at = -1);
  const std::vector<int>& run(int source, const NodeMask& mask = {}, int max_dist = -1,
                              int stop_at = -1) {
    return run(std::span<const int>(&source, 1), mask, max_dist, stop_at);
  }

  /// Reorders the visited list into ball_nodes order: by distance layer,
  /// ascending node index within a layer. O(k log k) for k visited nodes.
  const std::vector<int>& sort_layers();

  bool reached(int v) const { return slot_[static_cast<std::size_t>(v)] >= 0; }
  /// Position of v in the visited list (-1 when not reached).
  int slot(int v) const { return slot_[static_cast<std::size_t>(v)]; }
  /// Distance of v from the sources, kUnreachable when not reached.
  int dist(int v) const {
    const int s = slot(v);
    return s < 0 ? kUnreachable : layer_[static_cast<std::size_t>(s)];
  }
  /// Largest distance reached by the last run (0 when nothing was visited).
  int depth() const { return layer_.empty() ? 0 : layer_.back(); }

  /// component_diameter(graph(), v, mask) > bound, without the all-pairs
  /// sweep where possible: it answers from v's own eccentricity e when
  /// e > bound or 2e <= bound, and otherwise stops at the first member
  /// whose eccentricity exceeds `bound`, each probe capped at bound + 1.
  bool diameter_exceeds(int v, int bound, const NodeMask& mask = {});

  const Graph& graph() const { return *g_; }

 private:
  const Graph* g_;
  std::vector<int> slot_;     // n-sized; -1 = not visited by the current run
  std::vector<int> visited_;  // doubles as the BFS queue
  std::vector<int> layer_;    // layer_[i] = distance of visited_[i]
};

/// Distances from `source` (capped at max_dist when >= 0); kUnreachable
/// marks nodes outside the cap / mask / component.
std::vector<int> bfs_distances(const Graph& g, int source, const NodeMask& mask = {},
                               int max_dist = -1);

/// Multi-source BFS distances.
std::vector<int> bfs_distances_multi(const Graph& g, const std::vector<int>& sources,
                                     const NodeMask& mask = {}, int max_dist = -1);

/// Nodes at distance <= radius from v (the ball N_<=radius(v)), by distance
/// layer and by ascending node index within a layer.
std::vector<int> ball_nodes(const Graph& g, int v, int radius, const NodeMask& mask = {});

/// |N_<=radius(v)|.
int ball_size(const Graph& g, int v, int radius, const NodeMask& mask = {});

/// Distance between u and v, kUnreachable if disconnected (within mask).
int distance(const Graph& g, int u, int v, const NodeMask& mask = {});

/// One shortest u-v path (node sequence, u first); empty if disconnected.
std::vector<int> shortest_path(const Graph& g, int u, int v, const NodeMask& mask = {});

/// Eccentricity of v within its (masked) component.
int eccentricity(const Graph& g, int v, const NodeMask& mask = {});

/// Exact diameter of the (masked) component containing v (all-pairs BFS;
/// intended for moderate component sizes).
int component_diameter(const Graph& g, int v, const NodeMask& mask = {});

}  // namespace lad
