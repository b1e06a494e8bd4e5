// Reusable message-passing building blocks on the Engine.
//
// gather_balls_by_messages is the operational proof of the view API: t+1
// rounds of flooding reconstruct exactly the radius-t balls that
// local/ball.hpp extracts combinatorially (the classical LOCAL
// equivalence). bfs_by_messages is the standard distributed BFS.
//
// The flooding is FloodingGather, by deltas (DESIGN.md §8.6). A node's
// knowledge is two sorted, deduplicated runs: node IDs, and edges as
// (smaller ID, larger ID) pairs. In round 1 it starts as the radius-1 view
// (own ID, neighbour IDs, incident edges) and is broadcast whole. In every later round a node
// merges its inbox and broadcasts only the items that were new to it in
// that round. Nothing is lost: whatever a neighbour u knew two rounds ago
// already reached v last round, so the last delta of each neighbour is all
// v is missing. After round t+1 a node therefore holds exactly what
// full-knowledge flooding gives it (every node within t+1 hops, every edge
// with an endpoint within t hops) and halts with an empty output. The
// argument needs every message delivered: the gather installs no fault
// model, and FloodingGather is not meant to run under one.
//
// Payload layout (all words little-endian): a u32 node count N and a u32
// edge count E, then N i64 node IDs in strictly ascending order, then E
// edges as i64 pairs (lo, hi) with lo < hi, in strictly ascending order.
// Every port gets one payload per round, an empty delta included (8
// bytes). A payload whose length differs from 8 + 8N + 16E, or whose runs
// are not strictly ascending, throws ContractViolation before anything is
// merged.
//
// The parallel variants fan the flooding compute phase and the per-node
// ball reconstruction out over a ThreadPool with byte-identical results,
// and gather_canonical_views adds the §8 order-invariance memo: a
// cache keyed by the canonical form of each ball, so any view-based decoder
// that is order-invariant needs to be evaluated once per *distinct* view
// instead of once per node. The key includes the relative ID order inside
// the ball, so the distinct-view count is O(1) on structured families
// (cycles, grids, tori) only when that order repeats from ball to ball, as
// with sequential IDs. With random IDs it grows with n until the ID orders
// of a ball are exhausted: at radius 3, torus:64x64 gives 4047 memo hits
// out of 4096 with sequential IDs and 0 with random dense IDs.
#pragma once

#include <string>
#include <vector>

#include "local/ball.hpp"
#include "local/engine.hpp"

namespace lad {

class ThreadPool;

/// A known edge by the IDs of its endpoints, smaller ID first.
struct IdEdge {
  NodeId lo = 0;
  NodeId hi = 0;
  auto operator<=>(const IdEdge&) const = default;
};

/// The delta-flooding algorithm behind gather_balls_by_messages, for
/// callers that configure the Engine themselves (the provenance audit, a
/// fault model). Run it for max_rounds(); every node halts in round
/// radius + 1 with an empty output.
class FloodingGather : public SyncAlgorithm {
 public:
  explicit FloodingGather(int radius);

  /// Rounds to hand Engine::run: radius + 1 flooding rounds, plus the one
  /// in which the engine finds every node halted.
  int max_rounds() const { return radius_ + 2; }

  void init(const Graph& g) override;
  void round(NodeCtx& ctx) override;

  /// Node v's knowledge: sorted, deduplicated node IDs and edges.
  const std::vector<NodeId>& known_nodes(int v) const {
    return nodes_[static_cast<std::size_t>(v)];
  }
  const std::vector<IdEdge>& known_edges(int v) const {
    return edges_[static_cast<std::size_t>(v)];
  }

  /// Node v's radius-`radius` ball, rebuilt from its knowledge after a
  /// complete fault-free run; `g` maps the ball's IDs to parent indices.
  /// Nodes are listed by distance, ascending ID within a layer.
  Ball ball(const Graph& g, int v) const;

 private:
  int radius_;
  std::vector<std::vector<NodeId>> nodes_;
  std::vector<std::vector<IdEdge>> edges_;
};

/// Runs FloodingGather for radius+1 rounds and reconstructs each node's
/// radius-`radius` ball from the messages alone.
std::vector<Ball> gather_balls_by_messages(const Graph& g, int radius);

/// Same result, byte-identical, with the flooding compute phase and the
/// per-node ball reconstruction fanned out over `pool`.
std::vector<Ball> gather_balls_by_messages(const Graph& g, int radius, ThreadPool& pool);

/// Canonical-ball memo: per-node radius-t views interned by canonical form.
struct CanonicalViews {
  /// Node -> dense class id. Class ids are assigned in ascending node order
  /// of first appearance, so they are deterministic at any thread count.
  std::vector<int> view_class;
  /// Class id -> canonical key (graph/canonical.hpp).
  std::vector<std::string> key;
  /// Class id -> smallest node index with that view (the memo
  /// representative: evaluate an order-invariant decoder here, broadcast to
  /// the class).
  std::vector<int> representative;
  /// Nodes whose view was already interned = n - distinct views.
  long long memo_hits = 0;

  int distinct() const { return static_cast<int>(key.size()); }
};

/// Extracts every node's radius-`radius` ball, canonicalizes it (optionally
/// with per-node input `labels`), and interns the keys. Ball extraction and
/// canonicalization fan out over `pool` when given; interning is serial in
/// node order, so the classes are deterministic.
CanonicalViews gather_canonical_views(const Graph& g, int radius,
                                      const std::vector<int>& labels = {},
                                      ThreadPool* pool = nullptr);

struct DistributedBfsResult {
  std::vector<int> dist;    // kUnreachable outside the source's component
  std::vector<int> parent;  // BFS parent (-1 for source/unreached)
  int rounds = 0;
};

/// Single-source BFS as a message-passing algorithm.
DistributedBfsResult bfs_by_messages(const Graph& g, int source);

}  // namespace lad
