#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/canonical.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "local/gather.hpp"
#include "util/contracts.hpp"
#include "util/hashing.hpp"

namespace lad {
namespace {

// extract_ball lists each distance layer in ascending parent index; the
// gather sees IDs only and lists it in ascending ID. On a copy of g whose
// indices follow the ID order the two coincide, so the reference ball is
// extract_ball on that copy, with to_parent mapped back to g.
struct IdOrdered {
  Graph graph;
  std::vector<int> to_g;   // copy index -> g index
  std::vector<int> rank;   // g index -> copy index
};

IdOrdered id_ordered(const Graph& g) {
  IdOrdered c;
  const auto by_id = g.nodes_by_id();
  c.to_g.assign(by_id.begin(), by_id.end());
  c.rank.assign(static_cast<std::size_t>(g.n()), -1);
  Graph::Builder b;
  for (const int v : c.to_g) c.rank[static_cast<std::size_t>(v)] = b.add_node(g.id(v));
  for (int e = 0; e < g.m(); ++e) {
    b.add_edge(c.rank[static_cast<std::size_t>(g.edge_u(e))],
               c.rank[static_cast<std::size_t>(g.edge_v(e))]);
  }
  c.graph = std::move(b).build();
  return c;
}

void expect_same_ball(const Ball& got, const Ball& want, const std::string& where) {
  EXPECT_EQ(got.radius, want.radius) << where;
  EXPECT_EQ(got.center, want.center) << where;
  EXPECT_EQ(got.to_parent, want.to_parent) << where;
  EXPECT_EQ(got.dist, want.dist) << where;
  const auto ids_a = got.graph.raw_ids(), ids_b = want.graph.raw_ids();
  EXPECT_EQ(std::vector<NodeId>(ids_a.begin(), ids_a.end()),
            std::vector<NodeId>(ids_b.begin(), ids_b.end()))
      << where;
  const auto eu_a = got.graph.raw_edge_u(), eu_b = want.graph.raw_edge_u();
  EXPECT_EQ(std::vector<int>(eu_a.begin(), eu_a.end()), std::vector<int>(eu_b.begin(), eu_b.end()))
      << where;
  const auto ev_a = got.graph.raw_edge_v(), ev_b = want.graph.raw_edge_v();
  EXPECT_EQ(std::vector<int>(ev_a.begin(), ev_a.end()), std::vector<int>(ev_b.begin(), ev_b.end()))
      << where;
}

Graph family(int which) {
  switch (which) {
    case 0:
      return make_cycle(24, IdMode::kRandomDense, 5);
    case 1:
      return make_grid(6, 6, IdMode::kRandomSparse, 6);
    case 2:
      return make_bounded_degree_tree(40, 4, 7);
    case 3:  // disconnected: balls stop at their component
      return disjoint_union({make_cycle(9), make_cycle(13)}, IdMode::kRandomDense, 4);
    case 4:
      return make_path(1);
    case 5:  // high degree: the hub merges 29 runs per round
      return make_star(30, IdMode::kRandomSparse, 9);
    default:  // diameter 3: from radius 3 on the last deltas are empty
      return make_cycle(7, IdMode::kRandomDense, 10);
  }
}

// The operational/combinatorial equivalence at the heart of the LOCAL
// model: flooding for t+1 rounds reconstructs exactly the radius-t ball.
class GatherEquivalence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GatherEquivalence, FloodingMatchesExtraction) {
  const auto [which, radius] = GetParam();
  const Graph g = family(which);
  const IdOrdered ref = id_ordered(g);
  const auto balls = gather_balls_by_messages(g, radius);
  ASSERT_EQ(static_cast<int>(balls.size()), g.n());
  for (int v = 0; v < g.n(); ++v) {
    Ball want = extract_ball(ref.graph, ref.rank[static_cast<std::size_t>(v)], radius);
    for (int& p : want.to_parent) p = ref.to_g[static_cast<std::size_t>(p)];
    expect_same_ball(balls[static_cast<std::size_t>(v)], want, "node " + std::to_string(g.id(v)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GatherEquivalence,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6),
                                            ::testing::Values(0, 1, 2, 3, 6)));

TEST(GatherSequentialIds, MatchExtractionDirectly) {
  // With IDs in index order the ID-ordered copy is g itself.
  for (const Graph& g : {make_torus(5, 6), make_grid(4, 7), make_star(12)}) {
    const auto balls = gather_balls_by_messages(g, 2);
    for (int v = 0; v < g.n(); ++v) {
      expect_same_ball(balls[static_cast<std::size_t>(v)], extract_ball(g, v, 2),
                       "node " + std::to_string(g.id(v)));
    }
  }
}

std::uint64_t gather_digest(const std::vector<Ball>& balls) {
  std::uint64_t h = 0;
  const auto mix = [&h](auto x) { h = hash2(h, static_cast<std::uint64_t>(x)); };
  for (const Ball& b : balls) {
    mix(b.radius);
    mix(b.center);
    mix(b.graph.n());
    mix(b.graph.m());
    for (const NodeId id : b.graph.raw_ids()) mix(id);
    for (const int p : b.to_parent) mix(p);
    for (const int d : b.dist) mix(d);
    for (const int u : b.graph.raw_edge_u()) mix(u);
    for (const int u : b.graph.raw_edge_v()) mix(u);
  }
  return h;
}

TEST(GatherDigest, TorusWithRandomIdsIsPinned) {
  // Recorded with the full-knowledge text flooding that delta flooding
  // replaced: the gathered balls are byte-identical.
  const Graph g = make_torus(16, 16, IdMode::kRandomDense, 11);
  EXPECT_EQ(gather_digest(gather_balls_by_messages(g, 3)), 0xf5e25fd9d38472b5ULL);
  EXPECT_EQ(gather_digest(gather_balls_by_messages(g, 2)), 0x9625a10209e60c89ULL);
}

TEST(DeltaFlooding, SendsOnlyWhatIsNew) {
  // K5 at radius 3. Round 1: the radius-1 view (5 IDs, 4 edges) = 8 + 40 +
  // 64 bytes. Round 2: the 6 edges not incident to the sender = 8 + 96
  // bytes. Round 3: nothing is new, an 8-byte empty delta. 20 ports each.
  const Graph g = make_complete(5, IdMode::kRandomDense, 3);
  FloodingGather alg(3);
  Engine eng(g);
  const auto run = eng.run(alg, alg.max_rounds());
  ASSERT_TRUE(run.all_halted);
  EXPECT_EQ(run.rounds, 4);
  EXPECT_EQ(run.messages, 3 * 20);
  EXPECT_EQ(run.bytes, 20 * (112 + 104 + 8));
  for (int v = 0; v < g.n(); ++v) {
    EXPECT_EQ(run.outputs[static_cast<std::size_t>(v)], "");
    EXPECT_EQ(alg.known_nodes(v).size(), 5U);
    EXPECT_EQ(alg.known_edges(v).size(), 10U);
  }
}

// Mangles the message node 0 sends to node `to` in round 2, a non-empty
// delta.
class MangleOnce : public EngineFaultModel {
 public:
  enum class How { kTruncate, kPad, kEmpty, kUnsorted, kSelfLoop };
  MangleOnce(How how, int to) : how_(how), to_(to) {}

  bool corrupt_message(int round, int from, int to, std::string& payload) const override {
    if (round != 2 || from != 0 || to != to_) return false;
    switch (how_) {
      case How::kTruncate:
        payload.pop_back();
        break;
      case How::kPad:
        payload.push_back('\0');
        break;
      case How::kEmpty:
        payload.clear();
        break;
      case How::kUnsorted:  // same length, the first two IDs swapped
        std::swap_ranges(payload.begin() + 8, payload.begin() + 16, payload.begin() + 16);
        break;
      case How::kSelfLoop:  // same length, the last edge's lo set to its hi
        std::copy(payload.end() - 8, payload.end(), payload.end() - 16);
        break;
    }
    return true;
  }

 private:
  How how_;
  int to_;
};

TEST(DeltaFlooding, MalformedPayloadsThrowTyped) {
  const Graph g = make_torus(5, 5, IdMode::kRandomDense, 2);
  for (const auto how : {MangleOnce::How::kTruncate, MangleOnce::How::kPad,
                         MangleOnce::How::kEmpty, MangleOnce::How::kUnsorted,
                         MangleOnce::How::kSelfLoop}) {
    const MangleOnce faults(how, g.neighbors(0)[0]);
    FloodingGather alg(3);
    Engine eng(g);
    eng.set_fault_model(&faults);
    EXPECT_THROW(eng.run(alg, alg.max_rounds()), ContractViolation)
        << "case " << static_cast<int>(how);
  }
}

TEST(DistributedBfs, MatchesCentralizedDistances) {
  const Graph g = make_grid(7, 5, IdMode::kRandomDense, 8);
  const auto res = bfs_by_messages(g, 3);
  const auto expect = bfs_distances(g, 3);
  EXPECT_EQ(res.dist, expect);
}

TEST(DistributedBfs, ParentsFormBfsTree) {
  const Graph g = make_cycle(15);
  const auto res = bfs_by_messages(g, 0);
  for (int v = 0; v < g.n(); ++v) {
    if (v == 0) {
      EXPECT_EQ(res.parent[v], -1);
      continue;
    }
    ASSERT_GE(res.parent[v], 0);
    EXPECT_EQ(res.dist[res.parent[v]], res.dist[v] - 1);
    EXPECT_TRUE(g.adjacent(v, res.parent[v]));
  }
}

TEST(DistributedBfs, RoundsTrackEccentricity) {
  const Graph g = make_path(30);
  const auto res = bfs_by_messages(g, 0);
  EXPECT_GE(res.rounds, 29);
  EXPECT_LE(res.rounds, 33);
}

}  // namespace
}  // namespace lad
