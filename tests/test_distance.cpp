#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "util/hashing.hpp"

namespace lad {
namespace {

TEST(Distance, PathDistances) {
  const Graph g = make_path(10);
  const auto d = bfs_distances(g, 0);
  for (int v = 0; v < 10; ++v) EXPECT_EQ(d[v], v);
}

TEST(Distance, CycleDistances) {
  const Graph g = make_cycle(10);
  const auto d = bfs_distances(g, 0);
  int max_d = 0;
  for (const int x : d) max_d = std::max(max_d, x);
  EXPECT_EQ(max_d, 5);
}

TEST(Distance, MaxDistCap) {
  const Graph g = make_path(10);
  const auto d = bfs_distances(g, 0, {}, 3);
  EXPECT_EQ(d[3], 3);
  EXPECT_EQ(d[4], kUnreachable);
}

TEST(Distance, MaskRestriction) {
  const Graph g = make_cycle(10);
  NodeMask mask(10, 1);
  mask[5] = 0;  // cut the cycle at node 5
  const auto d = bfs_distances(g, 0, mask);
  EXPECT_EQ(d[5], kUnreachable);
  // Node 6 must be reached the long way around (0-9-8-7-6).
  EXPECT_EQ(d[6], 4);
}

TEST(Distance, MultiSource) {
  const Graph g = make_path(11);
  const auto d = bfs_distances_multi(g, {0, 10});
  EXPECT_EQ(d[5], 5);
  EXPECT_EQ(d[8], 2);
}

TEST(Distance, BallNodes) {
  const Graph g = make_grid(5, 5);
  const auto ball = ball_nodes(g, g.find_index(13).value(), 1);
  EXPECT_EQ(ball.size(), 5u);  // center + 4 neighbors
  EXPECT_EQ(ball_size(g, g.find_index(13).value(), 0), 1);
}

TEST(Distance, ShortestPathEndpoints) {
  const Graph g = make_grid(6, 6);
  const auto p = shortest_path(g, 0, g.n() - 1);
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.front(), 0);
  EXPECT_EQ(p.back(), g.n() - 1);
  EXPECT_EQ(static_cast<int>(p.size()) - 1, distance(g, 0, g.n() - 1));
  for (std::size_t i = 0; i + 1 < p.size(); ++i) EXPECT_TRUE(g.adjacent(p[i], p[i + 1]));
}

TEST(Distance, ShortestPathDisconnected) {
  const Graph g = disjoint_union({make_path(3), make_path(3)});
  EXPECT_TRUE(shortest_path(g, 0, 5).empty());
  EXPECT_EQ(distance(g, 0, 5), kUnreachable);
}

TEST(Distance, Eccentricity) {
  const Graph g = make_path(9);
  EXPECT_EQ(eccentricity(g, 0), 8);
  EXPECT_EQ(eccentricity(g, 4), 4);
}

TEST(Distance, ComponentDiameter) {
  EXPECT_EQ(component_diameter(make_path(7), 3), 6);
  EXPECT_EQ(component_diameter(make_cycle(8), 0), 4);
}

TEST(Distance, BallInBfsOrder) {
  const Graph g = make_path(9);
  const auto ball = ball_nodes(g, 4, 2);
  const auto d = bfs_distances(g, 4);
  for (std::size_t i = 0; i + 1 < ball.size(); ++i) {
    EXPECT_LE(d[ball[i]], d[ball[i + 1]]);
  }
}

TEST(Distance, TriangleInequalitySampled) {
  const Graph g = make_banded_random(200, 6, 3.0, 6, 44);
  const int probes[] = {0, 17, 63, 120, 199};
  for (const int a : probes) {
    const auto da = bfs_distances(g, a);
    for (const int b : probes) {
      const auto db = bfs_distances(g, b);
      for (const int c : probes) {
        if (da[b] == kUnreachable || db[c] == kUnreachable) continue;
        ASSERT_NE(da[c], kUnreachable);
        EXPECT_LE(da[c], da[b] + db[c]);
      }
    }
  }
}

TEST(Distance, BallMonotoneInRadius) {
  const Graph g = make_grid(9, 9);
  const int v = g.n() / 2;
  int prev = 0;
  for (int r = 0; r <= 8; ++r) {
    const int size = ball_size(g, v, r);
    EXPECT_GE(size, prev);
    prev = size;
  }
  EXPECT_EQ(prev, g.n());  // radius 8 >= eccentricity of the center
}

// Naive reference: relax d[u] = min(d[u], d[w] + 1) over masked edges until
// nothing changes, then drop nodes beyond the cap. Shares no code with the
// queue-based searches it checks.
std::vector<int> reference_distances(const Graph& g, const std::vector<int>& sources,
                                     const NodeMask& mask, int max_dist) {
  const auto in = [&](int v) { return mask.empty() || mask[v]; };
  std::vector<int> d(static_cast<std::size_t>(g.n()), kUnreachable);
  for (const int s : sources) d[s] = 0;
  for (bool changed = true; changed;) {
    changed = false;
    for (int u = 0; u < g.n(); ++u) {
      if (!in(u)) continue;
      for (const int w : g.neighbors(u)) {
        if (!in(w) || d[w] == kUnreachable) continue;
        if (d[u] == kUnreachable || d[w] + 1 < d[u]) {
          d[u] = d[w] + 1;
          changed = true;
        }
      }
    }
  }
  if (max_dist >= 0) {
    for (int& x : d) x = x > max_dist ? kUnreachable : x;
  }
  return d;
}

// Random instances: a bounded-degree random graph plus a few disjoint
// extra pieces, with a random mask (or none) and random sources.
struct Probe {
  Graph g;
  NodeMask mask;
};

Probe make_probe(std::uint64_t seed) {
  Probe p;
  p.g = disjoint_union({make_random_bounded_degree(60 + static_cast<int>(seed % 50), 2.6, 5, seed),
                        make_cycle(7), make_path(4)},
                       IdMode::kRandomDense, seed);
  if (seed % 3 != 0) {
    p.mask.assign(static_cast<std::size_t>(p.g.n()), 0);
    for (int v = 0; v < p.g.n(); ++v) p.mask[v] = unit_from_hash(hash2(seed, v)) < 0.8 ? 1 : 0;
  }
  return p;
}

int pick_node(const Probe& p, std::uint64_t h) {
  for (int i = 0;; ++i) {
    const int v = static_cast<int>(hash2(h, i) % static_cast<std::uint64_t>(p.g.n()));
    if (p.mask.empty() || p.mask[v]) return v;
  }
}

TEST(BoundedBfs, MatchesReferenceAndNeverLeaksStaleDistances) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Probe p = make_probe(seed);
    const Graph& g = p.g;
    BoundedBfs search(g);  // one object across every run below
    for (int trial = 0; trial < 12; ++trial) {
      const std::uint64_t h = hash3(seed, trial, 0xb5);
      std::vector<int> sources = {pick_node(p, h)};
      if (trial % 4 == 3) {  // multi-source, with a duplicate
        sources.push_back(pick_node(p, h + 1));
        sources.push_back(sources.front());
      }
      const int radii[] = {0, 1, 3, -1, g.n()};
      const int max_dist = radii[trial % 5];
      const auto ref = reference_distances(g, sources, p.mask, max_dist);
      const auto& order = search.run(sources, p.mask, max_dist);
      for (int v = 0; v < g.n(); ++v) {
        ASSERT_EQ(search.dist(v), ref[v]) << "seed " << seed << " trial " << trial << " v " << v;
        ASSERT_EQ(search.reached(v), ref[v] != kUnreachable);
      }
      // BFS order: nondecreasing layers, slots consistent with the order.
      for (std::size_t i = 0; i < order.size(); ++i) {
        ASSERT_EQ(search.slot(order[i]), static_cast<int>(i));
        if (i > 0) {
          ASSERT_LE(search.dist(order[i - 1]), search.dist(order[i]));
        }
      }
      ASSERT_EQ(bfs_distances_multi(g, sources, p.mask, max_dist), ref);

      // Early stop at a target: its distance is exact, every node of a
      // closer layer is reached, and nothing beyond its layer is.
      const int target = pick_node(p, h + 2);
      const auto full = reference_distances(g, sources, p.mask, -1);
      search.run(sources, p.mask, -1, target);
      ASSERT_EQ(search.dist(target), full[target]);
      for (int v = 0; v < g.n(); ++v) {
        if (search.reached(v)) {
          ASSERT_EQ(search.dist(v), full[v]);
        }
        if (full[target] != kUnreachable && full[v] != kUnreachable && full[v] < full[target]) {
          ASSERT_TRUE(search.reached(v));
        }
        if (full[target] != kUnreachable && full[v] > full[target]) {
          ASSERT_FALSE(search.reached(v));
        }
      }
    }
  }
}

TEST(BoundedBfs, BallOrderIsLayerThenIndex) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Probe p = make_probe(seed);
    BoundedBfs search(p.g);
    for (const int radius : {0, 1, 2, 5, p.g.n()}) {
      const int v = pick_node(p, hash2(seed, radius));
      const auto ref = reference_distances(p.g, {v}, p.mask, radius);
      std::vector<std::tuple<int, int>> expected_pairs;
      for (int u = 0; u < p.g.n(); ++u) {
        if (ref[u] != kUnreachable) expected_pairs.emplace_back(ref[u], u);
      }
      std::sort(expected_pairs.begin(), expected_pairs.end());
      std::vector<int> expected;
      for (const auto& [d, u] : expected_pairs) expected.push_back(u);
      ASSERT_EQ(ball_nodes(p.g, v, radius, p.mask), expected);
      ASSERT_EQ(ball_size(p.g, v, radius, p.mask), static_cast<int>(expected.size()));
      search.run(v, p.mask, radius);
      ASSERT_EQ(search.sort_layers(), expected);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(search.slot(expected[i]), static_cast<int>(i));
        ASSERT_EQ(search.dist(expected[i]), ref[expected[i]]);
      }
    }
  }
}

TEST(BoundedBfs, DistanceEccentricityAndDiameterMatchReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Probe p = make_probe(seed);
    const Graph& g = p.g;
    const int u = pick_node(p, hash2(seed, 1));
    const int w = pick_node(p, hash2(seed, 2));
    const auto ref = reference_distances(g, {u}, p.mask, -1);
    EXPECT_EQ(distance(g, u, w, p.mask), ref[w]);
    const auto path = shortest_path(g, u, w, p.mask);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, ref[w] == kUnreachable ? -1 : ref[w]);
    EXPECT_EQ(eccentricity(g, u, p.mask), *std::max_element(ref.begin(), ref.end()));

    // Diameter by the reference: the largest eccentricity in u's component.
    int diam = 0;
    for (int x = 0; x < g.n(); ++x) {
      if (ref[x] == kUnreachable) continue;
      const auto rx = reference_distances(g, {x}, p.mask, -1);
      diam = std::max(diam, *std::max_element(rx.begin(), rx.end()));
    }
    EXPECT_EQ(component_diameter(g, u, p.mask), diam);
    BoundedBfs search(g);
    for (int bound = 0; bound <= diam + 2; ++bound) {
      EXPECT_EQ(search.diameter_exceeds(u, bound, p.mask), diam > bound)
          << "seed " << seed << " bound " << bound;
    }
  }
}

}  // namespace
}  // namespace lad
