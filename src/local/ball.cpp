#include "local/ball.hpp"

namespace lad {

Ball extract_ball(const Graph& g, int center, int radius, const NodeMask& mask) {
  BoundedBfs search(g);
  return extract_ball(search, center, radius, mask);
}

Ball extract_ball(BoundedBfs& search, int center, int radius, const NodeMask& mask) {
  const Graph& g = search.graph();
  LAD_CHECK(radius >= 0);
  LAD_CHECK(center >= 0 && center < g.n());
  Ball b;
  b.radius = radius;
  search.run(center, mask, radius);
  // In ball_nodes order, a node's ball index is its slot in the search.
  const auto& nodes = search.sort_layers();

  Graph::Builder builder;
  for (const int v : nodes) {
    builder.add_node(g.id(v));
    b.to_parent.push_back(v);
    b.dist.push_back(search.dist(v));
  }
  for (const int v : nodes) {
    for (const int u : g.neighbors(v)) {
      if (search.reached(u) && v < u) builder.add_edge(search.slot(v), search.slot(u));
    }
  }
  b.graph = std::move(builder).build();
  b.center = search.slot(center);
  return b;
}

}  // namespace lad
