#include "graph/distance_coloring.hpp"

#include <algorithm>
#include <set>

namespace lad {

std::vector<int> distance_coloring(const Graph& g, int d, const NodeMask& mask) {
  LAD_CHECK(d >= 1);
  std::vector<int> colors(static_cast<std::size_t>(g.n()), 0);
  std::vector<int> order;
  for (int v = 0; v < g.n(); ++v) {
    if (mask.empty() || mask[v]) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) { return g.id(a) < g.id(b); });

  BoundedBfs search(g);
  for (const int v : order) {
    std::set<int> used;
    for (const int u : search.run(v, mask, d)) {
      if (u != v && colors[u] > 0) used.insert(colors[u]);
    }
    int c = 1;
    while (used.count(c)) ++c;
    colors[v] = c;
  }
  return colors;
}

bool is_distance_coloring(const Graph& g, const std::vector<int>& colors, int d,
                          const NodeMask& mask) {
  BoundedBfs search(g);
  for (int v = 0; v < g.n(); ++v) {
    if (!mask.empty() && !mask[v]) continue;
    if (colors[v] <= 0) return false;
    for (const int u : search.run(v, mask, d)) {
      if (u != v && colors[u] == colors[v]) return false;
    }
  }
  return true;
}

int num_colors(const std::vector<int>& colors) {
  int mx = 0;
  for (const int c : colors) mx = std::max(mx, c);
  return mx;
}

}  // namespace lad
