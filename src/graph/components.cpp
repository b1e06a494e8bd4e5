#include "graph/components.hpp"

#include <deque>

namespace lad {

Components connected_components(const Graph& g, const NodeMask& mask) {
  Components out;
  out.comp_of.assign(static_cast<std::size_t>(g.n()), -1);
  for (int s = 0; s < g.n(); ++s) {
    if (!mask.empty() && !mask[s]) continue;
    if (out.comp_of[s] != -1) continue;
    const int c = out.count();
    out.members.emplace_back();
    std::deque<int> q = {s};
    out.comp_of[s] = c;
    while (!q.empty()) {
      const int v = q.front();
      q.pop_front();
      out.members[c].push_back(v);
      for (const int u : g.neighbors(v)) {
        if (!mask.empty() && !mask[u]) continue;
        if (out.comp_of[u] == -1) {
          out.comp_of[u] = c;
          q.push_back(u);
        }
      }
    }
  }
  return out;
}

}  // namespace lad
