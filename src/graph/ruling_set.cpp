#include "graph/ruling_set.hpp"

#include <algorithm>

namespace lad {

std::vector<int> ruling_set(const Graph& g, int alpha, std::span<const int> candidates,
                            const NodeMask& mask) {
  LAD_CHECK(alpha >= 1);
  std::vector<int> order(candidates.begin(), candidates.end());
  std::sort(order.begin(), order.end(), [&](int a, int b) { return g.id(a) < g.id(b); });

  std::vector<int> chosen;
  // blocked[v] == 1 when v is within distance < alpha of a chosen node.
  std::vector<char> blocked(static_cast<std::size_t>(g.n()), 0);
  BoundedBfs search(g);
  for (const int v : order) {
    LAD_CHECK_MSG(mask.empty() || mask[v], "ruling-set candidate outside mask");
    if (blocked[v]) continue;
    chosen.push_back(v);
    for (const int u : search.run(v, mask, alpha - 1)) blocked[u] = 1;
  }
  return chosen;
}

bool is_ruling_set(const Graph& g, const std::vector<int>& s, int alpha, int beta,
                   std::span<const int> candidates, const NodeMask& mask) {
  BoundedBfs search(g);
  for (std::size_t i = 0; i < s.size(); ++i) {
    search.run(s[i], mask, alpha - 1);
    for (std::size_t j = 0; j < s.size(); ++j) {
      if (i != j && search.reached(s[j])) return false;
    }
  }
  if (s.empty()) return candidates.empty();
  search.run(s, mask, beta);
  for (const int v : candidates) {
    if (!search.reached(v)) return false;
  }
  return true;
}

}  // namespace lad
