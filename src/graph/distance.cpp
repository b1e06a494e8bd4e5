#include "graph/distance.hpp"

#include <algorithm>
#include <deque>

namespace lad {
namespace {

inline bool in_mask(const NodeMask& mask, int v) { return mask.empty() || mask[v]; }

}  // namespace

BoundedBfs::BoundedBfs(const Graph& g)
    : g_(&g), slot_(static_cast<std::size_t>(g.n()), -1) {}

const std::vector<int>& BoundedBfs::run(std::span<const int> sources, const NodeMask& mask,
                                        int max_dist, int stop_at) {
  for (const int v : visited_) slot_[static_cast<std::size_t>(v)] = -1;
  visited_.clear();
  layer_.clear();
  const auto visit = [&](int v, int d) {
    slot_[static_cast<std::size_t>(v)] = static_cast<int>(visited_.size());
    visited_.push_back(v);
    layer_.push_back(d);
    return v == stop_at;
  };
  for (const int s : sources) {
    LAD_CHECK(s >= 0 && s < g_->n());
    LAD_CHECK_MSG(in_mask(mask, s), "BFS source excluded by mask");
    if (!reached(s) && visit(s, 0)) return visited_;
  }
  for (std::size_t head = 0; head < visited_.size(); ++head) {
    const int d = layer_[head];
    if (max_dist >= 0 && d >= max_dist) break;  // layers are nondecreasing
    for (const int u : g_->neighbors(visited_[head])) {
      if (!in_mask(mask, u) || reached(u)) continue;
      if (visit(u, d + 1)) return visited_;
    }
  }
  return visited_;
}

const std::vector<int>& BoundedBfs::sort_layers() {
  for (std::size_t begin = 0; begin < visited_.size();) {
    std::size_t end = begin + 1;
    while (end < visited_.size() && layer_[end] == layer_[begin]) ++end;
    std::sort(visited_.begin() + static_cast<std::ptrdiff_t>(begin),
              visited_.begin() + static_cast<std::ptrdiff_t>(end));
    begin = end;
  }
  for (std::size_t i = 0; i < visited_.size(); ++i) {
    slot_[static_cast<std::size_t>(visited_[i])] = static_cast<int>(i);
  }
  return visited_;
}

bool BoundedBfs::diameter_exceeds(int v, int bound, const NodeMask& mask) {
  const std::vector<int> comp = run(v, mask);
  if (depth() > bound) return true;        // diam >= ecc(v)
  if (2 * depth() <= bound) return false;  // diam <= 2 ecc(v)
  for (const int u : comp) {
    // Capped at bound + 1, the search reaches that depth iff ecc(u) > bound.
    run(u, mask, bound + 1);
    if (depth() > bound) return true;
  }
  return false;
}

std::vector<int> bfs_distances(const Graph& g, int source, const NodeMask& mask, int max_dist) {
  return bfs_distances_multi(g, {source}, mask, max_dist);
}

std::vector<int> bfs_distances_multi(const Graph& g, const std::vector<int>& sources,
                                     const NodeMask& mask, int max_dist) {
  std::vector<int> dist(static_cast<std::size_t>(g.n()), kUnreachable);
  std::deque<int> q;
  for (const int s : sources) {
    LAD_CHECK(s >= 0 && s < g.n());
    LAD_CHECK_MSG(in_mask(mask, s), "BFS source excluded by mask");
    if (dist[s] != 0) {
      dist[s] = 0;
      q.push_back(s);
    }
  }
  while (!q.empty()) {
    const int v = q.front();
    q.pop_front();
    if (max_dist >= 0 && dist[v] >= max_dist) continue;
    for (const int u : g.neighbors(v)) {
      if (!in_mask(mask, u) || dist[u] != kUnreachable) continue;
      dist[u] = dist[v] + 1;
      q.push_back(u);
    }
  }
  return dist;
}

std::vector<int> ball_nodes(const Graph& g, int v, int radius, const NodeMask& mask) {
  LAD_CHECK(radius >= 0);
  BoundedBfs search(g);
  search.run(v, mask, radius);
  return search.sort_layers();
}

int ball_size(const Graph& g, int v, int radius, const NodeMask& mask) {
  LAD_CHECK(radius >= 0);
  BoundedBfs search(g);
  return static_cast<int>(search.run(v, mask, radius).size());
}

int distance(const Graph& g, int u, int v, const NodeMask& mask) {
  BoundedBfs search(g);
  search.run(u, mask, -1, v);
  return search.dist(v);
}

std::vector<int> shortest_path(const Graph& g, int u, int v, const NodeMask& mask) {
  // Stopping at v leaves only v's own layer partial; the walk back reads
  // the complete layers below it, so the path is the one a full BFS gives.
  BoundedBfs search(g);
  search.run(u, mask, -1, v);
  if (!search.reached(v)) return {};
  std::vector<int> path = {v};
  int cur = v;
  while (cur != u) {
    for (const int w : g.neighbors(cur)) {
      if (in_mask(mask, w) && search.dist(w) == search.dist(cur) - 1) {
        cur = w;
        break;
      }
    }
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int eccentricity(const Graph& g, int v, const NodeMask& mask) {
  BoundedBfs search(g);
  search.run(v, mask);
  return search.depth();
}

int component_diameter(const Graph& g, int v, const NodeMask& mask) {
  BoundedBfs search(g);
  const std::vector<int> comp = search.run(v, mask);
  int diam = 0;
  for (const int u : comp) {
    search.run(u, mask);
    diam = std::max(diam, search.depth());
  }
  return diam;
}

}  // namespace lad
