#include "checks.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace perfbench {

using lad::EdgeDir;
using lad::Graph;

namespace {

// Out- and in-degree of every node from one pass over the edge list; an
// unoriented edge marks both endpoints.
struct DegreeScan {
  std::vector<int> out, in;
  std::vector<char> unset;
};

DegreeScan degree_scan(const Graph& g, const lad::Orientation& o) {
  DegreeScan d;
  d.out.assign(static_cast<std::size_t>(g.n()), 0);
  d.in.assign(static_cast<std::size_t>(g.n()), 0);
  d.unset.assign(static_cast<std::size_t>(g.n()), 0);
  for (int e = 0; e < g.m(); ++e) {
    const auto u = static_cast<std::size_t>(g.edge_u(e));
    const auto v = static_cast<std::size_t>(g.edge_v(e));
    switch (o[static_cast<std::size_t>(e)]) {
      case EdgeDir::kForward:
        ++d.out[u];
        ++d.in[v];
        break;
      case EdgeDir::kBackward:
        ++d.out[v];
        ++d.in[u];
        break;
      case EdgeDir::kUnset:
        d.unset[u] = d.unset[v] = 1;
        break;
    }
  }
  return d;
}

// A ball as comparable sets: (parent index, distance) per node and
// (min, max) parent-index pairs per edge.
std::pair<std::vector<std::pair<int, int>>, std::vector<std::pair<int, int>>> ball_key(
    const lad::Ball& b) {
  std::vector<std::pair<int, int>> nodes;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < b.graph.n(); ++i) {
    nodes.emplace_back(b.to_parent[static_cast<std::size_t>(i)], b.dist[static_cast<std::size_t>(i)]);
  }
  for (int e = 0; e < b.graph.m(); ++e) {
    const int a = b.to_parent[static_cast<std::size_t>(b.graph.edge_u(e))];
    const int c = b.to_parent[static_cast<std::size_t>(b.graph.edge_v(e))];
    edges.emplace_back(std::min(a, c), std::max(a, c));
  }
  std::sort(nodes.begin(), nodes.end());
  std::sort(edges.begin(), edges.end());
  return {nodes, edges};
}

}  // namespace

bool cycle_orientation_ok(const Graph& g, const lad::Orientation& o) {
  if (static_cast<int>(o.size()) != g.m()) return false;
  const DegreeScan d = degree_scan(g, o);
  for (std::size_t v = 0; v < d.out.size(); ++v) {
    if (d.unset[v] != 0 || d.out[v] != 1 || d.in[v] != 1) return false;
  }
  return true;
}

bool clean_echo_ok(const Graph& g, const std::vector<std::string>& digests,
                   const lad::faults::EchoResult& echo, int rounds) {
  if (static_cast<int>(digests.size()) != g.n()) return false;
  long long bytes_per_round = 0;
  for (int v = 0; v < g.n(); ++v) {
    bytes_per_round +=
        static_cast<long long>(g.degree(v)) * static_cast<long long>(digests[static_cast<std::size_t>(v)].size());
  }
  return echo.unverified_nodes.empty() && echo.dropped == 0 && echo.corrupted == 0 &&
         echo.crashed == 0 && echo.messages == 2LL * rounds * g.m() &&
         echo.bytes == rounds * bytes_per_round;
}

bool ball_ok(const Graph& g, const lad::Ball& gathered, int v, int radius, int expected_nodes) {
  const auto n = static_cast<std::size_t>(gathered.graph.n());
  if (gathered.graph.n() != expected_nodes || gathered.to_parent.size() != n ||
      gathered.dist.size() != n || gathered.center < 0 || gathered.center >= gathered.graph.n() ||
      gathered.to_parent[static_cast<std::size_t>(gathered.center)] != v) {
    return false;
  }
  for (int i = 0; i < gathered.graph.n(); ++i) {
    const int p = gathered.to_parent[static_cast<std::size_t>(i)];
    if (p < 0 || p >= g.n() || gathered.graph.id(i) != g.id(p)) return false;
  }
  const lad::Ball ref = lad::extract_ball(g, v, radius);
  return ball_key(gathered) == ball_key(ref);
}

bool views_ok(const lad::CanonicalViews& views, int n) {
  if (static_cast<int>(views.view_class.size()) != n) return false;
  for (const int c : views.view_class) {
    if (c < 0 || c >= views.distinct()) return false;
  }
  return static_cast<long long>(views.distinct()) + views.memo_hits == n;
}

bool proper_coloring_ok(const Graph& g, const std::vector<int>& colors, int max_colors) {
  if (static_cast<int>(colors.size()) != g.n()) return false;
  for (const int c : colors) {
    if (c < 1 || c > max_colors) return false;
  }
  for (int e = 0; e < g.m(); ++e) {
    if (colors[static_cast<std::size_t>(g.edge_u(e))] == colors[static_cast<std::size_t>(g.edge_v(e))]) {
      return false;
    }
  }
  return true;
}

int max_degree_scan(const Graph& g) {
  std::vector<int> deg(static_cast<std::size_t>(g.n()), 0);
  for (int e = 0; e < g.m(); ++e) {
    ++deg[static_cast<std::size_t>(g.edge_u(e))];
    ++deg[static_cast<std::size_t>(g.edge_v(e))];
  }
  return deg.empty() ? 0 : *std::max_element(deg.begin(), deg.end());
}

bool splitting_ok(const Graph& g, const std::vector<int>& edge_color) {
  if (static_cast<int>(edge_color.size()) != g.m()) return false;
  std::vector<int> red(static_cast<std::size_t>(g.n()), 0);
  std::vector<int> blue(static_cast<std::size_t>(g.n()), 0);
  for (int e = 0; e < g.m(); ++e) {
    const int c = edge_color[static_cast<std::size_t>(e)];
    if (c != 1 && c != 2) return false;
    auto& side = c == 1 ? red : blue;
    ++side[static_cast<std::size_t>(g.edge_u(e))];
    ++side[static_cast<std::size_t>(g.edge_v(e))];
  }
  for (int v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (std::abs(red[i] - blue[i]) > (red[i] + blue[i]) % 2) return false;
  }
  return true;
}

bool membership_ok(const std::vector<char>& recovered, const std::vector<char>& truth) {
  if (recovered.size() != truth.size()) return false;
  for (std::size_t e = 0; e < truth.size(); ++e) {
    if ((recovered[e] != 0) != (truth[e] != 0)) return false;
  }
  return true;
}

bool advice_within_claims(const lad::PipelineAdvice& adv, int n, const lad::PipelineClaims& c) {
  if (n <= 0) return false;
  double bits_per_node = 0;
  double ones_ratio = 0;
  if (adv.carrier == lad::AdviceCarrier::kUniformBits) {
    if (static_cast<int>(adv.bits.size()) != n) return false;
    bits_per_node = 1.0;
    ones_ratio = static_cast<double>(std::count_if(adv.bits.begin(), adv.bits.end(),
                                                   [](char b) { return b != 0; })) /
                 n;
  } else {
    bits_per_node = static_cast<double>(adv.stats(n).total_bits) / n;
  }
  if (c.max_bits_per_node > 0 && bits_per_node > c.max_bits_per_node) return false;
  if (c.max_ones_ratio > 0 && adv.carrier == lad::AdviceCarrier::kUniformBits &&
      ones_ratio > c.max_ones_ratio) {
    return false;
  }
  return true;
}

bool faulted_orientation_ok(const Graph& g, const lad::faults::GuardedOutcome& out) {
  const auto& rep = out.report;
  if (static_cast<int>(rep.node_status.size()) != g.n() || !rep.degradation.accounted(g.n())) {
    return false;
  }
  std::vector<char> flagged(static_cast<std::size_t>(g.n()), 0);
  for (const int v : rep.flagged_nodes) {
    if (v < 0 || v >= g.n()) return false;
    flagged[static_cast<std::size_t>(v)] = 1;
  }
  // A node is unbalanced when an incident edge is unoriented or its in- and
  // out-degree differ by more than one.
  const lad::Orientation& o = out.output.orientation;
  if (static_cast<int>(o.size()) != g.m()) return false;
  const DegreeScan d = degree_scan(g, o);
  bool violation = false;
  for (std::size_t v = 0; v < d.out.size(); ++v) {
    if ((d.unset[v] != 0 || std::abs(d.out[v] - d.in[v]) > 1) && flagged[v] == 0) violation = true;
  }
  if (!violation) return true;
  // A violation is acceptable only when it was detected and the output is
  // not claimed valid.
  return rep.degraded() && !rep.output_valid;
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest_strings(const std::vector<std::string>& v, std::uint64_t h) {
  for (const auto& s : v) h = digest_range(s, h);
  return h;
}

}  // namespace perfbench
