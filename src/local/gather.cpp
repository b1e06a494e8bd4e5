#include "local/gather.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <numeric>
#include <unordered_map>

#include "graph/canonical.hpp"
#include "graph/distance.hpp"
#include "obs/telemetry.hpp"
#include "util/search.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

// Wire format (local/gather.hpp): u32 node count, u32 edge count, then the
// i64 node IDs and the i64 (lo, hi) edge pairs, every word little-endian.
constexpr std::size_t kHeaderBytes = 8;
constexpr std::size_t kIdBytes = 8;
constexpr std::size_t kEdgeBytes = 16;

template <class U>
void store_le(char* out, U w) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &w, sizeof w);
  } else {
    for (std::size_t b = 0; b < sizeof w; ++b) out[b] = static_cast<char>(w >> (8 * b));
  }
}

template <class U>
U load_le(const char* in) {
  U w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, in, sizeof w);
  } else {
    for (std::size_t b = 0; b < sizeof w; ++b) {
      w |= static_cast<U>(static_cast<unsigned char>(in[b])) << (8 * b);
    }
  }
  return w;
}

std::string encode(const std::vector<NodeId>& nodes, const std::vector<IdEdge>& edges) {
  // A graph has fewer than 2^31 nodes and edges, so the counts fit.
  LAD_ASSERT(nodes.size() <= UINT32_MAX && edges.size() <= UINT32_MAX);
  std::string s(kHeaderBytes + kIdBytes * nodes.size() + kEdgeBytes * edges.size(), '\0');
  char* p = s.data();
  store_le(p, static_cast<std::uint32_t>(nodes.size()));
  store_le(p + 4, static_cast<std::uint32_t>(edges.size()));
  p += kHeaderBytes;
  for (const NodeId id : nodes) {
    store_le(p, static_cast<std::uint64_t>(id));
    p += kIdBytes;
  }
  for (const IdEdge& e : edges) {
    store_le(p, static_cast<std::uint64_t>(e.lo));
    store_le(p + kIdBytes, static_cast<std::uint64_t>(e.hi));
    p += kEdgeBytes;
  }
  // Ball-gather allocation accounting (obs/profile.*): one payload buffer
  // per flooding broadcast. The multiset of increments is a pure function
  // of the gather, so the totals stay byte-deterministic at any thread
  // count (the profile's gather allocation column).
  LAD_TM({
    obs::core().alloc_gather.add(1);
    obs::core().alloc_gather_bytes.add(static_cast<long long>(s.size()));
  });
  return s;
}

[[noreturn]] void bad_payload(const std::string& why) {
  throw ContractViolation("malformed gather payload: " + why);
}

// Appends the payload's two runs to `nodes` and `edges`, recording where
// each run starts. Throws ContractViolation, before reading past the
// header, unless the length is the one the header implies; and unless both
// runs are strictly ascending, with positive IDs and lo < hi.
void decode_append(std::string_view s, std::vector<NodeId>& nodes,
                   std::vector<std::size_t>& node_runs, std::vector<IdEdge>& edges,
                   std::vector<std::size_t>& edge_runs) {
  if (s.size() < kHeaderBytes) {
    bad_payload(std::to_string(s.size()) + " bytes is shorter than the header");
  }
  const std::uint64_t nn = load_le<std::uint32_t>(s.data());
  const std::uint64_t ne = load_le<std::uint32_t>(s.data() + 4);
  const std::uint64_t want = kHeaderBytes + kIdBytes * nn + kEdgeBytes * ne;
  if (s.size() != want) {
    bad_payload(std::to_string(s.size()) + " bytes, but its header (" + std::to_string(nn) +
                " nodes, " + std::to_string(ne) + " edges) implies " + std::to_string(want));
  }
  const char* p = s.data() + kHeaderBytes;
  bool ascending = true;
  node_runs.push_back(nodes.size());
  NodeId prev = 0;
  for (std::uint64_t i = 0; i < nn; ++i, p += kIdBytes) {
    const auto id = static_cast<NodeId>(load_le<std::uint64_t>(p));
    ascending = ascending && prev < id;
    prev = id;
    nodes.push_back(id);
  }
  edge_runs.push_back(edges.size());
  IdEdge last{0, 0};
  for (std::uint64_t i = 0; i < ne; ++i, p += kEdgeBytes) {
    const IdEdge e{static_cast<NodeId>(load_le<std::uint64_t>(p)),
                   static_cast<NodeId>(load_le<std::uint64_t>(p + kIdBytes))};
    ascending = ascending && last < e && 0 < e.lo && e.lo < e.hi;
    last = e;
    edges.push_back(e);
  }
  if (!ascending) bad_payload("its runs are not strictly ascending");
}

// Sorted union of the ascending runs items[runs[k], runs[k + 1]) (the
// last run ends at items.end()), merged pairwise level by level: O(total
// log runs) with no sort. Leaves the union in `items`.
template <class T>
void union_runs(std::vector<T>& items, std::vector<std::size_t>& runs, std::vector<T>& buf) {
  runs.push_back(items.size());
  while (runs.size() > 2) {
    buf.clear();
    std::size_t w = 0;
    for (std::size_t k = 0; k + 1 < runs.size(); k += 2) {
      const auto a = items.begin() + static_cast<std::ptrdiff_t>(runs[k]);
      const auto b = items.begin() + static_cast<std::ptrdiff_t>(runs[k + 1]);
      const auto c =
          k + 2 < runs.size() ? items.begin() + static_cast<std::ptrdiff_t>(runs[k + 2]) : b;
      runs[w++] = buf.size();
      std::set_union(a, b, b, c, std::back_inserter(buf));
    }
    runs[w++] = buf.size();
    runs.resize(w);
    items.swap(buf);
  }
}

// Moves the items of the sorted run `incoming` that `known` lacks into
// `fresh` and merges them into `known`, in place from the back.
template <class T>
void absorb(std::vector<T>& known, const std::vector<T>& incoming, std::vector<T>& fresh) {
  fresh.clear();
  std::set_difference(incoming.begin(), incoming.end(), known.begin(), known.end(),
                      std::back_inserter(fresh));
  std::size_t i = known.size(), j = fresh.size();
  known.resize(i + j);
  for (std::size_t k = i + j; j > 0;) {
    known[--k] = i > 0 && fresh[j - 1] < known[i - 1] ? known[--i] : fresh[--j];
  }
}

// Per-thread buffers for one node step. Each step clears what it uses, so
// nothing carries over from one node to the next and the thread that ran a
// node never shows in its output.
struct StepScratch {
  std::vector<NodeId> nodes, node_buf, fresh_nodes;
  std::vector<IdEdge> edges, edge_buf, fresh_edges;
  std::vector<std::size_t> node_runs, edge_runs;
};

StepScratch& step_scratch() {
  thread_local StepScratch scratch;
  return scratch;
}

}  // namespace

FloodingGather::FloodingGather(int radius) : radius_(radius) { LAD_CHECK(radius >= 0); }

void FloodingGather::init(const Graph& g) {
  // The radius-1 view: own ID, neighbour IDs (through the ID-sorted ports),
  // incident edges.
  nodes_.assign(static_cast<std::size_t>(g.n()), {});
  edges_.assign(static_cast<std::size_t>(g.n()), {});
  for (int v = 0; v < g.n(); ++v) {
    auto& nodes = nodes_[static_cast<std::size_t>(v)];
    auto& edges = edges_[static_cast<std::size_t>(v)];
    const NodeId self = g.id(v);
    nodes.push_back(self);
    for (const int u : g.neighbors(v)) {
      const NodeId other = g.id(u);
      nodes.push_back(other);
      edges.push_back({std::min(self, other), std::max(self, other)});
    }
    std::sort(nodes.begin(), nodes.end());
    std::sort(edges.begin(), edges.end());
  }
}

void FloodingGather::round(NodeCtx& ctx) {
  const auto v = static_cast<std::size_t>(ctx.node());
  StepScratch& sc = step_scratch();
  if (ctx.round_number() > 1) {
    sc.nodes.clear();
    sc.edges.clear();
    sc.node_runs.clear();
    sc.edge_runs.clear();
    for (int p = 0; p < ctx.degree(); ++p) {
      if (ctx.has_message(p)) {
        decode_append(ctx.received(p), sc.nodes, sc.node_runs, sc.edges, sc.edge_runs);
      }
    }
    union_runs(sc.nodes, sc.node_runs, sc.node_buf);
    union_runs(sc.edges, sc.edge_runs, sc.edge_buf);
    absorb(nodes_[v], sc.nodes, sc.fresh_nodes);
    absorb(edges_[v], sc.edges, sc.fresh_edges);
  }
  if (ctx.round_number() > radius_) {
    ctx.halt({});
    return;
  }
  ctx.broadcast(ctx.round_number() == 1 ? encode(nodes_[v], edges_[v])
                                        : encode(sc.fresh_nodes, sc.fresh_edges));
}

Ball FloodingGather::ball(const Graph& g, int v) const {
  const auto& ids = known_nodes(v);
  const auto& edges = known_edges(v);
  const std::size_t k = ids.size();
  const auto rank = [&ids](NodeId id) {
    const std::size_t r = lower_bound_index<NodeId>(ids, id);
    if (r == ids.size() || ids[r] != id) {
      throw ContractViolation("flooded knowledge lacks node " + std::to_string(id));
    }
    return r;
  };

  // The known graph in CSR form, nodes indexed by ID rank.
  std::vector<std::pair<std::size_t, std::size_t>> ends;
  ends.reserve(edges.size());
  std::vector<std::size_t> off(k + 1, 0);
  for (const IdEdge& e : edges) {
    const auto& [a, b] = ends.emplace_back(rank(e.lo), rank(e.hi));
    ++off[a + 1];
    ++off[b + 1];
  }
  std::partial_sum(off.begin(), off.end(), off.begin());
  std::vector<std::size_t> adj(off.back());
  std::vector<std::size_t> cursor(off.begin(), off.end() - 1);
  for (const auto& [a, b] : ends) {
    adj[cursor[a]++] = b;
    adj[cursor[b]++] = a;
  }

  // BFS to `radius`, each layer then in ascending rank, which is ascending
  // ID: the order extract_ball gives on a graph indexed in ID order.
  const std::size_t center = rank(g.id(v));
  std::vector<int> dist(k, kUnreachable);
  std::vector<std::size_t> order{center};
  dist[center] = 0;
  for (std::size_t head = 0; head < order.size() && dist[order[head]] < radius_; ++head) {
    const std::size_t x = order[head];
    for (std::size_t j = off[x]; j < off[x + 1]; ++j) {
      if (dist[adj[j]] != kUnreachable) continue;
      dist[adj[j]] = dist[x] + 1;
      order.push_back(adj[j]);
    }
  }
  for (auto lo = order.begin(); lo != order.end();) {
    const int d = dist[*lo];
    const auto hi = std::find_if(lo, order.end(), [&](std::size_t x) { return dist[x] != d; });
    std::sort(lo, hi);
    lo = hi;
  }

  Ball out;
  out.radius = radius_;
  out.dist.reserve(order.size());
  out.to_parent.reserve(order.size());
  std::vector<int> slot(k, -1);
  Graph::Builder b;
  b.reserve(order.size(), ends.size());
  for (const std::size_t x : order) {
    slot[x] = b.add_node(ids[x]);
    out.dist.push_back(dist[x]);
    const auto parent = g.find_index(ids[x]);
    LAD_CHECK_MSG(parent.has_value(), "ball node missing from its parent graph");
    out.to_parent.push_back(*parent);
  }
  for (const auto& [a, c] : ends) {
    if (slot[a] >= 0 && slot[c] >= 0) b.add_edge(slot[a], slot[c]);
  }
  out.graph = std::move(b).build();
  out.center = slot[center];
  return out;
}

namespace {

std::vector<Ball> gather_balls_impl(const Graph& g, int radius, ThreadPool* pool) {
  LAD_TM_SPAN(span, "gather.balls", "gather");
  FloodingGather alg(radius);
  {
    Engine eng(g);
    eng.set_thread_pool(pool);
    const auto run = eng.run(alg, alg.max_rounds());
    LAD_CHECK(run.all_halted);
  }

  // After t+1 rounds a node knows every edge with an endpoint within t
  // hops; the ball is the induced radius-t part. Each reconstruction writes
  // only its own slot, so the fan-out is deterministic at any thread count.
  std::vector<Ball> balls(static_cast<std::size_t>(g.n()));
  auto build = [&](int v) { balls[static_cast<std::size_t>(v)] = alg.ball(g, v); };
  if (pool != nullptr && pool->threads() > 1) {
    pool->for_each(g.n(), build);
  } else {
    for (int v = 0; v < g.n(); ++v) build(v);
  }
  LAD_TM(obs::core().gather_balls.add(g.n()));
  return balls;
}

}  // namespace

std::vector<Ball> gather_balls_by_messages(const Graph& g, int radius) {
  return gather_balls_impl(g, radius, nullptr);
}

std::vector<Ball> gather_balls_by_messages(const Graph& g, int radius, ThreadPool& pool) {
  return gather_balls_impl(g, radius, &pool);
}

CanonicalViews gather_canonical_views(const Graph& g, int radius, const std::vector<int>& labels,
                                      ThreadPool* pool) {
  LAD_TM_SPAN(span, "gather.views", "gather");
  LAD_CHECK(labels.empty() || static_cast<int>(labels.size()) == g.n());
  // Canonicalization is per-node work on per-node slots; interning stays
  // serial in node order so class ids never depend on the thread count.
  std::vector<std::string> keys(static_cast<std::size_t>(g.n()));
  auto canon = [&](BoundedBfs& search, int v) {
    const Ball ball = extract_ball(search, v, radius);
    std::vector<int> ball_labels;
    if (!labels.empty()) {
      ball_labels.reserve(ball.to_parent.size());
      for (const int p : ball.to_parent) {
        ball_labels.push_back(labels[static_cast<std::size_t>(p)]);
      }
    }
    keys[static_cast<std::size_t>(v)] =
        canonical_view(ball.graph, ball.graph.nodes_by_id(), ball.center, ball_labels);
  };
  // One search per chunk: chunks run on different workers.
  auto canon_range = [&](int begin, int end, int /*chunk*/) {
    BoundedBfs search(g);
    for (int v = begin; v < end; ++v) canon(search, v);
  };
  if (pool != nullptr && pool->threads() > 1) {
    pool->parallel_for(g.n(), canon_range);
  } else {
    canon_range(0, g.n(), 0);
  }

  CanonicalViews views;
  views.view_class.assign(static_cast<std::size_t>(g.n()), -1);
  std::unordered_map<std::string, int> intern;
  for (int v = 0; v < g.n(); ++v) {
    auto& key = keys[static_cast<std::size_t>(v)];
    const auto [it, inserted] = intern.emplace(key, views.distinct());
    if (inserted) {
      views.key.push_back(std::move(key));
      views.representative.push_back(v);
    } else {
      ++views.memo_hits;
    }
    views.view_class[static_cast<std::size_t>(v)] = it->second;
  }
  // Hits/misses come from the serial interning loop, so they are identical
  // at every thread count (the §8 memo-effectiveness metric).
  LAD_TM({
    obs::core().gather_cache_hits.add(views.memo_hits);
    obs::core().gather_cache_misses.add(views.distinct());
  });
  return views;
}

namespace {

class BfsAlgorithm : public SyncAlgorithm {
 public:
  BfsAlgorithm(int source, DistributedBfsResult& out) : source_(source), out_(out) {}

  void init(const Graph& g) override {
    g_ = &g;
    out_.dist.assign(static_cast<std::size_t>(g.n()), kUnreachable);
    out_.parent.assign(static_cast<std::size_t>(g.n()), -1);
  }

  void round(NodeCtx& ctx) override {
    const int v = ctx.node();
    auto& d = out_.dist[static_cast<std::size_t>(v)];
    if (ctx.round_number() == 1) {
      if (v == source_) {
        d = 0;
        ctx.broadcast("0");
      }
      return;
    }
    bool announced = false;
    if (d == kUnreachable) {
      for (int p = 0; p < ctx.degree(); ++p) {
        if (!ctx.has_message(p)) continue;
        const int du = std::stoi(std::string(ctx.received(p)));
        if (d == kUnreachable || du + 1 < d) {
          d = du + 1;
          out_.parent[static_cast<std::size_t>(v)] = g_->neighbors(v)[p];
        }
      }
      if (d != kUnreachable) {
        ctx.broadcast(std::to_string(d));
        announced = true;
      }
    }
    // Termination: nodes cannot know the diameter, so the driver bounds the
    // rounds; halt once settled and already announced.
    if (d != kUnreachable && !announced) ctx.halt(std::to_string(d));
  }

 private:
  int source_;
  DistributedBfsResult& out_;
  const Graph* g_ = nullptr;
};

}  // namespace

DistributedBfsResult bfs_by_messages(const Graph& g, int source) {
  DistributedBfsResult out;
  BfsAlgorithm alg(source, out);
  Engine eng(g);
  const auto run = eng.run(alg, g.n() + 3);
  out.rounds = run.rounds;
  return out;
}

}  // namespace lad
