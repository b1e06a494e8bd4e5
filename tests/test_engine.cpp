#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <sstream>

#include "graph/generators.hpp"
#include "local/ball.hpp"
#include "local/engine.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

// Every node halts immediately with its own ID.
class IdEcho : public SyncAlgorithm {
 public:
  void round(NodeCtx& ctx) override { ctx.halt(std::to_string(ctx.id())); }
};

TEST(Engine, HaltWithOutput) {
  const Graph g = make_cycle(5);
  IdEcho alg;
  Engine eng(g);
  const auto res = eng.run(alg, 10);
  EXPECT_TRUE(res.all_halted);
  EXPECT_EQ(res.rounds, 1);
  for (int v = 0; v < g.n(); ++v) EXPECT_EQ(res.outputs[v], std::to_string(g.id(v)));
}

// Round 1: broadcast own ID. Round 2: halt with the sum of received IDs.
class NeighborSum : public SyncAlgorithm {
 public:
  void round(NodeCtx& ctx) override {
    if (ctx.round_number() == 1) {
      ctx.broadcast(std::to_string(ctx.id()));
      return;
    }
    long long sum = 0;
    for (int p = 0; p < ctx.degree(); ++p) {
      EXPECT_TRUE(ctx.has_message(p));
      sum += std::stoll(std::string(ctx.received(p)));
    }
    ctx.halt(std::to_string(sum));
  }
};

TEST(Engine, MessageDelivery) {
  const Graph g = make_cycle(6, IdMode::kRandomDense, 4);
  NeighborSum alg;
  Engine eng(g);
  const auto res = eng.run(alg, 10);
  EXPECT_TRUE(res.all_halted);
  EXPECT_EQ(res.rounds, 2);
  for (int v = 0; v < g.n(); ++v) {
    long long expect = 0;
    for (const int u : g.neighbors(v)) expect += g.id(u);
    EXPECT_EQ(res.outputs[v], std::to_string(expect));
  }
}

TEST(Engine, MessageComplexityCounters) {
  const Graph g = make_cycle(6);
  NeighborSum alg;
  Engine eng(g);
  const auto res = eng.run(alg, 10);
  // Round 1: every node broadcasts on both ports = 2m messages total.
  EXPECT_EQ(res.messages, 2LL * g.m());
  EXPECT_GT(res.bytes, 0);
}

TEST(Engine, NeighborIdsMatchPorts) {
  const Graph g = make_grid(3, 3, IdMode::kRandomDense, 8);
  class PortCheck : public SyncAlgorithm {
   public:
    explicit PortCheck(const Graph& g) : g_(g) {}
    void round(NodeCtx& ctx) override {
      for (int p = 0; p < ctx.degree(); ++p) {
        EXPECT_EQ(ctx.neighbor_id(p), g_.id(g_.neighbors(ctx.node())[p]));
      }
      ctx.halt("");
    }
    const Graph& g_;
  };
  PortCheck alg(g);
  Engine eng(g);
  EXPECT_TRUE(eng.run(alg, 2).all_halted);
}

TEST(Engine, MaxRoundsStopsNonTerminating) {
  class Forever : public SyncAlgorithm {
   public:
    void round(NodeCtx& ctx) override { ctx.broadcast("x"); }
  };
  const Graph g = make_cycle(4);
  Forever alg;
  Engine eng(g);
  const auto res = eng.run(alg, 7);
  EXPECT_FALSE(res.all_halted);
  EXPECT_EQ(res.rounds, 7);
}

// Flood the ball: after t rounds, a gather-by-messages algorithm knows
// exactly the radius-t ball that extract_ball reports — the semantic
// equivalence the view API relies on.
class GatherIds : public SyncAlgorithm {
 public:
  explicit GatherIds(int t) : t_(t) {}

  void init(const Graph& g) override { known_.assign(static_cast<std::size_t>(g.n()), {}); }

  void round(NodeCtx& ctx) override {
    auto& mine = known_[static_cast<std::size_t>(ctx.node())];
    if (ctx.round_number() == 1) mine.insert(ctx.id());
    for (int p = 0; p < ctx.degree(); ++p) {
      if (!ctx.has_message(p)) continue;
      std::istringstream is{std::string(ctx.received(p))};
      long long id = 0;
      while (is >> id) mine.insert(id);
    }
    if (ctx.round_number() > t_) {
      std::ostringstream os;
      for (const auto id : mine) os << id << ' ';
      ctx.halt(os.str());
      return;
    }
    std::ostringstream os;
    for (const auto id : mine) os << id << ' ';
    ctx.broadcast(os.str());
  }

 private:
  int t_;
  std::vector<std::set<long long>> known_;
};

TEST(Engine, FloodingMatchesBallExtraction) {
  const Graph g = make_grid(5, 5, IdMode::kRandomDense, 31);
  const int t = 2;
  GatherIds alg(t);
  Engine eng(g);
  const auto res = eng.run(alg, t + 2);
  ASSERT_TRUE(res.all_halted);
  for (int v = 0; v < g.n(); ++v) {
    const Ball ball = extract_ball(g, v, t);
    std::set<long long> expect;
    for (int i = 0; i < ball.graph.n(); ++i) expect.insert(ball.graph.id(i));
    std::set<long long> got;
    std::istringstream is(res.outputs[v]);
    long long id = 0;
    while (is >> id) got.insert(id);
    EXPECT_EQ(got, expect) << "node " << g.id(v);
  }
}

// --- Message plane (arena) semantics, at 1, 2 and 4 threads ---------------

constexpr int kPlaneThreads[] = {1, 2, 4};

// Logs every message it receives as "r<round>p<port>=<payload>;" and halts
// with the log after `last` rounds; `speak` decides what a node sends.
class Recorder final : public SyncAlgorithm {
 public:
  Recorder(int last, std::function<void(NodeCtx&)> speak)
      : last_(last), speak_(std::move(speak)) {}

  void init(const Graph& g) override { log_.assign(static_cast<std::size_t>(g.n()), ""); }

  void round(NodeCtx& ctx) override {
    auto& log = log_[static_cast<std::size_t>(ctx.node())];
    for (int p = 0; p < ctx.degree(); ++p) {
      if (!ctx.has_message(p)) continue;
      log += 'r' + std::to_string(ctx.round_number()) + 'p' + std::to_string(p) + '=';
      log += ctx.received(p);
      log += ';';
    }
    if (ctx.round_number() > last_) {
      ctx.halt(log);
      return;
    }
    speak_(ctx);
  }

  void on_recover(const Graph& g, int v) override {
    (void)g;
    log_[static_cast<std::size_t>(v)] += "recovered;";
  }

 private:
  int last_;
  std::function<void(NodeCtx&)> speak_;
  std::vector<std::string> log_;
};

RunResult run_on_pool(const Graph& g, SyncAlgorithm& alg, int max_rounds, int threads,
                      const EngineFaultModel* faults = nullptr, EngineFaultStats* stats = nullptr) {
  ThreadPool pool(threads);
  Engine eng(g);
  eng.set_thread_pool(&pool);
  eng.set_fault_model(faults);
  eng.enable_audit();
  auto res = eng.run(alg, max_rounds);
  if (stats != nullptr) *stats = eng.fault_stats();
  return res;
}

std::string payload_of(NodeId id) { return "payload-of-node-" + std::to_string(id); }

// Truncates, extends or flips the round-1 message from `from` to `to`.
class MutateOne final : public EngineFaultModel {
 public:
  enum class Kind { kTruncate, kExtend, kFlip };
  MutateOne(int from, int to, Kind kind) : from_(from), to_(to), kind_(kind) {}
  bool corrupt_message(int round, int from, int to, std::string& payload) const override {
    if (round != 1 || from != from_ || to != to_) return false;
    if (kind_ == Kind::kTruncate) payload.resize(3);
    if (kind_ == Kind::kExtend) payload += "+tail";
    if (kind_ == Kind::kFlip) payload[0] = static_cast<char>(payload[0] ^ 0x20);
    return true;
  }

 private:
  int from_, to_;
  Kind kind_;
};

TEST(MessagePlane, CorruptingOnePortOfABroadcastLeavesTheOthersIntact) {
  // K5: node 0's one broadcast slice is shared by its four ports.
  const Graph g = make_complete(5, IdMode::kRandomDense, 9);
  const int victim = g.neighbors(0)[2];
  const std::string sent = payload_of(g.id(0));
  const std::pair<MutateOne::Kind, std::string> cases[] = {
      {MutateOne::Kind::kTruncate, sent.substr(0, 3)},
      {MutateOne::Kind::kExtend, sent + "+tail"},
      {MutateOne::Kind::kFlip, "P" + sent.substr(1)},
  };
  for (const auto& [kind, mutated] : cases) {
    const MutateOne model(0, victim, kind);
    for (const int t : kPlaneThreads) {
      Recorder alg(1, [](NodeCtx& ctx) { ctx.broadcast(payload_of(ctx.id())); });
      EngineFaultStats stats;
      const auto res = run_on_pool(g, alg, 3, t, &model, &stats);
      ASSERT_TRUE(res.all_halted);
      EXPECT_EQ(stats.corrupted, 1);
      EXPECT_EQ(res.messages, 20);
      EXPECT_EQ(res.bytes, 5 * 4 * static_cast<long long>(sent.size()));  // counted as sent
      for (const int u : g.neighbors(0)) {
        const std::string want = "r2p" + std::to_string(g.port_of(u, 0)) + '=' +
                                 (u == victim ? mutated : sent) + ';';
        EXPECT_NE(res.outputs[static_cast<std::size_t>(u)].find(want), std::string::npos)
            << "threads=" << t << " receiver " << u << ": " << res.outputs[u];
      }
    }
  }
}

TEST(MessagePlane, SecondSendOnAPortReplacesTheFirstAndCountsOnce) {
  const Graph g = make_cycle(7, IdMode::kRandomDense, 3);
  for (const int t : kPlaneThreads) {
    Recorder alg(1, [](NodeCtx& ctx) {
      ctx.send(0, "a first payload that is dropped");
      ctx.send(0, "second");
    });
    const auto res = run_on_pool(g, alg, 3, t);
    EXPECT_EQ(res.messages, g.n()) << "threads=" << t;
    EXPECT_EQ(res.bytes, 6LL * g.n());
    for (int v = 0; v < g.n(); ++v) {
      EXPECT_EQ(res.outputs[static_cast<std::size_t>(v)].find("dropped"), std::string::npos);
    }
    const int u = g.neighbors(0)[0];
    EXPECT_NE(res.outputs[static_cast<std::size_t>(u)].find(
                  "r2p" + std::to_string(g.port_of(u, 0)) + "=second;"),
              std::string::npos);
  }
}

// Holds the round-1 message 0 -> delayed_to back two rounds and duplicates
// the round-1 message 0 -> dup_to.
class DelayAndDuplicate final : public EngineFaultModel {
 public:
  DelayAndDuplicate(int delayed_to, int dup_to) : delayed_to_(delayed_to), dup_to_(dup_to) {}
  int delay_rounds(int round, int from, int to) const override {
    return round == 1 && from == 0 && to == delayed_to_ ? 2 : 0;
  }
  bool duplicate_message(int round, int from, int to) const override {
    return round == 1 && from == 0 && to == dup_to_;
  }

 private:
  int delayed_to_, dup_to_;
};

TEST(MessagePlane, LateCopiesCarryTheirBytesAfterTheArenaIsRecycled) {
  // Node 0 speaks in round 1 only; every other node sends a fresh 60-byte
  // filler on every port in every round, so round 1's arena is cleared and
  // overwritten long before the late copies are read.
  const Graph g = make_cycle(9, IdMode::kRandomDense, 5);
  const int delayed_to = g.neighbors(0)[0];
  const int dup_to = g.neighbors(0)[1];
  const DelayAndDuplicate model(delayed_to, dup_to);
  const std::string sent = payload_of(g.id(0));
  for (const int t : kPlaneThreads) {
    Recorder alg(5, [](NodeCtx& ctx) {
      if (ctx.node() == 0) {
        if (ctx.round_number() == 1) ctx.broadcast(payload_of(ctx.id()));
        return;
      }
      ctx.broadcast("filler-" + std::to_string(ctx.round_number()) + std::string(50, 'x'));
    });
    EngineFaultStats stats;
    const auto res = run_on_pool(g, alg, 7, t, &model, &stats);
    ASSERT_TRUE(res.all_halted);
    EXPECT_EQ(stats.delayed, 1);
    EXPECT_EQ(stats.duplicated, 1);
    EXPECT_EQ(stats.stale_discarded, 0);
    const std::string from_delayed = "p" + std::to_string(g.port_of(delayed_to, 0)) + '=';
    const std::string from_dup = "p" + std::to_string(g.port_of(dup_to, 0)) + '=';
    const auto& delayed_log = res.outputs[static_cast<std::size_t>(delayed_to)];
    const auto& dup_log = res.outputs[static_cast<std::size_t>(dup_to)];
    // Sent in round 1, held two extra rounds: read in round 4, and only then.
    EXPECT_NE(delayed_log.find("r4" + from_delayed + sent + ';'), std::string::npos)
        << "threads=" << t << ": " << delayed_log;
    EXPECT_EQ(delayed_log.find("r2" + from_delayed), std::string::npos);
    EXPECT_EQ(delayed_log.find("r3" + from_delayed), std::string::npos);
    // On time in round 2, the stale copy again in round 3.
    EXPECT_NE(dup_log.find("r2" + from_dup + sent + ';'), std::string::npos) << dup_log;
    EXPECT_NE(dup_log.find("r3" + from_dup + sent + ';'), std::string::npos) << dup_log;
    EXPECT_EQ(dup_log.find("r4" + from_dup), std::string::npos);
  }
}

// Node `v` is down in rounds 2 and 3 and rejoins in round 4.
class DownTwoRounds final : public EngineFaultModel {
 public:
  explicit DownTwoRounds(int v) : v_(v) {}
  bool crashed(int round, int v) const override { return v == v_ && (round == 2 || round == 3); }

 private:
  int v_;
};

TEST(MessagePlane, RecoveredNodeSeesNoStaleMessages) {
  // The neighbors' round-3 messages are delivered to the down node's inbox
  // and still sit in the live read plane when it rejoins in round 4; the
  // rejoin must not see them.
  const Graph g = make_cycle(6, IdMode::kRandomDense, 7);
  const DownTwoRounds model(3);
  for (const int t : kPlaneThreads) {
    Recorder alg(4, [](NodeCtx& ctx) {
      ctx.broadcast("r" + std::to_string(ctx.round_number()) + "-from-" +
                    std::to_string(ctx.id()));
    });
    EngineFaultStats stats;
    const auto res = run_on_pool(g, alg, 6, t, &model, &stats);
    ASSERT_TRUE(res.all_halted);
    EXPECT_EQ(stats.recovered_nodes, 1);
    const auto& log = res.outputs[3];
    EXPECT_EQ(log.find("r4p"), std::string::npos) << "threads=" << t << ": " << log;
    EXPECT_EQ(log.find(';') + 1, log.find("r5p")) << log;  // the first message read is round 5's
    for (int p = 0; p < g.degree(3); ++p) {
      const NodeId nb = g.id(g.neighbors(3)[p]);
      EXPECT_NE(log.find("r5p" + std::to_string(p) + "=r4-from-" + std::to_string(nb) + ';'),
                std::string::npos)
          << log;
    }
    EXPECT_EQ(log.rfind("recovered;", 0), 0U) << log;
  }
}

TEST(Ball, StructureAndDistances) {
  const Graph g = make_grid(5, 5);
  const Ball b = extract_ball(g, g.find_index(13).value(), 2);
  EXPECT_EQ(b.graph.id(b.center), 13);
  for (int i = 0; i < b.graph.n(); ++i) {
    EXPECT_LE(b.dist[static_cast<std::size_t>(i)], 2);
    EXPECT_EQ(g.id(b.to_parent[static_cast<std::size_t>(i)]), b.graph.id(i));
  }
  EXPECT_EQ(b.from_parent(g.find_index(13).value()), b.center);
}

TEST(Ball, MaskRespected) {
  const Graph g = make_cycle(10);
  NodeMask mask(10, 1);
  mask[1] = 0;
  const Ball b = extract_ball(g, 0, 3, mask);
  for (int i = 0; i < b.graph.n(); ++i) EXPECT_NE(b.to_parent[static_cast<std::size_t>(i)], 1);
}

TEST(Ball, RoundLedger) {
  RoundLedger ledger;
  ledger.charge_radius(3);
  ledger.charge_radius(2);
  ledger.charge_extra(4);
  EXPECT_EQ(ledger.rounds(), 7);
}

}  // namespace
}  // namespace lad
