// Synchronous message-passing engine for the LOCAL model.
//
// Semantics (§3.2 of the paper): computation proceeds in synchronous rounds;
// in each round every non-halted node reads the messages its neighbors sent
// in the previous round, performs arbitrary local computation, sends one
// (arbitrarily large) message per port, and may halt with an output. The
// runtime of an algorithm is the number of rounds until every node has
// halted.
//
// Nodes initially know: their own ID, their degree, their neighbors' IDs
// (port-numbered with ID-sorted ports), the maximum degree Delta, and n.
//
// Audit mode (enable_audit) additionally tracks per-node information
// provenance: the set of origin nodes whose initial state (ID, input,
// advice) the node's view can depend on. Every message is tagged with its
// sender's provenance at send time; reading a message merges the tag into
// the reader's set. After every round the engine asserts that each node's
// provenance lies inside its radius-`round` ball — the LOCAL-model analogue
// of a race detector. See local/audit.hpp for the complementary
// indistinguishability audit that catches algorithms bypassing this API.
//
// Message plane. Ports are numbered like Graph::raw_adj(): node v's port p
// is slot raw_adj_off()[v] + p. Each slot of the outbox and of the inbox
// holds a 12-byte MsgRef (arena, offset, length, present); the payload
// bytes live in byte arenas: a plane has one arena per pool chunk
// (chunk c is its only writer during compute, so nothing is shared) plus
// one fault arena written by the serial delivery pass. There are two
// planes: compute appends to the write plane while the nodes read the
// other; after delivery the planes swap and the old read plane is cleared
// with its capacity kept. `broadcast` copies its payload once and points
// every port at that slice; a slice never changes once sent. Delivery
// copies each ref to the twin slot (the same edge seen from the receiver),
// from a table built in O(m) per run. A payload the fault model changes,
// and every delayed or duplicated copy that lands late, is copied into the
// fault arena.
//
// Lifetime rule: the std::string_view that received() returns is valid
// until the end of the node's step. Copy what must outlive it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "util/contracts.hpp"

namespace lad {

class Engine;
class ThreadPool;

/// Per-node, per-round interface handed to algorithms.
class NodeCtx {
 public:
  int node() const { return v_; }
  NodeId id() const;
  int degree() const;
  int n() const;
  int max_degree() const;
  int round_number() const { return round_; }

  /// ID of the neighbor on the given port (ports are ID-sorted).
  NodeId neighbor_id(int port) const;

  /// Message received on `port` this round ("" if none). The view is
  /// valid until the end of this node's step.
  std::string_view received(int port) const;
  bool has_message(int port) const;

  /// Sends `payload` to the neighbor on `port`, delivered next round. A
  /// second send on the same port in one round replaces the first.
  void send(int port, std::string_view payload);

  /// Sends the same payload on all ports (stored once).
  void broadcast(std::string_view payload);

  /// Terminates this node with the given output; `round()` is not called on
  /// it again.
  void halt(std::string output);

 private:
  friend class Engine;
  NodeCtx(Engine& eng, int v, int round, int arena)
      : eng_(eng), v_(v), round_(round), arena_(arena) {}
  Engine& eng_;
  int v_;
  int round_;
  int arena_;  // the write-plane arena of this node's pool chunk
};

/// A distributed algorithm: `round` is invoked once per node per round.
/// Implementations typically keep per-node state in vectors indexed by
/// ctx.node(); `init` is the place to size them.
class SyncAlgorithm {
 public:
  virtual ~SyncAlgorithm() = default;
  virtual void init(const Graph& g) { (void)g; }
  virtual void round(NodeCtx& ctx) = 0;

  /// Called when the fault model recovers node `v` from a crash
  /// (crash-recovery faults): the node rejoins with *blank* state — the
  /// engine has already discarded its pending inbox and outbox — and this
  /// hook must reset whatever per-node state the algorithm keeps for `v`
  /// so that it genuinely re-converges instead of resuming mid-protocol.
  /// Default: the algorithm keeps no resettable per-node state.
  virtual void on_recover(const Graph& g, int v) {
    (void)g;
    (void)v;
  }
};

struct RunResult {
  /// Rounds executed until global termination (or max_rounds).
  int rounds = 0;
  bool all_halted = false;
  /// Output string each node halted with ("" if it never halted).
  std::vector<std::string> outputs;
  /// Round in which each node halted (-1 if it never halted).
  std::vector<int> halt_round;
  /// Message complexity: messages delivered and their total payload bytes.
  long long messages = 0;
  long long bytes = 0;
  /// Nodes down at the end of the run (empty when no fault model is
  /// installed). Under crash-stop this is every node that ever crashed;
  /// under crash-recovery a node that rejoined is no longer marked.
  std::vector<char> crashed;
};

/// Optional fault model consulted by the engine while running an algorithm.
///
/// All hooks must be *deterministic pure functions* of their arguments
/// (plus any seed baked into the implementation): the engine may consult
/// them in any order, and reproducibility of fault campaigns depends on the
/// answers not varying with iteration order. Faults are applied so that the
/// audit/provenance machinery stays sound: a dropped message removes
/// information (never adds any); a corrupted, duplicated, or delayed
/// payload keeps the sender's provenance tag, which over-approximates what
/// the reader can now know (delay only increases the round at read time, so
/// ball containment still holds).
class EngineFaultModel {
 public:
  virtual ~EngineFaultModel() = default;

  /// True if node `v` is down during `round` (1-based). A down node
  /// executes nothing and sends nothing; it does not count as active, so
  /// runs still terminate. A model whose answer is monotone in the round
  /// describes crash-stop; a model that answers true on a bounded interval
  /// describes crash-*recovery* — when the answer flips back to false the
  /// engine discards the node's pending messages, calls
  /// SyncAlgorithm::on_recover, and lets it rejoin with blank state.
  virtual bool crashed(int round, int v) const {
    (void)round;
    (void)v;
    return false;
  }

  /// True if the message sent in `round` from node `from` to node `to`
  /// is dropped in transit (receiver sees no message on that port).
  virtual bool drop_message(int round, int from, int to) const {
    (void)round;
    (void)from;
    (void)to;
    return false;
  }

  /// May mutate `payload` in place; returns true iff it did.
  virtual bool corrupt_message(int round, int from, int to, std::string& payload) const {
    (void)round;
    (void)from;
    (void)to;
    (void)payload;
    return false;
  }

  /// True if the message delivered in `round` from `from` to `to` is also
  /// duplicated: a stale copy arrives again one round later. The duplicate
  /// is discarded (and counted) if a fresh message occupies the port when
  /// it lands — stale information never masks fresh information.
  virtual bool duplicate_message(int round, int from, int to) const {
    (void)round;
    (void)from;
    (void)to;
    return false;
  }

  /// Extra rounds the message sent in `round` from `from` to `to` spends
  /// in transit (0 = delivered on time). A delayed message lands in the
  /// receiver's port only if no fresh message occupies it by then.
  virtual int delay_rounds(int round, int from, int to) const {
    (void)round;
    (void)from;
    (void)to;
    return 0;
  }
};

/// Accounting of faults the engine actually applied during one run().
struct EngineFaultStats {
  long long dropped = 0;
  long long corrupted = 0;
  long long duplicated = 0;       // stale copies scheduled by the model
  long long delayed = 0;          // messages held back at least one round
  long long stale_discarded = 0;  // late copies that lost to a fresh message
  int crashed_nodes = 0;          // crash events (a node crashes at most once)
  int recovered_nodes = 0;        // crash-recovery rejoins with blank state
};

/// Per-round provenance accounting of an audited run.
struct ProvenanceRoundStats {
  int round = 0;
  int active_nodes = 0;      // nodes that executed this round
  int max_set_size = 0;      // largest provenance set
  double avg_set_size = 0.0; // mean provenance set size over active nodes
  int max_radius = 0;        // max dist(v, origin) over all tracked pairs
};

/// A node whose provenance escaped its radius-`round` ball.
struct ProvenanceViolation {
  int node = -1;
  NodeId node_id = 0;
  int round = 0;
  int origin = -1;          // offending origin (node index)
  NodeId origin_id = 0;
  int origin_distance = 0;  // dist(node, origin) > round
  std::string detail;
};

struct EngineAuditLog {
  std::vector<ProvenanceRoundStats> per_round;
  std::vector<ProvenanceViolation> violations;
  bool clean() const { return violations.empty(); }
};

class Engine {
 public:
  explicit Engine(const Graph& g) : g_(g) {}

  /// Turns on provenance tracking for subsequent run() calls. With
  /// `fail_fast` (the default) a ball-containment violation throws
  /// ContractViolation; otherwise it is recorded in audit_log().
  void enable_audit(bool fail_fast = true) {
    audit_ = true;
    audit_fail_fast_ = fail_fast;
  }

  const EngineAuditLog& audit_log() const { return audit_log_; }

  /// Installs a fault model for subsequent run() calls (non-owning; pass
  /// nullptr to restore fault-free execution). Composes with enable_audit.
  void set_fault_model(const EngineFaultModel* model) { faults_ = model; }

  /// Faults applied during the most recent run().
  const EngineFaultStats& fault_stats() const { return fault_stats_; }

  /// Fans the compute phase of each round out over `pool` (non-owning; pass
  /// nullptr to restore serial execution). Node steps within a synchronous
  /// round are independent by definition of the model, and every per-node
  /// effect (outbox slots, halt state, provenance set) lands in slots owned
  /// by that node and its payload bytes in its chunk's own arena, so
  /// results are byte-identical to serial execution at any thread count.
  /// Requirement on algorithms: round(ctx) must touch only state belonging
  /// to ctx.node() (every SyncAlgorithm in this repository keeps its state
  /// in vectors indexed by ctx.node(), which qualifies).
  /// Message delivery and the audit pass stay serial — they are the
  /// synchronization barrier between rounds.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Runs `alg` until all nodes halt or `max_rounds` elapse.
  RunResult run(SyncAlgorithm& alg, int max_rounds);

 private:
  friend class NodeCtx;

  /// One port slot of the outbox or inbox: a slice of a plane's arena.
  struct MsgRef {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint16_t arena = 0;
    bool present = false;
  };

  /// One arena per cache line: chunks append to theirs concurrently.
  struct alignas(64) Arena {
    std::string bytes;
  };

  /// The payload bytes of one round: one arena per pool chunk, then the
  /// fault arena. `high_water` is the most bytes the plane held in a round
  /// of this run (allocation accounting, obs/profile.*).
  struct Plane {
    std::vector<Arena> arenas;
    long long high_water = 0;

    MsgRef append(int arena, std::string_view payload);
    std::string_view view(MsgRef m) const {
      return {arenas[m.arena].bytes.data() + m.off, m.len};
    }
  };

  void merge_provenance(int v, const std::vector<int>& origins);
  void audit_round(int round);
  void deliver_fault_free(RunResult& res);
  void count_plane_growth(Plane& plane);

  const Graph& g_;
  std::span<const int> off_;  // CSR port offsets (Graph::raw_adj_off), size n+1
  std::vector<int> twin_;     // per slot: the slot of the same edge at the other end
  std::vector<MsgRef> inbox_;
  std::vector<MsgRef> outbox_;
  Plane planes_[2];
  int write_ = 0;  // planes_[write_] takes this round's sends; the other is read
  std::vector<char> halted_;
  std::vector<char> crashed_;
  std::vector<std::string> outputs_;
  std::vector<int> halt_round_;

  const EngineFaultModel* faults_ = nullptr;
  EngineFaultStats fault_stats_;
  ThreadPool* pool_ = nullptr;

  bool audit_ = false;
  bool audit_fail_fast_ = true;
  EngineAuditLog audit_log_;
  std::vector<std::vector<int>> prov_;        // per node, sorted origin sets
  std::vector<std::vector<int>> inbox_prov_;  // per slot, provenance tags
  std::vector<std::vector<int>> outbox_prov_;
  std::vector<std::vector<int>> dist_;  // all-pairs distances (audit only)

  int slot(int v, int port) const {
    LAD_ASSERT(v >= 0 && v < static_cast<int>(off_.size()) - 1);
    LAD_ASSERT(port >= 0 && off_[v] + port < off_[v + 1]);
    return off_[v] + port;
  }
};

// The per-message accessors are inline: they run once per port per round.

inline std::string_view NodeCtx::received(int port) const {
  const int s = eng_.slot(v_, port);
  const Engine::MsgRef m = eng_.inbox_[static_cast<std::size_t>(s)];
  if (!m.present) return {};
  if (eng_.audit_) eng_.merge_provenance(v_, eng_.inbox_prov_[s]);
  return eng_.planes_[eng_.write_ ^ 1].view(m);
}

inline int NodeCtx::degree() const { return eng_.off_[v_ + 1] - eng_.off_[v_]; }

inline bool NodeCtx::has_message(int port) const {
  const int s = eng_.slot(v_, port);
  const bool present = eng_.inbox_[static_cast<std::size_t>(s)].present;
  // The presence bit is information originating at the sender; taint it too.
  if (present && eng_.audit_) eng_.merge_provenance(v_, eng_.inbox_prov_[s]);
  return present;
}

}  // namespace lad
