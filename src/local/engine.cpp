#include "local/engine.hpp"

#include <algorithm>
#include <sstream>

#include "graph/distance.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

// Sorted-set union of `add` into `into`.
void merge_sorted(std::vector<int>& into, const std::vector<int>& add) {
  if (add.empty()) return;
  std::vector<int> merged;
  merged.reserve(into.size() + add.size());
  std::set_union(into.begin(), into.end(), add.begin(), add.end(), std::back_inserter(merged));
  into.swap(merged);
}

}  // namespace

NodeId NodeCtx::id() const { return eng_.g_.id(v_); }
int NodeCtx::n() const { return eng_.g_.n(); }
int NodeCtx::max_degree() const { return eng_.g_.max_degree(); }

NodeId NodeCtx::neighbor_id(int port) const {
  const auto nb = eng_.g_.neighbors(v_);
  LAD_CHECK(port >= 0 && port < static_cast<int>(nb.size()));
  return eng_.g_.id(nb[port]);
}

void NodeCtx::send(int port, std::string_view payload) {
  const int s = eng_.slot(v_, port);
  eng_.outbox_[static_cast<std::size_t>(s)] = eng_.planes_[eng_.write_].append(arena_, payload);
  if (eng_.audit_) eng_.outbox_prov_[static_cast<std::size_t>(s)] = eng_.prov_[v_];
}

void NodeCtx::broadcast(std::string_view payload) {
  const int begin = eng_.off_[v_];
  const int end = eng_.off_[v_ + 1];
  if (begin == end) return;
  const Engine::MsgRef m = eng_.planes_[eng_.write_].append(arena_, payload);
  for (int s = begin; s < end; ++s) {
    eng_.outbox_[static_cast<std::size_t>(s)] = m;
    if (eng_.audit_) eng_.outbox_prov_[static_cast<std::size_t>(s)] = eng_.prov_[v_];
  }
}

void NodeCtx::halt(std::string output) {
  eng_.halted_[v_] = 1;
  eng_.outputs_[v_] = std::move(output);
  eng_.halt_round_[v_] = round_;
}

Engine::MsgRef Engine::Plane::append(int arena, std::string_view payload) {
  std::string& buf = arenas[static_cast<std::size_t>(arena)].bytes;
  // Checked only on failure: a counted check per message would cost more
  // than the append.
  if (buf.size() + payload.size() > UINT32_MAX) {
    LAD_CHECK_MSG(false, "message arena exceeds 4 GiB");
  }
  const MsgRef m{static_cast<std::uint32_t>(buf.size()), static_cast<std::uint32_t>(payload.size()),
                 static_cast<std::uint16_t>(arena), true};
  buf.append(payload);
  return m;
}

void Engine::count_plane_growth(Plane& plane) {
  // Message-buffer allocation accounting (obs/profile.*): a round whose
  // payload bytes exceed every earlier round on this plane may grow its
  // arenas, which keep their capacity otherwise. The plane's total, not
  // each arena's, is what counts, so the increments are a pure function of
  // the run and land byte-identical at any thread count.
  long long bytes = 0;
  for (const auto& a : plane.arenas) bytes += static_cast<long long>(a.bytes.size());
  if (bytes <= plane.high_water) return;
  LAD_TM({
    obs::core().alloc_msgbuf.add(1);
    obs::core().alloc_msgbuf_bytes.add(bytes - plane.high_water);
  });
  plane.high_water = bytes;
}

void Engine::deliver_fault_free(RunResult& res) {
  // Every slot's ref moves to its twin; absent refs overwrite last round's
  // inbox, so the inbox needs no separate clearing pass.
  long long messages = 0;
  long long bytes = 0;
  for (std::size_t s = 0; s < outbox_.size(); ++s) {
    MsgRef& out = outbox_[s];
    inbox_[static_cast<std::size_t>(twin_[s])] = out;
    if (!out.present) continue;
    ++messages;
    bytes += out.len;
    out.present = false;
    if (audit_) {
      inbox_prov_[static_cast<std::size_t>(twin_[s])] = std::move(outbox_prov_[s]);
      outbox_prov_[s].clear();
    }
  }
  res.messages += messages;
  res.bytes += bytes;
}

void Engine::merge_provenance(int v, const std::vector<int>& origins) {
  merge_sorted(prov_[static_cast<std::size_t>(v)], origins);
}

void Engine::audit_round(int round) {
  ProvenanceRoundStats stats;
  stats.round = round;
  long long total = 0;
  for (int v = 0; v < g_.n(); ++v) {
    // Nodes halted in an earlier round have frozen (already-checked) sets.
    if (halt_round_[static_cast<std::size_t>(v)] >= 0 &&
        halt_round_[static_cast<std::size_t>(v)] < round) {
      continue;
    }
    const auto& pv = prov_[static_cast<std::size_t>(v)];
    ++stats.active_nodes;
    total += static_cast<long long>(pv.size());
    stats.max_set_size = std::max(stats.max_set_size, static_cast<int>(pv.size()));
    const auto& dv = dist_[static_cast<std::size_t>(v)];
    for (const int o : pv) {
      const int d = dv[static_cast<std::size_t>(o)];
      LAD_ASSERT_MSG(d != kUnreachable, "provenance crossed a component boundary");
      stats.max_radius = std::max(stats.max_radius, d);
      if (d > round) {
        ProvenanceViolation viol;
        viol.node = v;
        viol.node_id = g_.id(v);
        viol.round = round;
        viol.origin = o;
        viol.origin_id = g_.id(o);
        viol.origin_distance = d;
        std::ostringstream os;
        os << "node " << g_.id(v) << " depends on origin " << g_.id(o) << " at distance " << d
           << " after round " << round;
        viol.detail = os.str();
        audit_log_.violations.push_back(viol);
        if (audit_fail_fast_) {
          LAD_CHECK_MSG(false, "locality violation: " << viol.detail);
        }
      }
    }
  }
  stats.avg_set_size =
      stats.active_nodes > 0 ? static_cast<double>(total) / stats.active_nodes : 0.0;
  audit_log_.per_round.push_back(stats);
}

RunResult Engine::run(SyncAlgorithm& alg, int max_rounds) {
  // Telemetry is read-only observation: the span and the counters at the
  // end never feed back into the run, so enabling it cannot change a byte
  // of any output (pinned by tests/test_telemetry.cpp).
  LAD_TM_SPAN(run_span, "engine.run", "engine");
  // Flight recorder (DESIGN.md §14): open a per-run cursor so each round
  // below lands one RoundSample. The hook only reads counters — like the
  // span it cannot influence outputs.
  LAD_TM(obs::FlightRecorder::instance().begin_run());
  const int n = g_.n();
  const int chunks = pool_ != nullptr && pool_->threads() > 1 ? pool_->threads() : 1;
  LAD_CHECK(chunks < UINT16_MAX);
  {
    // Per-run set-up: the message plane, the per-node state and the
    // algorithm's own state.
    LAD_TM_SPAN(setup_span, "engine.setup", "engine");
    off_ = g_.raw_adj_off();
    const auto total_ports = static_cast<std::size_t>(off_[static_cast<std::size_t>(n)]);
    // Twin table: the two slots of edge e face each other.
    const auto inc = g_.raw_inc();
    std::vector<int> first_slot(static_cast<std::size_t>(g_.m()), -1);
    twin_.resize(total_ports);
    for (std::size_t s = 0; s < total_ports; ++s) {
      int& f = first_slot[static_cast<std::size_t>(inc[s])];
      if (f < 0) {
        f = static_cast<int>(s);
      } else {
        twin_[s] = f;
        twin_[static_cast<std::size_t>(f)] = static_cast<int>(s);
      }
    }
    inbox_.assign(total_ports, MsgRef{});
    outbox_.assign(total_ports, MsgRef{});
    for (auto& plane : planes_) {
      plane.arenas.resize(static_cast<std::size_t>(chunks) + 1);
      for (auto& a : plane.arenas) a.bytes.clear();
      plane.high_water = 0;
    }
    write_ = 0;
    halted_.assign(static_cast<std::size_t>(n), 0);
    crashed_.assign(static_cast<std::size_t>(n), 0);
    outputs_.assign(static_cast<std::size_t>(n), "");
    halt_round_.assign(static_cast<std::size_t>(n), -1);
    fault_stats_ = {};
    alg.init(g_);
  }
  const int fault_arena = chunks;

  if (audit_) {
    LAD_TM_SPAN(audit_span, "engine.audit_init", "engine");
    audit_log_ = {};
    // Initial knowledge: own ID/input plus the IDs of the port-ordered
    // neighbors — exactly the radius-1 ball.
    prov_.assign(static_cast<std::size_t>(n), {});
    for (int v = 0; v < n; ++v) {
      auto& pv = prov_[static_cast<std::size_t>(v)];
      const auto nb = g_.neighbors(v);
      pv.assign(nb.begin(), nb.end());
      pv.push_back(v);
      std::sort(pv.begin(), pv.end());
    }
    inbox_prov_.assign(twin_.size(), {});
    outbox_prov_.assign(twin_.size(), {});
    dist_.assign(static_cast<std::size_t>(n), {});
    for (int v = 0; v < n; ++v) {
      dist_[static_cast<std::size_t>(v)] = bfs_distances(g_, v);
    }
  }

  // Messages in transit beyond the synchronous one-round latency: delayed
  // originals and stale duplicates, due at the delivery phase of `due`.
  // Insertion order is the serial (sender, port) scan order, so replaying
  // the queue is deterministic at any thread count. The payload is a copy:
  // the arena it was sent from is recycled before it lands.
  struct PendingMsg {
    int due = 0;
    int slot = 0;  // receiver inbox slot
    std::string payload;
    std::vector<int> prov;
  };
  std::vector<PendingMsg> pending;
  std::string scratch;  // corrupt_message's copy of a payload

  RunResult res;
  for (int round = 1; round <= max_rounds; ++round) {
    // One span per synchronous round (compute + audit + delivery). Short
    // SSO name: no allocation even with telemetry enabled.
    LAD_TM_SPAN(round_span, "engine.round", "engine");
    LAD_TM(obs::FlightRecorder::instance().begin_round());
    // Fault transitions, serial: crash decisions are pure functions of
    // (round, v), so hoisting them out of the parallel compute phase keeps
    // results byte-identical while letting crash-*recovery* mutate shared
    // per-node state (inbox, outbox, algorithm state) race-free.
    if (faults_ != nullptr) {
      // Phase span for the profiler: fault-transition time (crash/recovery
      // scans) attributed separately from compute and delivery.
      LAD_TM_SPAN(faults_span, "engine.faults", "engine");
      for (int v = 0; v < n; ++v) {
        if (halted_[v]) continue;
        const bool down = faults_->crashed(round, v);
        if (down && !crashed_[v]) {
          // Crash: the node executes nothing while down and never halts,
          // but it does not count as active, so runs still terminate.
          crashed_[v] = 1;
          ++fault_stats_.crashed_nodes;
        } else if (!down && crashed_[v]) {
          // Recovery: rejoin with blank state. Everything the node held or
          // was about to receive is discarded; the algorithm resets its
          // per-node state and the node re-converges from scratch.
          crashed_[v] = 0;
          ++fault_stats_.recovered_nodes;
          for (int s = off_[v]; s < off_[v + 1]; ++s) {
            inbox_[static_cast<std::size_t>(s)] = MsgRef{};
            outbox_[static_cast<std::size_t>(s)] = MsgRef{};
            if (audit_) {
              inbox_prov_[static_cast<std::size_t>(s)].clear();
              outbox_prov_[static_cast<std::size_t>(s)].clear();
            }
          }
          alg.on_recover(g_, v);
          if (audit_) {
            // Blank state resets knowledge to the initial radius-1 ball.
            auto& pv = prov_[static_cast<std::size_t>(v)];
            const auto nb = g_.neighbors(v);
            pv.assign(nb.begin(), nb.end());
            pv.push_back(v);
            std::sort(pv.begin(), pv.end());
          }
        }
      }
    }
    // Compute phase. Node steps within a synchronous round are independent
    // (LOCAL-model semantics), and every per-node effect — outbox slots,
    // halt state, the reader-side provenance set — lands in slots owned by
    // the executing node, and its payload bytes in its chunk's own arena,
    // so the steps may fan out over a thread pool with byte-identical
    // results. The pool's static partition keeps the chunk -> node mapping
    // deterministic; per-chunk accumulators are folded with
    // order-independent reductions (OR / sum).
    bool any_active = false;
    {
      // Phase span for the profiler: node-step compute time on the caller's
      // thread; pool dispatch additionally shows up as pool.chunk spans on
      // the executing workers.
      LAD_TM_SPAN(compute_span, "engine.compute", "engine");
      auto step_nodes = [&](int begin, int end, int arena, bool& active) {
        for (int v = begin; v < end; ++v) {
          if (halted_[v] || crashed_[v]) continue;
          active = true;
          NodeCtx ctx(*this, v, round, arena);
          alg.round(ctx);
        }
      };
      if (chunks > 1) {
        std::vector<char> chunk_active(static_cast<std::size_t>(chunks), 0);
        pool_->parallel_for(n, [&](int begin, int end, int c) {
          bool active = false;
          step_nodes(begin, end, c, active);
          chunk_active[static_cast<std::size_t>(c)] = active ? 1 : 0;
        });
        for (const char a : chunk_active) any_active = any_active || a != 0;
      } else {
        step_nodes(0, n, 0, any_active);
      }
    }
    if (!any_active) break;
    res.rounds = round;
    if (audit_) audit_round(round);

    // Deliver: a message sent on slot s arrives on its twin slot. The span
    // covers the rest of the round body — delivery, the late-delivery
    // replay and the plane swap — and closes before the round span
    // (reverse declaration order), so the profiler attributes all of it to
    // the message-exchange phase.
    LAD_TM_SPAN(deliver_span, "engine.deliver", "engine");
    Plane& plane = planes_[write_];
    if (faults_ == nullptr) {
      deliver_fault_free(res);
    } else {
      // One serial pass in (sender, port) order: the fault model's answers
      // and the pending queue's order do not depend on the thread count.
      for (int v = 0; v < n; ++v) {
        const auto nb = g_.neighbors(v);
        for (int p = 0; p < static_cast<int>(nb.size()); ++p) {
          const auto s = static_cast<std::size_t>(off_[v] + p);
          const auto t = static_cast<std::size_t>(twin_[s]);
          inbox_[t] = MsgRef{};
          const MsgRef out = outbox_[s];
          if (!out.present) continue;
          outbox_[s].present = false;
          const int u = nb[p];
          if (faults_->drop_message(round, v, u)) {
            // A drop only removes information, so provenance stays sound.
            ++fault_stats_.dropped;
            if (audit_) outbox_prov_[s].clear();
            continue;
          }
          const int delay = faults_->delay_rounds(round, v, u);
          if (delay > 0) {
            // Held in transit: accounted (messages/bytes) at actual
            // delivery. The payload keeps the sender's tag; reading it later
            // only increases the round, so ball containment still holds.
            ++fault_stats_.delayed;
            PendingMsg pm;
            pm.due = round + delay;
            pm.slot = static_cast<int>(t);
            pm.payload = plane.view(out);
            if (audit_) pm.prov = std::move(outbox_prov_[s]);
            pending.push_back(std::move(pm));
            if (audit_) outbox_prov_[s].clear();
            continue;
          }
          res.messages += 1;
          res.bytes += out.len;
          MsgRef in = out;
          // The model mutates a copy: the slice may be shared by the
          // sender's other ports. A changed payload moves to the fault arena.
          const std::string_view sent = plane.view(out);
          scratch.assign(sent);
          if (faults_->corrupt_message(round, v, u, scratch)) ++fault_stats_.corrupted;
          if (scratch != sent) in = plane.append(fault_arena, scratch);
          inbox_[t] = in;
          if (audit_) {
            // A corrupted payload keeps the sender's tag: that over-
            // approximates what the reader can learn, so ball containment
            // still holds.
            inbox_prov_[t] = std::move(outbox_prov_[s]);
            outbox_prov_[s].clear();
          }
          if (faults_->duplicate_message(round, v, u)) {
            // A stale copy of the (possibly corrupted) delivered payload
            // arrives again next round; same provenance tag, so sound.
            ++fault_stats_.duplicated;
            PendingMsg pm;
            pm.due = round + 1;
            pm.slot = static_cast<int>(t);
            pm.payload = plane.view(in);
            if (audit_) pm.prov = inbox_prov_[t];
            pending.push_back(std::move(pm));
          }
        }
      }
    }
    // Late deliveries due this round, in insertion (send) order. Fresh
    // messages win port conflicts: a stale copy landing on an occupied
    // port is discarded and counted, never overwrites.
    if (!pending.empty()) {
      std::vector<PendingMsg> still_pending;
      still_pending.reserve(pending.size());
      for (auto& pm : pending) {
        if (pm.due != round) {
          still_pending.push_back(std::move(pm));
          continue;
        }
        const auto t = static_cast<std::size_t>(pm.slot);
        if (inbox_[t].present) {
          ++fault_stats_.stale_discarded;
          continue;
        }
        res.messages += 1;
        res.bytes += static_cast<long long>(pm.payload.size());
        inbox_[t] = plane.append(fault_arena, pm.payload);
        if (audit_) inbox_prov_[t] = std::move(pm.prov);
      }
      pending.swap(still_pending);
    }
    // The plane just delivered becomes the read plane; nothing references
    // the old read plane any more, so it is cleared (capacity kept) and
    // takes the next round's sends.
    count_plane_growth(plane);
    write_ ^= 1;
    for (auto& a : planes_[write_].arenas) a.bytes.clear();
    // One flight-recorder sample per completed round: the recorder turns
    // these cumulative per-run totals into per-round deltas (deterministic
    // slice) and drains the pool's wait window (measured slice).
    LAD_TM(obs::FlightRecorder::instance().end_round(
        round, res.messages, res.bytes,
        fault_stats_.dropped + fault_stats_.corrupted + fault_stats_.duplicated +
            fault_stats_.delayed + fault_stats_.crashed_nodes,
        fault_stats_.recovered_nodes));
  }

  {
    LAD_TM_SPAN(collect_span, "engine.collect", "engine");
    res.all_halted = std::all_of(halted_.begin(), halted_.end(), [](char h) { return h != 0; });
    res.outputs = std::move(outputs_);
    res.halt_round = std::move(halt_round_);
    if (faults_ != nullptr) res.crashed = std::move(crashed_);
  }

  // Message/round/fault accounting, folded once per run from the serial
  // counters above — the totals are a pure function of the run, so they are
  // byte-deterministic at any thread count.
  LAD_TM({
    auto& m = obs::core();
    m.engine_runs.add(1);
    m.engine_rounds.add(res.rounds);
    m.engine_messages.add(res.messages);
    m.engine_message_bits.add(res.bytes * 8);
    m.engine_messages_dropped.add(fault_stats_.dropped);
    m.engine_messages_corrupted.add(fault_stats_.corrupted);
    m.engine_messages_duplicated.add(fault_stats_.duplicated);
    m.engine_messages_delayed.add(fault_stats_.delayed);
    m.engine_crashed_nodes.add(fault_stats_.crashed_nodes);
    m.engine_recovered_nodes.add(fault_stats_.recovered_nodes);
    m.engine_run_messages.observe(res.messages);
  });
  return res;
}

}  // namespace lad
