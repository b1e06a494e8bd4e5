#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/json_mini.hpp"

namespace lad::obs {
namespace {

using jsonmini::JsonParser;
using jsonmini::JsonValue;
using jsonmini::json_escape;
using jsonmini::num_field;
using jsonmini::str_field;

std::string fmt3(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string fmt1(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string fmt2(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

double us_to_ms(long long us) { return static_cast<double>(us) / 1000.0; }

int phase_rank(const std::string& phase) {
  const auto& tax = phase_taxonomy();
  for (std::size_t i = 0; i < tax.size(); ++i) {
    if (tax[i] == phase) return static_cast<int>(i);
  }
  return static_cast<int>(tax.size());
}

bool has_prefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// splitmix64 (Steele–Lea–Flood): self-contained so obs stays stdlib-only.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const std::vector<std::string>& phase_taxonomy() {
  static const std::vector<std::string> kPhases = {
      "gather", "compute", "message-exchange", "fault-transition", "verify", "other",
  };
  return kPhases;
}

std::string phase_of_span(const std::string& span_name) {
  // The mapping is total over span_name_catalog(); tests pin that every
  // catalog entry lands in a non-"other" phase unless listed as harness
  // scaffolding (engine.run/round/collect, campaign/chaos wrappers, pool chunks
  // outside compute are impossible — chunks only run compute work).
  if (has_prefix(span_name, "gather.")) return "gather";
  if (span_name == "engine.compute" || span_name == "pool.chunk" ||
      has_prefix(span_name, "pipeline.encode/") || has_prefix(span_name, "pipeline.decode/") ||
      has_prefix(span_name, "pipeline.decode_tolerant/")) {
    return "compute";
  }
  if (span_name == "engine.deliver" || span_name == "engine.setup") return "message-exchange";
  if (span_name == "engine.faults") return "fault-transition";
  if (span_name == "engine.audit_init" || has_prefix(span_name, "pipeline.verify/") ||
      has_prefix(span_name, "guarded.decode/")) {
    return "verify";
  }
  return "other";
}

// ---------------------------------------------------------------------------
// PoolAccounting

struct PoolAccounting::SlotCell {
  int tid = -1;
  std::atomic<long long> busy_us{0};
  std::atomic<long long> chunks{0};
};

PoolAccounting& PoolAccounting::instance() {
  static PoolAccounting acc;
  return acc;
}

PoolAccounting::SlotCell& PoolAccounting::local_slot() {
  thread_local std::shared_ptr<SlotCell> cell;
  if (!cell) {
    cell = std::make_shared<SlotCell>();
    cell->tid = TraceRecorder::instance().current_tid();
    std::lock_guard<std::mutex> lk(mu_);
    cells_.push_back(cell);
  }
  return *cell;
}

void PoolAccounting::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& c : cells_) {
    c->busy_us.store(0, std::memory_order_relaxed);
    c->chunks.store(0, std::memory_order_relaxed);
  }
}

void PoolAccounting::record_chunk(std::uint64_t dur_us) {
  SlotCell& c = local_slot();
  c.busy_us.fetch_add(static_cast<long long>(dur_us), std::memory_order_relaxed);
  c.chunks.fetch_add(1, std::memory_order_relaxed);
}

std::vector<PoolAccounting::Slot> PoolAccounting::slots() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Slot> out;
  for (const auto& c : cells_) {
    const long long chunks = c->chunks.load(std::memory_order_relaxed);
    if (chunks == 0) continue;
    out.push_back({c->tid, c->busy_us.load(std::memory_order_relaxed), chunks});
  }
  std::sort(out.begin(), out.end(), [](const Slot& a, const Slot& b) { return a.tid < b.tid; });
  return out;
}

ChunkTimer::ChunkTimer() {
  if (!enabled()) return;
  active_ = true;
  begin_us_ = trace_now_us();
}

ChunkTimer::~ChunkTimer() {
  if (active_) PoolAccounting::instance().record_chunk(trace_now_us() - begin_us_);
}

// ---------------------------------------------------------------------------
// Self-time attribution

std::map<std::pair<std::string, int>, CellAccum> self_times_by_cell(
    const std::vector<std::pair<int, std::vector<TraceEvent>>>& events_by_thread) {
  std::map<std::pair<std::string, int>, CellAccum> out;
  struct Frame {
    const std::string* name;
    std::uint64_t begin_us;
    long long child_us;
  };
  for (const auto& [tid, events] : events_by_thread) {
    std::vector<Frame> stack;
    for (const TraceEvent& ev : events) {
      if (ev.phase == 'B') {
        stack.push_back({&ev.name, ev.ts_us, 0});
        continue;
      }
      if (ev.phase != 'E' || stack.empty()) continue;  // foreign or unbalanced
      const Frame f = stack.back();
      stack.pop_back();
      const long long total_us = static_cast<long long>(ev.ts_us - f.begin_us);
      const long long self_us = std::max(0LL, total_us - f.child_us);
      CellAccum& cell = out[{phase_of_span(*f.name), tid}];
      cell.self_us += self_us;
      cell.spans += 1;
      if (!stack.empty()) stack.back().child_us += total_us;
    }
    // Spans still open at snapshot time are dropped, not guessed at.
  }
  return out;
}

std::string top_phase_from_trace() {
  const auto cells = self_times_by_cell(TraceRecorder::instance().events_by_thread());
  if (cells.empty()) return {};
  std::map<std::string, long long> by_phase;
  for (const auto& [key, acc] : cells) by_phase[key.first] += acc.self_us;
  std::string best;
  long long best_us = -1;
  for (const std::string& phase : phase_taxonomy()) {  // taxonomy order breaks ties
    const auto it = by_phase.find(phase);
    const long long us = it == by_phase.end() ? 0 : it->second;
    if (us > best_us) {
      best = phase;
      best_us = us;
    }
  }
  return best_us > 0 ? best : std::string{};
}

// ---------------------------------------------------------------------------
// Report assembly

ProfileReport build_profile_report(
    const ProfileIdentity& id, const std::vector<PhaseAlloc>& phase_allocs,
    const std::vector<std::pair<int, std::vector<TraceEvent>>>& events_by_thread,
    const std::vector<PoolAccounting::Slot>& pool_slots,
    const std::vector<std::pair<int, std::string>>& thread_names, int threads, int reps,
    double total_ms) {
  ProfileReport rep;
  rep.id = id;
  rep.phase_allocs = phase_allocs;
  rep.threads = threads;
  rep.reps = reps;
  rep.total_ms = total_ms;

  const auto cells = self_times_by_cell(events_by_thread);
  long long total_self_us = 0;
  for (const auto& [key, acc] : cells) total_self_us += acc.self_us;

  std::map<std::string, CellAccum> by_phase;
  for (const auto& [key, acc] : cells) {
    CellAccum& p = by_phase[key.first];
    p.self_us += acc.self_us;
    p.spans += acc.spans;
    rep.cells.push_back({key.first, key.second, us_to_ms(acc.self_us), acc.spans});
  }
  std::sort(rep.cells.begin(), rep.cells.end(), [](const ProfileCell& a, const ProfileCell& b) {
    if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
    if (a.phase != b.phase) return phase_rank(a.phase) < phase_rank(b.phase);
    return a.tid < b.tid;
  });

  for (const std::string& phase : phase_taxonomy()) {
    const auto it = by_phase.find(phase);
    if (it == by_phase.end()) continue;
    const double pct = total_self_us > 0
                           ? 100.0 * static_cast<double>(it->second.self_us) /
                                 static_cast<double>(total_self_us)
                           : 0.0;
    rep.phases.push_back({phase, us_to_ms(it->second.self_us), pct, it->second.spans});
  }
  std::sort(rep.phases.begin(), rep.phases.end(), [](const PhaseTime& a, const PhaseTime& b) {
    if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
    return phase_rank(a.phase) < phase_rank(b.phase);
  });

  // Thread rows: one per pool slot plus any traced-but-chunkless thread.
  long long total_chunks = 0;
  for (const auto& s : pool_slots) total_chunks += s.chunks;
  const long long workers = static_cast<long long>(pool_slots.size());
  const long long fair_share = workers > 0 ? (total_chunks + workers - 1) / workers : 0;
  const auto name_of = [&thread_names](int tid) -> std::string {
    for (const auto& [t, n] : thread_names) {
      if (t == tid) return n;
    }
    return {};
  };
  std::vector<int> tids;
  for (const auto& s : pool_slots) tids.push_back(s.tid);
  for (const auto& [tid, events] : events_by_thread) {
    (void)events;
    if (std::find(tids.begin(), tids.end(), tid) == tids.end()) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  for (const int tid : tids) {
    ProfileThread row;
    row.tid = tid;
    row.name = name_of(tid);
    for (const auto& s : pool_slots) {
      if (s.tid != tid) continue;
      row.busy_ms = us_to_ms(s.busy_us);
      row.chunks = s.chunks;
      row.steal = std::max(0LL, s.chunks - fair_share);
    }
    row.idle_ms = std::max(0.0, total_ms - row.busy_ms);
    rep.thread_rows.push_back(row);
  }

  // Imbalance: max busy / mean busy across workers that executed chunks.
  if (workers >= 2) {
    long long max_busy = 0;
    long long sum_busy = 0;
    for (const auto& s : pool_slots) {
      max_busy = std::max(max_busy, s.busy_us);
      sum_busy += s.busy_us;
    }
    const double mean = static_cast<double>(sum_busy) / static_cast<double>(workers);
    rep.imbalance = mean > 0 ? static_cast<double>(max_busy) / mean : 1.0;
  }

  for (const auto& [tid, events] : events_by_thread) {
    (void)tid;
    rep.trace_events += static_cast<long long>(events.size());
  }
  rep.trace_dropped = TraceRecorder::instance().dropped();
  return rep;
}

std::string fingerprint_hex(const std::vector<std::string>& parts) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::string& p : parts) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(p.size()));
    for (const char c : p) {
      h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// JSON

std::string ProfileReport::deterministic_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "    \"profile_schema_version\": " << kProfileSchemaVersion << ",\n";
  os << "    \"pipeline\": \"" << json_escape(id.pipeline) << "\",\n";
  os << "    \"source\": \"" << json_escape(id.source) << "\",\n";
  os << "    \"graph_digest\": \"" << json_escape(id.graph_digest) << "\",\n";
  os << "    \"n\": " << id.n << ",\n";
  os << "    \"m\": " << id.m << ",\n";
  os << "    \"seed\": " << id.seed << ",\n";
  os << "    \"decode_rounds\": " << id.decode_rounds << ",\n";
  os << "    \"verify_ok\": " << (id.verify_ok ? "true" : "false") << ",\n";
  os << "    \"output_digest\": \"" << json_escape(id.output_digest) << "\",\n";
  os << "    \"advice_bits\": " << id.advice_bits << ",\n";
  os << "    \"engine_messages\": " << id.engine_messages << ",\n";
  os << "    \"engine_message_bits\": " << id.engine_message_bits << ",\n";
  os << "    \"phases\": [\n";
  for (std::size_t i = 0; i < phase_allocs.size(); ++i) {
    const PhaseAlloc& p = phase_allocs[i];
    os << "      {\"phase\": \"" << json_escape(p.phase) << "\", \"allocs\": " << p.allocs
       << ", \"alloc_bytes\": " << p.alloc_bytes << "}" << (i + 1 < phase_allocs.size() ? "," : "")
       << "\n";
  }
  os << "    ]\n";
  os << "  }";
  return os.str();
}

std::string ProfileReport::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"deterministic\": " << deterministic_json() << ",\n";
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"git_commit\": \"" << json_escape(git_commit) << "\",\n";
  os << "  \"timestamp\": \"" << json_escape(timestamp) << "\",\n";
  os << "  \"measured\": {\n";
  os << "    \"total_ms\": " << fmt3(total_ms) << ",\n";
  os << "    \"imbalance\": " << fmt2(imbalance) << ",\n";
  os << "    \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseTime& p = phases[i];
    os << "      {\"phase\": \"" << json_escape(p.phase) << "\", \"self_ms\": " << fmt3(p.self_ms)
       << ", \"pct\": " << fmt1(p.pct) << ", \"spans\": " << p.spans << "}"
       << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  os << "    ],\n";
  os << "    \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ProfileCell& c = cells[i];
    os << "      {\"phase\": \"" << json_escape(c.phase) << "\", \"tid\": " << c.tid
       << ", \"self_ms\": " << fmt3(c.self_ms) << ", \"spans\": " << c.spans << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "    ],\n";
  os << "    \"threads\": [\n";
  for (std::size_t i = 0; i < thread_rows.size(); ++i) {
    const ProfileThread& t = thread_rows[i];
    os << "      {\"tid\": " << t.tid << ", \"name\": \"" << json_escape(t.name)
       << "\", \"busy_ms\": " << fmt3(t.busy_ms) << ", \"idle_ms\": " << fmt3(t.idle_ms)
       << ", \"chunks\": " << t.chunks << ", \"steal\": " << t.steal << "}"
       << (i + 1 < thread_rows.size() ? "," : "") << "\n";
  }
  os << "    ],\n";
  os << "    \"trace_events\": " << trace_events << ",\n";
  os << "    \"trace_dropped\": " << trace_dropped << "\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Markdown

std::string ProfileReport::to_markdown() const {
  std::ostringstream os;
  os << "# PERF — profiling observatory report\n\n";
  os << "Generated by `lad profile`; do not edit by hand. Timings are measured\n"
        "on the build machine; every other field is deterministic and must be\n"
        "byte-identical across reruns and thread counts (DESIGN.md §13).\n\n";
  os << "- pipeline: `" << id.pipeline << "`\n";
  os << "- source: `" << id.source << "` (n=" << id.n << ", m=" << id.m << ", digest `"
     << id.graph_digest << "`)\n";
  os << "- seed: " << id.seed << " · threads: " << threads << " · reps: " << reps << "\n";
  os << "- verify: " << (id.verify_ok ? "ok" : "FAILED") << " · output digest: `"
     << id.output_digest << "` · decode rounds: " << id.decode_rounds << "\n";
  os << "- advice bits: " << id.advice_bits << " · engine messages: " << id.engine_messages
     << " (" << id.engine_message_bits << " bits)\n";
  os << "- total wall: " << fmt3(total_ms) << " ms (min of " << reps
     << ") · imbalance: " << fmt2(imbalance) << "\n";
  os << "- trace: " << trace_events << " events, " << trace_dropped << " dropped\n\n";

  os << "## Top time sinks\n\n";
  const std::size_t top = std::min<std::size_t>(3, phases.size());
  for (std::size_t i = 0; i < top; ++i) {
    const PhaseTime& p = phases[i];
    os << (i + 1) << ". **" << p.phase << "** — " << fmt3(p.self_ms) << " ms self ("
       << fmt1(p.pct) << "%), " << p.spans << " spans\n";
  }
  if (top == 0) os << "(no spans recorded)\n";
  os << "\n";

  os << "## Phase totals\n\n";
  os << "| phase | self_ms | % | spans | allocs | alloc_bytes |\n";
  os << "|---|---:|---:|---:|---:|---:|\n";
  const auto alloc_of = [this](const std::string& phase) -> const PhaseAlloc* {
    for (const auto& a : phase_allocs) {
      if (a.phase == phase) return &a;
    }
    return nullptr;
  };
  for (const PhaseTime& p : phases) {
    const PhaseAlloc* a = alloc_of(p.phase);
    os << "| " << p.phase << " | " << fmt3(p.self_ms) << " | " << fmt1(p.pct) << " | " << p.spans
       << " | " << (a != nullptr ? a->allocs : 0) << " | " << (a != nullptr ? a->alloc_bytes : 0)
       << " |\n";
  }
  // Phases with allocations but no measured self-time still matter.
  for (const PhaseAlloc& a : phase_allocs) {
    const bool timed = std::any_of(phases.begin(), phases.end(),
                                   [&a](const PhaseTime& p) { return p.phase == a.phase; });
    if (!timed && (a.allocs != 0 || a.alloc_bytes != 0)) {
      os << "| " << a.phase << " | 0.000 | 0.0 | 0 | " << a.allocs << " | " << a.alloc_bytes
         << " |\n";
    }
  }
  os << "\n";

  os << "## Cost centers (phase × thread)\n\n";
  os << "| rank | phase | tid | thread | self_ms | spans |\n";
  os << "|---:|---|---:|---|---:|---:|\n";
  const auto name_of = [this](int tid) -> std::string {
    for (const auto& t : thread_rows) {
      if (t.tid == tid && !t.name.empty()) return t.name;
    }
    return "-";
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ProfileCell& c = cells[i];
    os << "| " << (i + 1) << " | " << c.phase << " | " << c.tid << " | " << name_of(c.tid)
       << " | " << fmt3(c.self_ms) << " | " << c.spans << " |\n";
  }
  os << "\n";

  os << "## Threads\n\n";
  os << "| tid | name | busy_ms | idle_ms | chunks | steal |\n";
  os << "|---:|---|---:|---:|---:|---:|\n";
  for (const ProfileThread& t : thread_rows) {
    os << "| " << t.tid << " | " << (t.name.empty() ? "-" : t.name) << " | " << fmt3(t.busy_ms)
       << " | " << fmt3(t.idle_ms) << " | " << t.chunks << " | " << t.steal << " |\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// diffprof

ProfDoc parse_profile_json(const std::string& text) {
  const JsonValue root = JsonParser(text, "profile JSON").parse();
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("profile JSON: top level is not an object");
  }
  const JsonValue* det = root.find("deterministic");
  if (det == nullptr || det->kind != JsonValue::Kind::kObject) {
    throw std::runtime_error("profile JSON: missing \"deterministic\" object");
  }
  ProfDoc doc;
  doc.schema_version = static_cast<int>(num_field(*det, "profile_schema_version", true));
  if (doc.schema_version < 1 || doc.schema_version > kProfileSchemaVersion) {
    throw std::runtime_error("profile JSON: unsupported profile_schema_version " +
                             std::to_string(doc.schema_version));
  }
  doc.pipeline = str_field(*det, "pipeline", true);
  doc.source = str_field(*det, "source", true);
  doc.graph_digest = str_field(*det, "graph_digest", true);
  doc.n = static_cast<long long>(num_field(*det, "n", true));
  doc.m = static_cast<long long>(num_field(*det, "m", true));
  doc.seed = static_cast<long long>(num_field(*det, "seed", true));
  doc.decode_rounds = static_cast<long long>(num_field(*det, "decode_rounds", true));
  const JsonValue* ok = det->find("verify_ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) {
    throw std::runtime_error("profile JSON: missing boolean \"verify_ok\"");
  }
  doc.verify_ok = ok->boolean;
  doc.output_digest = str_field(*det, "output_digest", true);
  doc.advice_bits = static_cast<long long>(num_field(*det, "advice_bits", true));
  doc.engine_messages = static_cast<long long>(num_field(*det, "engine_messages", true));
  doc.engine_message_bits = static_cast<long long>(num_field(*det, "engine_message_bits", true));
  const JsonValue* phases = det->find("phases");
  if (phases == nullptr || phases->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("profile JSON: missing \"phases\" array");
  }
  for (const JsonValue& p : phases->array) {
    if (p.kind != JsonValue::Kind::kObject) {
      throw std::runtime_error("profile JSON: phase entry is not an object");
    }
    PhaseAlloc row;
    row.phase = str_field(p, "phase", true);
    row.allocs = static_cast<long long>(num_field(p, "allocs", true));
    row.alloc_bytes = static_cast<long long>(num_field(p, "alloc_bytes", true));
    doc.phase_allocs.push_back(std::move(row));
  }
  doc.threads = static_cast<int>(num_field(root, "threads", /*required=*/false, 1));
  if (const JsonValue* meas = root.find("measured");
      meas != nullptr && meas->kind == JsonValue::Kind::kObject) {
    doc.total_ms = num_field(*meas, "total_ms", /*required=*/false, 0);
  }
  return doc;
}

DiffStatus ProfDiffResult::status() const {
  DiffStatus worst = DiffStatus::kClean;
  for (const auto& d : diffs) {
    if (static_cast<int>(d.severity) > static_cast<int>(worst)) worst = d.severity;
  }
  return worst;
}

std::string ProfDiffResult::to_text() const {
  std::ostringstream os;
  if (diffs.empty()) {
    os << "diffprof: clean\n";
    return os.str();
  }
  for (const auto& d : diffs) {
    os << (d.severity == DiffStatus::kRegression ? "REGRESSION" : "MISMATCH") << " ["
       << d.field << "]: " << d.detail << "\n";
  }
  os << "diffprof: " << diffs.size() << " finding(s), exit " << static_cast<int>(status())
     << "\n";
  return os.str();
}

std::string ProfDiffResult::to_json() const {
  std::ostringstream os;
  os << "{\n  \"exit\": " << static_cast<int>(status()) << ",\n  \"findings\": [\n";
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    const auto& d = diffs[i];
    os << "    {\"field\": \"" << json_escape(d.field) << "\", \"severity\": "
       << (d.severity == DiffStatus::kRegression ? "\"regression\"" : "\"mismatch\"")
       << ", \"detail\": \"" << json_escape(d.detail) << "\"}"
       << (i + 1 < diffs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

ProfDiffResult diff_profile(const ProfDoc& baseline, const ProfDoc& candidate,
                            const BenchDiffOptions& opts) {
  ProfDiffResult res;
  auto mismatch = [&res](const std::string& field, const std::string& detail) {
    res.diffs.push_back({"", field, detail, DiffStatus::kMismatch});
  };
  auto exact_str = [&](const char* field, const std::string& b, const std::string& c) {
    if (b != c) mismatch(field, "baseline '" + b + "' != candidate '" + c + "'");
  };
  auto exact_num = [&](const char* field, long long b, long long c) {
    if (b != c) {
      mismatch(field, "baseline " + std::to_string(b) + " != candidate " + std::to_string(c));
    }
  };

  exact_str("pipeline", baseline.pipeline, candidate.pipeline);
  exact_str("source", baseline.source, candidate.source);
  exact_str("graph_digest", baseline.graph_digest, candidate.graph_digest);
  exact_num("n", baseline.n, candidate.n);
  exact_num("m", baseline.m, candidate.m);
  exact_num("seed", baseline.seed, candidate.seed);
  exact_num("decode_rounds", baseline.decode_rounds, candidate.decode_rounds);
  if (baseline.verify_ok != candidate.verify_ok) {
    mismatch("verify_ok", std::string("baseline ") + (baseline.verify_ok ? "true" : "false") +
                              " != candidate " + (candidate.verify_ok ? "true" : "false"));
  }
  exact_str("output_digest", baseline.output_digest, candidate.output_digest);
  exact_num("advice_bits", baseline.advice_bits, candidate.advice_bits);
  exact_num("engine_messages", baseline.engine_messages, candidate.engine_messages);
  exact_num("engine_message_bits", baseline.engine_message_bits, candidate.engine_message_bits);

  // Phase allocation rows: compared by phase name, both directions.
  const auto find_phase = [](const ProfDoc& doc, const std::string& phase) -> const PhaseAlloc* {
    for (const auto& p : doc.phase_allocs) {
      if (p.phase == phase) return &p;
    }
    return nullptr;
  };
  for (const auto& bp : baseline.phase_allocs) {
    const PhaseAlloc* cp = find_phase(candidate, bp.phase);
    if (cp == nullptr) {
      mismatch("phases", "phase '" + bp.phase + "' missing from candidate");
      continue;
    }
    if (bp.allocs != cp->allocs || bp.alloc_bytes != cp->alloc_bytes) {
      mismatch("phases." + bp.phase,
               "allocs baseline " + std::to_string(bp.allocs) + "/" +
                   std::to_string(bp.alloc_bytes) + "B != candidate " +
                   std::to_string(cp->allocs) + "/" + std::to_string(cp->alloc_bytes) + "B");
    }
  }
  for (const auto& cp : candidate.phase_allocs) {
    if (find_phase(baseline, cp.phase) == nullptr) {
      mismatch("phases", "phase '" + cp.phase + "' missing from baseline");
    }
  }

  // Timing gate on end-to-end wall time, mirroring diff_bench's slack.
  const double allowed =
      baseline.total_ms + std::max(opts.tol_ms, opts.tol_rel * baseline.total_ms);
  if (candidate.total_ms > allowed) {
    res.diffs.push_back({"", "total_ms",
                         "candidate " + fmt3(candidate.total_ms) + " ms exceeds baseline " +
                             fmt3(baseline.total_ms) + " ms + tolerance (allowed " +
                             fmt3(allowed) + " ms)",
                         DiffStatus::kRegression});
  }
  return res;
}

}  // namespace lad::obs
