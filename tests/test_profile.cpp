// The profiling-observatory contract (DESIGN.md §13), pinned from five
// sides:
//
//   1. The phase taxonomy is total over the span-name catalog, and the
//      explicit mappings (gather/compute/message-exchange/fault-transition/
//      verify) land where the taxonomy says they do.
//   2. Self-time stack replay is exact arithmetic: a span's self-time is
//      its duration minus its direct children's durations, verified on a
//      hand-built event stream.
//   3. The report's "deterministic" JSON slice is byte-identical across
//      reruns and thread counts (1, 2, 8) for real pipeline workloads —
//      the slice `lad diffprof` and the CI profile-smoke job gate exactly.
//   4. The profile JSON round-trips through parse_profile_json.
//   5. diff_profile maps field drift to the diffbench exit-code convention:
//      0 clean, 3 timing regression (tolerance-gated), 4 structural
//      mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace lad {
namespace {

// Mirrors what `lad profile` runs per rep: encode -> decode -> verify ->
// pooled verification echo, then a report assembled from the trace and
// counter snapshot. Timing inputs are pinned (total_ms = 1.0) so tests
// exercise structure, not the clock.
obs::ProfileReport profile_run(const std::string& pipeline_name, int threads) {
  const Pipeline* p = find_pipeline(pipeline_name);
  EXPECT_NE(p, nullptr) << pipeline_name;
  PipelineConfig cfg;
  cfg.seed = 7;
  const Graph g = make_cycle(512, IdMode::kSequential, 7);

  obs::set_enabled(true);
  obs::MetricsRegistry::instance().reset();
  obs::TraceRecorder::instance().clear();
  obs::PoolAccounting::instance().reset();

  ThreadPool pool(threads);
  const auto adv = p->encode(g, cfg);
  const auto out = p->decode(g, adv, cfg);
  const bool ok = p->verify(g, out, cfg);
  const auto echo = faults::run_verification_echo(g, p->node_digests(g, out), /*echo_rounds=*/3,
                                                  /*faults=*/nullptr,
                                                  threads > 1 ? &pool : nullptr);

  obs::ProfileIdentity id;
  id.pipeline = p->name();
  id.source = "cycle:512@7";
  id.graph_digest = graph_digest_hex(g);
  id.n = g.n();
  id.m = g.m();
  id.seed = 7;
  id.decode_rounds = out.rounds;
  id.verify_ok = ok && echo.unverified_nodes.empty();
  id.output_digest = obs::fingerprint_hex(p->node_digests(g, out));
  id.advice_bits = adv.stats(g.n()).total_bits;
  id.engine_messages = obs::core().engine_messages.value();
  id.engine_message_bits = obs::core().engine_message_bits.value();

  std::vector<obs::PhaseAlloc> allocs;
  for (const auto& phase : obs::phase_taxonomy()) {
    obs::PhaseAlloc row;
    row.phase = phase;
    if (phase == "gather") {
      row.allocs = obs::core().alloc_gather.value();
      row.alloc_bytes = obs::core().alloc_gather_bytes.value();
    } else if (phase == "message-exchange") {
      row.allocs = obs::core().alloc_msgbuf.value();
      row.alloc_bytes = obs::core().alloc_msgbuf_bytes.value();
    }
    allocs.push_back(row);
  }

  auto report = obs::build_profile_report(
      id, allocs, obs::TraceRecorder::instance().events_by_thread(),
      obs::PoolAccounting::instance().slots(), obs::TraceRecorder::instance().thread_names(),
      threads, /*reps=*/1, /*total_ms=*/1.0);

  obs::set_enabled(false);
  obs::MetricsRegistry::instance().reset();
  obs::TraceRecorder::instance().clear();
  obs::PoolAccounting::instance().reset();
  return report;
}

// --- Phase taxonomy --------------------------------------------------------

TEST(Profile, TaxonomyIsTotalOverSpanCatalog) {
  const auto& phases = obs::phase_taxonomy();
  ASSERT_EQ(phases.size(), 6u);
  EXPECT_EQ(phases.front(), "gather");
  EXPECT_EQ(phases.back(), "other");
  // Every catalog entry (prefixes composed with a pipeline name, as the
  // instrumentation sites do) maps to a phase of the taxonomy.
  for (const auto& entry : obs::span_name_catalog()) {
    const std::string name = entry.back() == '/' ? entry + "orientation" : entry;
    const std::string phase = obs::phase_of_span(name);
    EXPECT_NE(std::find(phases.begin(), phases.end(), phase), phases.end())
        << name << " -> " << phase;
  }
}

TEST(Profile, ExplicitSpanMappings) {
  EXPECT_EQ(obs::phase_of_span("gather.balls"), "gather");
  EXPECT_EQ(obs::phase_of_span("gather.views"), "gather");
  EXPECT_EQ(obs::phase_of_span("engine.compute"), "compute");
  EXPECT_EQ(obs::phase_of_span("pool.chunk"), "compute");
  EXPECT_EQ(obs::phase_of_span("pipeline.encode/orientation"), "compute");
  EXPECT_EQ(obs::phase_of_span("pipeline.decode/decompress"), "compute");
  EXPECT_EQ(obs::phase_of_span("pipeline.decode_tolerant/orientation"), "compute");
  EXPECT_EQ(obs::phase_of_span("engine.deliver"), "message-exchange");
  EXPECT_EQ(obs::phase_of_span("engine.setup"), "message-exchange");
  EXPECT_EQ(obs::phase_of_span("engine.audit_init"), "verify");
  EXPECT_EQ(obs::phase_of_span("engine.collect"), "other");
  EXPECT_EQ(obs::phase_of_span("engine.faults"), "fault-transition");
  EXPECT_EQ(obs::phase_of_span("pipeline.verify/orientation"), "verify");
  EXPECT_EQ(obs::phase_of_span("guarded.decode/orientation"), "verify");
  EXPECT_EQ(obs::phase_of_span("engine.run"), "other");
  EXPECT_EQ(obs::phase_of_span("campaign.trial"), "other");
  EXPECT_EQ(obs::phase_of_span("no.such.span"), "other");
}

// --- Self-time stack replay ------------------------------------------------

TEST(Profile, SelfTimeSubtractsDirectChildren) {
  std::vector<obs::TraceEvent> ev;
  const auto push = [&ev](const char* name, std::uint64_t ts, char ph) {
    obs::TraceEvent e;
    e.name = name;
    e.ts_us = ts;
    e.phase = ph;
    ev.push_back(e);
  };
  // engine.compute [0,100] containing engine.deliver [10,30] and
  // gather.balls [40,90]; self(compute) = 100 - 20 - 50 = 30.
  push("engine.compute", 0, 'B');
  push("engine.deliver", 10, 'B');
  push("engine.deliver", 30, 'E');
  push("gather.balls", 40, 'B');
  push("gather.balls", 90, 'E');
  push("engine.compute", 100, 'E');
  // An unbalanced leftover B must be ignored, not guessed at.
  push("engine.round", 120, 'B');

  const auto cells = obs::self_times_by_cell({{5, ev}});
  ASSERT_EQ(cells.size(), 3u);
  const auto compute = cells.at({"compute", 5});
  EXPECT_EQ(compute.self_us, 30);
  EXPECT_EQ(compute.spans, 1);
  const auto deliver = cells.at({"message-exchange", 5});
  EXPECT_EQ(deliver.self_us, 20);
  EXPECT_EQ(deliver.spans, 1);
  const auto gather = cells.at({"gather", 5});
  EXPECT_EQ(gather.self_us, 50);
  EXPECT_EQ(gather.spans, 1);
}

// --- Determinism across thread counts --------------------------------------

TEST(Profile, DeterministicSliceIsByteStableAcrossThreads) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with LAD_TELEMETRY=OFF";
  for (const char* name : {"orientation", "decompress"}) {
    const std::string base = profile_run(name, 1).deterministic_json();
    EXPECT_FALSE(base.empty());
    for (const int threads : {2, 8}) {
      EXPECT_EQ(base, profile_run(name, threads).deterministic_json())
          << name << " deterministic slice drifted at " << threads << " threads";
    }
  }
}

TEST(Profile, PoolRowsAndImbalanceAtFourThreads) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with LAD_TELEMETRY=OFF";
  const auto report = profile_run("orientation", 4);
  EXPECT_GE(report.imbalance, 1.0);
  long long chunks = 0;
  for (const auto& row : report.thread_rows) chunks += row.chunks;
  EXPECT_GT(chunks, 0) << "pooled echo recorded no chunks";
  EXPECT_GT(report.trace_events, 0);
  // The markdown report names its top time sinks.
  EXPECT_NE(report.to_markdown().find("## Top time sinks"), std::string::npos);
}

// --- Warmup discipline -----------------------------------------------------

TEST(Profile, WarmupDisciplineSharedWithTimeline) {
  // `lad profile` and `lad timeline` discard exactly one warmup run before
  // the timed min-of-K loop when --reps > 1, and none for a single rep —
  // the same discipline `lad bench` uses. Pinned so a CLI refactor cannot
  // silently time the cold first run.
  EXPECT_EQ(obs::profile_warmup_runs(1), 0);
  EXPECT_EQ(obs::profile_warmup_runs(2), 1);
  EXPECT_EQ(obs::profile_warmup_runs(3), 1);
  EXPECT_EQ(obs::profile_warmup_runs(100), 1);
  EXPECT_EQ(obs::profile_warmup_runs(0), 0);
}

// --- Fingerprint -----------------------------------------------------------

TEST(Profile, FingerprintIsStableAndOrderSensitive) {
  const std::vector<std::string> parts = {"a", "b", "c"};
  const std::string h = obs::fingerprint_hex(parts);
  EXPECT_EQ(h.size(), 16u);
  EXPECT_EQ(h, obs::fingerprint_hex(parts));
  EXPECT_NE(h, obs::fingerprint_hex({"c", "b", "a"}));
  // Length folding: {"ab",""} and {"a","b"} must not collide by
  // concatenation.
  EXPECT_NE(obs::fingerprint_hex({"ab", ""}), obs::fingerprint_hex({"a", "b"}));
}

// --- JSON round-trip and diffprof ------------------------------------------

TEST(Profile, JsonRoundTripsThroughParser) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with LAD_TELEMETRY=OFF";
  const auto report = profile_run("orientation", 2);
  const std::string json = report.to_json();
  // The deterministic slice is embedded verbatim in the full document.
  EXPECT_NE(json.find(report.deterministic_json()), std::string::npos);

  const auto doc = obs::parse_profile_json(json);
  EXPECT_EQ(doc.schema_version, obs::kProfileSchemaVersion);
  EXPECT_EQ(doc.pipeline, report.id.pipeline);
  EXPECT_EQ(doc.source, report.id.source);
  EXPECT_EQ(doc.graph_digest, report.id.graph_digest);
  EXPECT_EQ(doc.n, report.id.n);
  EXPECT_EQ(doc.m, report.id.m);
  EXPECT_EQ(doc.seed, static_cast<long long>(report.id.seed));
  EXPECT_EQ(doc.decode_rounds, report.id.decode_rounds);
  EXPECT_EQ(doc.verify_ok, report.id.verify_ok);
  EXPECT_EQ(doc.output_digest, report.id.output_digest);
  EXPECT_EQ(doc.advice_bits, report.id.advice_bits);
  EXPECT_EQ(doc.engine_messages, report.id.engine_messages);
  EXPECT_EQ(doc.engine_message_bits, report.id.engine_message_bits);
  EXPECT_EQ(doc.threads, report.threads);
  ASSERT_EQ(doc.phase_allocs.size(), obs::phase_taxonomy().size());
  for (std::size_t i = 0; i < doc.phase_allocs.size(); ++i) {
    EXPECT_EQ(doc.phase_allocs[i].phase, report.phase_allocs[i].phase);
    EXPECT_EQ(doc.phase_allocs[i].allocs, report.phase_allocs[i].allocs);
    EXPECT_EQ(doc.phase_allocs[i].alloc_bytes, report.phase_allocs[i].alloc_bytes);
  }

  EXPECT_THROW(obs::parse_profile_json("{}"), std::runtime_error);
  EXPECT_THROW(obs::parse_profile_json("not json"), std::runtime_error);
}

TEST(Profile, DiffProfFollowsExitCodeConvention) {
  if (!obs::compiled_in()) GTEST_SKIP() << "built with LAD_TELEMETRY=OFF";
  const auto report = profile_run("orientation", 2);
  const auto base = obs::parse_profile_json(report.to_json());

  // Identical documents: clean, even across thread counts (threads are
  // explicitly not compared).
  obs::BenchDiffOptions tight;
  tight.tol_ms = 1.0;
  tight.tol_rel = 0.0;
  EXPECT_EQ(obs::diff_profile(base, base, tight).status(), obs::DiffStatus::kClean);
  auto other_threads = base;
  other_threads.threads = 8;
  EXPECT_EQ(obs::diff_profile(base, other_threads, tight).status(), obs::DiffStatus::kClean);

  // Deterministic drift: structural mismatch (exit 4), named field.
  auto digest_drift = base;
  digest_drift.output_digest = "0000000000000000";
  const auto mism = obs::diff_profile(base, digest_drift, tight);
  EXPECT_EQ(mism.status(), obs::DiffStatus::kMismatch);
  EXPECT_NE(mism.to_text().find("output_digest"), std::string::npos);

  auto alloc_drift = base;
  ASSERT_FALSE(alloc_drift.phase_allocs.empty());
  alloc_drift.phase_allocs[0].allocs += 1;
  EXPECT_EQ(obs::diff_profile(base, alloc_drift, tight).status(), obs::DiffStatus::kMismatch);

  // Timing drift beyond tolerance: regression (exit 3); absorbed by a
  // generous tolerance: clean.
  auto slow = base;
  slow.total_ms = base.total_ms + 1000.0;
  const auto reg = obs::diff_profile(base, slow, tight);
  EXPECT_EQ(reg.status(), obs::DiffStatus::kRegression);
  EXPECT_NE(reg.to_text().find("total_ms"), std::string::npos);
  obs::BenchDiffOptions loose;
  loose.tol_ms = 100000.0;
  EXPECT_EQ(obs::diff_profile(base, slow, loose).status(), obs::DiffStatus::kClean);
}

}  // namespace
}  // namespace lad
