// Seeded fault campaigns: the experiment harness of the robustness layer.
//
// A campaign fixes a decoder, a graph family, and a FaultPlan template, and
// runs `trials` independent decodes, each under a per-trial derived fault
// seed mixing all three fault layers:
//
//   encode on the pristine graph
//     -> graph faults   (edge deletions: the advice is now stale)
//     -> advice faults  (bit flips / erasure / byzantine / truncation)
//     -> guarded decode + local repair   (src/faults/robust.hpp)
//     -> engine faults  (a distributed verification echo runs under the
//        HashedEngineFaults model; nodes that crash or miss messages
//        cannot certify and are counted as rejecting)
//     -> central ground-truth check (silent-corruption verdict)
//
// Everything is a pure function of (config, trial index): re-running a
// campaign reproduces every report byte-for-byte, which the determinism
// regression test and the CLI golden test rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "core/subexp_lcl.hpp"
#include "faults/fault_plan.hpp"
#include "faults/robust.hpp"
#include "graph/graph.hpp"
#include "local/engine.hpp"

namespace lad {
class ThreadPool;  // util/thread_pool.hpp
}

namespace lad::faults {

/// The campaign's decoder selector IS the pipeline registry id now — the
/// per-decoder encode/decode/digest switches this file used to carry all
/// live behind core/pipeline.hpp + faults/guarded_pipeline.hpp. The alias
/// (same enumerator names) keeps every existing DecoderKind user compiling.
using DecoderKind = ::lad::PipelineId;

const char* to_string(DecoderKind kind);
std::optional<DecoderKind> parse_decoder(std::string_view name);
std::vector<DecoderKind> all_decoders();

enum class GraphFamily { kCycle, kGrid, kTorus };

const char* to_string(GraphFamily family);
std::optional<GraphFamily> parse_family(std::string_view name);

/// The standard mixed adversary: a little of every fault layer. The plan's
/// seed field is ignored by campaigns (each trial derives its own).
FaultPlan default_mixed_plan();

struct CampaignConfig {
  DecoderKind decoder = DecoderKind::kOrientation;
  GraphFamily family = GraphFamily::kCycle;
  int n = 400;       // target node count (rounded to the family's grid)
  int trials = 100;
  std::uint64_t seed = 1;
  FaultPlan plan = default_mixed_plan();
  robust::RepairPolicy policy;
  /// §4 scale knob (kSubexpLcl only); campaigns keep x modest.
  SubexpLclParams subexp;
  /// Rounds of the engine-layer verification echo (>= 2 so that a single
  /// corrupted copy is caught by cross-round comparison).
  int echo_rounds = 3;
  /// Trials run on a ThreadPool of this many workers (1 = serial). Every
  /// trial is a pure function of (config, trial index) and reports are
  /// folded in trial order, so the summary is byte-identical at any count.
  int threads = 1;
};

struct CampaignSummary {
  DecoderKind decoder = DecoderKind::kOrientation;
  /// Family actually used (splitting substitutes torus for grid: it needs
  /// even degrees).
  GraphFamily family = GraphFamily::kCycle;
  int n = 0;
  int m = 0;
  int trials = 0;

  long long faults_injected = 0;
  int trials_degraded = 0;     // at least one detection / repair / flag
  int trials_output_valid = 0; // final output passed the independent check
  int trials_flagged = 0;      // at least one node flagged unservable
  int trials_residual = 0;     // violations outside the flagged scope
  int silent_corruptions = 0;  // MUST stay 0: the guarantee of the layer
  int max_blast_radius = 0;
  long long total_detected = 0;
  long long total_repaired_nodes = 0;
  long long total_flagged_nodes = 0;

  // Degradation aggregates (DESIGN.md §11), folded from the per-trial
  // DegradationSummary. Not part of to_string() — the chaos layer renders
  // them; the legacy aggregate rendering (and its goldens) is unchanged.
  long long total_degraded_nodes = 0;
  long long total_repair_retries = 0;
  long long total_budget_exhausted = 0;
  long long total_deadline_exhausted = 0;
  /// True iff every trial's DegradeStatus buckets sum to n — the
  /// "every non-verified node is accounted for" acceptance criterion.
  bool all_nodes_accounted = true;

  /// Per-trial reports, in trial order (trial i used fault seed
  /// hash2(config.seed, i)).
  std::vector<robust::RobustnessReport> reports;

  /// Deterministic aggregate rendering (reports excluded).
  std::string to_string() const;
};

/// Runs the campaign described by `config`. Deterministic.
CampaignSummary run_fault_campaign(const CampaignConfig& config);

/// The family instance a campaign uses for (decoder, family, n) — exposed
/// so `lad trace` exercises the exact graphs the campaigns exercise.
/// `family` is passed by reference because splitting substitutes torus for
/// grid (it needs even degrees).
Graph build_campaign_graph(DecoderKind decoder, GraphFamily& family, int n);

/// Outcome of a distributed verification echo (digest broadcast +
/// cross-round comparison; see EchoVerify).
struct EchoResult {
  /// Nodes that could not certify their neighbors' digests, ascending.
  std::vector<int> unverified_nodes;
  long long messages = 0;
  long long bytes = 0;
  int rounds = 0;
  long long dropped = 0;
  long long corrupted = 0;
  long long duplicated = 0;
  long long delayed = 0;
  int crashed = 0;
  int recovered = 0;
};

/// Distributed verification echo: every node broadcasts its output digest
/// for `rounds` rounds; a receiver that misses a copy (drop / crashed
/// neighbor) or sees differing copies (corruption) cannot certify and
/// outputs "unverified". Crashed nodes never halt at all. Run it for
/// `rounds + 2` rounds.
class EchoVerify final : public SyncAlgorithm {
 public:
  /// `digests` (one per node) is held by reference and must outlive the run.
  EchoVerify(const std::vector<std::string>& digests, int rounds)
      : digests_(digests), rounds_(rounds) {}
  EchoVerify(std::vector<std::string>&& digests, int rounds) = delete;
  EchoVerify(const EchoVerify&) = delete;
  EchoVerify& operator=(const EchoVerify&) = delete;
  ~EchoVerify() override { release_all(); }

  void init(const Graph& g) override;
  void round(NodeCtx& ctx) override;
  void on_recover(const Graph& g, int v) override;

 private:
  // What one port has seen: how many copies arrived and the first of
  // them, up to 8 bytes inline and longer ones in an owned heap block.
  // All-zero is the blank state, so a run's state is one flat fill.
  struct PortState {
    std::uint32_t copies = 0;
    std::uint32_t len = 0;
    union {
      char bytes[8];
      char* heap;
    };

    std::string_view first() const { return {len <= sizeof bytes ? bytes : heap, len}; }
  };

  void keep_first(PortState& ps, std::string_view m);
  void release_node(int v);
  void release_all();

  const std::vector<std::string>& digests_;
  int rounds_;
  std::span<const int> off_;       // node v's port p is slot off_[v] + p
  std::vector<PortState> ports_;   // per slot
  std::vector<char> ok_;           // per node: no corrupted or missing copy
  std::vector<char> owns_heap_;    // per node: some port's first copy is on the heap
};

/// Runs the verification echo on g: every node broadcasts its digest for
/// `echo_rounds` rounds and certifies only if every neighbor copy arrived
/// intact. `faults` optionally subjects the echo to an engine fault model.
/// This is the campaign's engine-fault stage and `lad trace`'s source of
/// genuine message/bit traffic for the decode-side metrics. `pool`
/// optionally fans the echo's compute phase over a thread pool (byte-
/// identical results per the §8 contract; `lad profile` uses this to
/// exercise real multi-threaded engine traffic).
EchoResult run_verification_echo(const Graph& g, const std::vector<std::string>& digests,
                                 int echo_rounds, const EngineFaultModel* faults = nullptr,
                                 ThreadPool* pool = nullptr);

}  // namespace lad::faults
