#include "workloads.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "checks.hpp"
#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "faults/guarded_pipeline.hpp"
#include "graph/source.hpp"
#include "local/ball.hpp"
#include "local/gather.hpp"
#include "util/hashing.hpp"

namespace perfbench {

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::begin(const char* name) {
  if (!on_ || std::this_thread::get_id() != owner_) return;
  stack_.push_back({name, Clock::now(), 0.0});
}

void Tracer::end() {
  if (!on_ || std::this_thread::get_id() != owner_ || stack_.empty()) return;
  const Open top = stack_.back();
  stack_.pop_back();
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() - top.start).count();
  self_ms_[top.name] += ms - top.child_ms;
  if (!stack_.empty()) stack_.back().child_ms += ms;
}

namespace {

using lad::Graph;
using lad::ThreadPool;

constexpr int kEchoRounds = 3;

Graph load(const std::string& spec, std::uint64_t seed) {
  std::string error;
  auto loaded = lad::load_graph_source(spec, &error, seed);
  if (!loaded.has_value()) throw std::runtime_error(error);
  return std::move(loaded->graph);
}

// orient-cycle: the paper's decode-many side on the ROADMAP anchor graph.
// The advice is encoded once in set-up; each op decodes, verifies, computes
// the node digests and certifies them with a 3-round verification echo.
class OrientCycle final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    {
      Span s("graph.build");
      g_ = load("cycle:262144", seed);
    }
    Span s("core.encode");
    adv_ = p_.encode(g_, cfg_);
  }

  void run(ThreadPool* pool) override {
    {
      Span s("core.decode");
      out_ = p_.decode(g_, adv_, cfg_);
    }
    {
      Span s("core.verify");
      verified_ = p_.verify(g_, out_, cfg_);
    }
    {
      Span s("core.digest");
      digests_ = p_.node_digests(g_, out_);
    }
    Span s("local.echo");
    echo_ = lad::faults::run_verification_echo(g_, digests_, kEchoRounds, nullptr, pool);
  }

  Checked check() const override {
    Checked c;
    c.ok = verified_ && cycle_orientation_ok(g_, out_.orientation) &&
           clean_echo_ok(g_, digests_, echo_, kEchoRounds);
    c.digest = digest_strings(digests_, digest_range(out_.orientation));
    c.counts["local.echo_messages"] = static_cast<double>(echo_.messages);
    c.counts["local.echo_bytes"] = static_cast<double>(echo_.bytes);
    return c;
  }

  long long nodes_per_op() const override { return g_.n(); }
  std::vector<std::string> pooled_layers() const override { return {"local.echo"}; }

 private:
  const lad::Pipeline& p_ = lad::pipeline(lad::PipelineId::kOrientation);
  lad::PipelineConfig cfg_;
  Graph g_;
  lad::PipelineAdvice adv_;
  lad::PipelineOutput out_;
  bool verified_ = false;
  std::vector<std::string> digests_;
  lad::faults::EchoResult echo_;
};

// gather-torus: few nodes with large, growing payloads on the engine, plus
// canonicalization of every radius-3 view.
class GatherTorus final : public Workload {
 public:
  static constexpr int kRadius = 3;
  static constexpr int kBallNodes = 25;  // 1 + 4 + 8 + 12 on a torus

  void setup(std::uint64_t seed) override {
    Span s("graph.build");
    g_ = load("torus:64x64", seed);
  }

  void run(ThreadPool* pool) override {
    {
      Span s("local.gather");
      balls_ = pool != nullptr ? lad::gather_balls_by_messages(g_, kRadius, *pool)
                               : lad::gather_balls_by_messages(g_, kRadius);
    }
    Span s("local.views");
    views_ = lad::gather_canonical_views(g_, kRadius, {}, pool);
  }

  Checked check() const override {
    Checked c;
    c.ok = static_cast<int>(balls_.size()) == g_.n() && views_ok(views_, g_.n());
    std::uint64_t h = kFnvBasis;
    for (int v = 0; c.ok && v < g_.n(); ++v) {
      const lad::Ball& b = balls_[static_cast<std::size_t>(v)];
      c.ok = ball_ok(g_, b, v, kRadius, kBallNodes);
      h = digest_range(b.to_parent, h);
      h = digest_range(b.dist, h);
      h = digest_range(b.graph.raw_edge_u(), h);
      h = digest_range(b.graph.raw_edge_v(), h);
    }
    h = digest_range(views_.view_class, h);
    c.digest = digest_strings(views_.key, h);
    c.counts["local.memo_hits"] = static_cast<double>(views_.memo_hits);
    c.counts["local.view_nodes"] = static_cast<double>(views_.view_class.size());
    return c;
  }

  long long nodes_per_op() const override { return g_.n(); }
  std::vector<std::string> pooled_layers() const override {
    return {"local.gather", "local.views"};
  }

 private:
  Graph g_;
  std::vector<lad::Ball> balls_;
  lad::CanonicalViews views_;
};

// prove-batch: the write side and the centralized decoders, with no engine
// call at all — the control for engine and pool-round changes. Each op
// builds fresh seeded instances and takes them through encode -> decode ->
// verify -> digests; the 4-thread variant fans the instances over the pool.
// An instance's cost depends on its seed (three_coloring most), so each op
// takes several instances per pipeline to keep the op time steady across
// run seeds.
class ProveBatch final : public Workload {
 public:
  static constexpr int kNodes = 4096;
  static constexpr int kInstancesPerPipeline = 3;

  ProveBatch() {
    for (int r = 0; r < kInstancesPerPipeline; ++r) {
      for (const char* name : {"three_coloring", "delta_coloring", "splitting", "decompress"}) {
        Instance in;
        in.p = lad::find_pipeline(name);
        if (in.p == nullptr) throw std::logic_error(std::string("no pipeline ") + name);
        in.encode_span = std::string("core.encode.") + name;
        in.decode_span = std::string("core.decode.") + name;
        inst_.push_back(std::move(in));
      }
    }
  }

  void setup(std::uint64_t seed) override {
    for (std::size_t i = 0; i < inst_.size(); ++i) {
      Instance& in = inst_[i];
      in.seed = lad::hash2(seed, 0x9b00 + i);
      in.cfg.seed = in.seed;
      {
        Span s("graph.build");
        in.g = in.p->make_instance(kNodes, in.seed);
      }
      Span s(in.encode_span.c_str());
      in.adv = in.p->encode(in.g, in.cfg);
    }
  }

  void run(ThreadPool* pool) override {
    if (pool != nullptr) {
      pool->for_each(static_cast<int>(inst_.size()),
                     [this](int i) { prove(inst_[static_cast<std::size_t>(i)]); });
    } else {
      for (Instance& in : inst_) prove(in);
    }
  }

  Checked check() const override {
    Checked c;
    std::uint64_t h = kFnvBasis;
    for (const Instance& in : inst_) {
      const Graph& g = in.g;
      bool ok = in.verified && advice_within_claims(in.adv, g.n(), in.p->claims());
      switch (in.p->id()) {
        case lad::PipelineId::kThreeColoring:
          ok = ok && proper_coloring_ok(g, in.out.node_color, 3);
          break;
        case lad::PipelineId::kDeltaColoring:
          ok = ok && proper_coloring_ok(g, in.out.node_color, max_degree_scan(g));
          break;
        case lad::PipelineId::kSplitting:
          ok = ok && splitting_ok(g, in.out.edge_color);
          break;
        case lad::PipelineId::kDecompress:
          ok = ok && membership_ok(in.out.edge_in_x, lad::hashed_edge_membership(
                                                         g, in.cfg.seed, in.cfg.decompress_density));
          break;
        default:
          ok = false;
      }
      c.ok = c.ok && ok;
      h = digest_strings(in.digests, h);
    }
    c.digest = h;
    return c;
  }

  long long nodes_per_op() const override {
    long long n = 0;
    for (const Instance& in : inst_) n += in.g.n();
    return n;
  }
  // The whole op is the pooled unit.
  std::vector<std::string> pooled_layers() const override { return {}; }

 private:
  struct Instance {
    const lad::Pipeline* p = nullptr;
    std::string encode_span;
    std::string decode_span;
    std::uint64_t seed = 0;
    lad::PipelineConfig cfg;
    Graph g;
    lad::PipelineAdvice adv;
    lad::PipelineOutput out;
    bool verified = false;
    std::vector<std::string> digests;
  };

  static void prove(Instance& in) {
    {
      Span s("graph.build");
      in.g = in.p->make_instance(kNodes, in.seed);
    }
    {
      Span s(in.encode_span.c_str());
      in.adv = in.p->encode(in.g, in.cfg);
    }
    {
      Span s(in.decode_span.c_str());
      in.out = in.p->decode(in.g, in.adv, in.cfg);
    }
    {
      Span s("core.verify");
      in.verified = in.p->verify(in.g, in.out, in.cfg);
    }
    Span s("core.digest");
    in.digests = in.p->node_digests(in.g, in.out);
  }

  std::vector<Instance> inst_;
};

// faults-cycle: the fault layer's repair ladder and the engine's faulted
// delivery path. Advice is encoded in set-up; each op replays the same
// seeded adversary, decodes with repair and echoes under engine faults.
class FaultsCycle final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    {
      Span s("graph.build");
      g0_ = load("cycle:32768", seed);
    }
    plan_ = lad::faults::default_mixed_plan();
    plan_.seed = lad::hash2(seed, 0xfa17);
    Span s("core.encode");
    base_adv_ = gp_.encode(g0_, cfg_);
  }

  void run(ThreadPool* pool) override {
    {
      Span s("faults.inject");
      inj_.emplace(plan_);
      g_ = inj_->apply_graph_faults(g0_);
      adv_ = base_adv_;
      lad::faults::corrupt_pipeline_advice(*inj_, g_, adv_);
    }
    {
      Span s("faults.guarded_decode");
      out_ = gp_.decode_guarded(g_, adv_, cfg_, policy_);
    }
    {
      Span s("faults.silent_check");
      silent_ = gp_.silent_corruption(g_, out_, cfg_);
    }
    {
      Span s("core.digest");
      digests_ = gp_.base().node_digests(g_, out_.output);
    }
    Span s("local.echo");
    echo_ = lad::faults::run_verification_echo(g_, digests_, kEchoRounds, &inj_->engine_faults(),
                                               pool);
  }

  Checked check() const override {
    // Fold the echo's rejections in and assign every node its degradation
    // bucket, as a fault campaign trial does.
    lad::faults::GuardedOutcome acc = out_;
    auto& rep = acc.report;
    rep.detected_violations += static_cast<long long>(echo_.unverified_nodes.size());
    std::vector<int> rejecting = rep.rejecting_nodes;
    rejecting.insert(rejecting.end(), echo_.unverified_nodes.begin(), echo_.unverified_nodes.end());
    std::sort(rejecting.begin(), rejecting.end());
    rejecting.erase(std::unique(rejecting.begin(), rejecting.end()), rejecting.end());
    rep.rejecting_nodes = std::move(rejecting);
    rep.finalize_degradation(g_.n());

    Checked c;
    c.ok = !silent_ && faulted_orientation_ok(g_, acc);
    std::uint64_t h = digest_range(acc.output.orientation);
    h = digest_range(echo_.unverified_nodes, h);
    c.digest = digest_strings(digests_, h);
    long long advice_faults = 0;
    long long graph_faults = 0;
    for (const auto& ev : inj_->events()) {
      if (ev.layer == lad::faults::FaultLayer::kAdvice) ++advice_faults;
      if (ev.layer == lad::faults::FaultLayer::kGraph) ++graph_faults;
    }
    c.counts["faults.advice_faults"] = static_cast<double>(advice_faults);
    c.counts["faults.graph_faults"] = static_cast<double>(graph_faults);
    c.counts["faults.engine_faults"] =
        static_cast<double>(echo_.dropped + echo_.corrupted + echo_.crashed);
    c.counts["faults.detected"] = static_cast<double>(rep.detected_violations);
    c.counts["faults.repaired_nodes"] = static_cast<double>(rep.repaired_nodes.size());
    c.counts["faults.flagged_nodes"] = static_cast<double>(rep.flagged_nodes.size());
    c.counts["faults.unverified_nodes"] = static_cast<double>(echo_.unverified_nodes.size());
    c.counts["local.echo_messages"] = static_cast<double>(echo_.messages);
    c.counts["local.echo_bytes"] = static_cast<double>(echo_.bytes);
    return c;
  }

  long long nodes_per_op() const override { return g0_.n(); }
  std::vector<std::string> pooled_layers() const override { return {"local.echo"}; }

 private:
  const lad::faults::GuardedPipeline& gp_ =
      lad::faults::guarded_pipeline(lad::PipelineId::kOrientation);
  lad::PipelineConfig cfg_;
  lad::robust::RepairPolicy policy_;
  lad::faults::FaultPlan plan_;
  Graph g0_;
  lad::PipelineAdvice base_adv_;
  std::optional<lad::faults::FaultInjector> inj_;
  Graph g_;
  lad::PipelineAdvice adv_;
  lad::faults::GuardedOutcome out_;
  bool silent_ = false;
  std::vector<std::string> digests_;
  lad::faults::EchoResult echo_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"orient-cycle", "gather-torus", "prove-batch",
                                                 "faults-cycle"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "orient-cycle") return std::make_unique<OrientCycle>();
  if (name == "gather-torus") return std::make_unique<GatherTorus>();
  if (name == "prove-batch") return std::make_unique<ProveBatch>();
  if (name == "faults-cycle") return std::make_unique<FaultsCycle>();
  return nullptr;
}

}  // namespace perfbench
