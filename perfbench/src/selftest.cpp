// Self-test of the benchmark's checks: each check must accept a real output
// of the library and reject the same output with one deliberate defect.
// Exits 0 iff every case behaves; prints one line per case.
#include <iostream>
#include <string>

#include "checks.hpp"
#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "faults/guarded_pipeline.hpp"
#include "graph/source.hpp"
#include "local/gather.hpp"

namespace {

using namespace perfbench;
using lad::Graph;

int failures = 0;

void expect(const std::string& name, bool accepts_real, bool rejects_broken) {
  const bool pass = accepts_real && rejects_broken;
  if (!pass) ++failures;
  std::cout << (pass ? "ok   " : "FAIL ") << name << " (real output "
            << (accepts_real ? "accepted" : "REJECTED") << ", broken output "
            << (rejects_broken ? "rejected" : "ACCEPTED") << ")\n";
}

Graph load(const std::string& spec) {
  std::string error;
  auto g = lad::load_graph_source(spec, &error, 7);
  if (!g.has_value()) throw std::runtime_error(error);
  return std::move(g->graph);
}

lad::EdgeDir reversed(lad::EdgeDir d) {
  return d == lad::EdgeDir::kForward ? lad::EdgeDir::kBackward : lad::EdgeDir::kForward;
}

void orientation_cases() {
  const Graph g = load("cycle:1024");
  const lad::Pipeline& p = lad::pipeline(lad::PipelineId::kOrientation);
  const lad::PipelineConfig cfg;
  const lad::PipelineOutput out = p.decode(g, p.encode(g, cfg), cfg);
  lad::Orientation broken = out.orientation;
  broken[17] = reversed(broken[17]);
  expect("orient-cycle: one reversed edge", cycle_orientation_ok(g, out.orientation),
         !cycle_orientation_ok(g, broken));

  const auto digests = p.node_digests(g, out);
  const auto echo = lad::faults::run_verification_echo(g, digests, 3);
  auto short_echo = echo;
  short_echo.bytes -= 1;
  expect("orient-cycle: echo one byte short", clean_echo_ok(g, digests, echo, 3),
         !clean_echo_ok(g, digests, short_echo, 3));
}

void coloring_cases() {
  for (const char* name : {"three_coloring", "delta_coloring"}) {
    const lad::Pipeline& p = *lad::find_pipeline(name);
    const Graph g = p.make_instance(256, 3);
    lad::PipelineConfig cfg;
    cfg.seed = 3;
    const auto out = p.decode(g, p.encode(g, cfg), cfg);
    const int k = std::string(name) == "three_coloring" ? 3 : max_degree_scan(g);
    auto broken = out.node_color;
    const int v = g.edge_u(5);
    broken[static_cast<std::size_t>(v)] = broken[static_cast<std::size_t>(g.edge_v(5))];
    expect(std::string("prove-batch: ") + name + " one recoloured node",
           proper_coloring_ok(g, out.node_color, k), !proper_coloring_ok(g, broken, k));
  }
}

void splitting_and_membership_cases() {
  {
    const lad::Pipeline& p = lad::pipeline(lad::PipelineId::kSplitting);
    const Graph g = p.make_instance(256, 3);
    const lad::PipelineConfig cfg;
    const auto adv = p.encode(g, cfg);
    const auto out = p.decode(g, adv, cfg);
    auto broken = out.edge_color;
    broken[9] = 3 - broken[9];
    expect("prove-batch: splitting one recoloured edge", splitting_ok(g, out.edge_color),
           !splitting_ok(g, broken));
    auto all_ones = adv;
    std::fill(all_ones.bits.begin(), all_ones.bits.end(), 1);
    expect("prove-batch: advice over the ones-ratio ceiling",
           advice_within_claims(adv, g.n(), p.claims()),
           !advice_within_claims(all_ones, g.n(), p.claims()));
  }
  const lad::Pipeline& p = lad::pipeline(lad::PipelineId::kDecompress);
  const Graph g = p.make_instance(256, 3);
  lad::PipelineConfig cfg;
  cfg.seed = 3;
  const auto out = p.decode(g, p.encode(g, cfg), cfg);
  const auto truth = lad::hashed_edge_membership(g, cfg.seed, cfg.decompress_density);
  auto broken = out.edge_in_x;
  broken[11] = broken[11] != 0 ? 0 : 1;
  expect("prove-batch: decompress one flipped membership bit", membership_ok(out.edge_in_x, truth),
         !membership_ok(broken, truth));
}

void gather_cases() {
  const Graph g = load("torus:16x16");
  const auto balls = lad::gather_balls_by_messages(g, 3);
  const int v = 40;
  const lad::Ball& b = balls[static_cast<std::size_t>(v)];
  // Drop one boundary node (distance 3) and its edges.
  int drop = -1;
  for (int i = 0; i < b.graph.n(); ++i) {
    if (b.dist[static_cast<std::size_t>(i)] == 3) drop = i;
  }
  lad::Ball broken;
  broken.radius = b.radius;
  lad::Graph::Builder builder;
  std::vector<int> remap(static_cast<std::size_t>(b.graph.n()), -1);
  for (int i = 0; i < b.graph.n(); ++i) {
    if (i == drop) continue;
    remap[static_cast<std::size_t>(i)] = builder.add_node(b.graph.id(i));
    broken.to_parent.push_back(b.to_parent[static_cast<std::size_t>(i)]);
    broken.dist.push_back(b.dist[static_cast<std::size_t>(i)]);
  }
  for (int e = 0; e < b.graph.m(); ++e) {
    const int x = remap[static_cast<std::size_t>(b.graph.edge_u(e))];
    const int y = remap[static_cast<std::size_t>(b.graph.edge_v(e))];
    if (x >= 0 && y >= 0) builder.add_edge(x, y);
  }
  broken.graph = std::move(builder).build();
  broken.center = remap[static_cast<std::size_t>(b.center)];
  // The size check alone would catch it; require the comparison with
  // extract_ball to catch it too.
  expect("gather-torus: one dropped ball node", ball_ok(g, b, v, 3, 25),
         !ball_ok(g, broken, v, 3, 25) && !ball_ok(g, broken, v, 3, 24));

  const auto views = lad::gather_canonical_views(g, 3);
  auto short_views = views;
  short_views.memo_hits -= 1;
  expect("gather-torus: memo hits miscounted", views_ok(views, g.n()),
         !views_ok(short_views, g.n()));
}

void faults_cases() {
  const Graph g0 = load("cycle:2048");
  const auto& gp = lad::faults::guarded_pipeline(lad::PipelineId::kOrientation);
  const lad::PipelineConfig cfg;
  auto plan = lad::faults::default_mixed_plan();
  plan.seed = 11;
  lad::faults::FaultInjector inj(plan);
  const Graph g = inj.apply_graph_faults(g0);
  auto adv = gp.encode(g0, cfg);
  lad::faults::corrupt_pipeline_advice(inj, g, adv);
  auto out = gp.decode_guarded(g, adv, cfg, {});
  out.report.finalize_degradation(g.n());

  // Forge: break the balance at a node the guarded decoder did not flag,
  // then claim a clean, valid outcome.
  auto forged = out;
  int e = 0;
  while (e < g.m() && (g.degree(g.edge_u(e)) != 2 || g.degree(g.edge_v(e)) != 2)) ++e;
  forged.output.orientation[static_cast<std::size_t>(e)] =
      reversed(forged.output.orientation[static_cast<std::size_t>(e)]);
  auto& rep = forged.report;
  rep.output_valid = true;
  rep.detected_violations = 0;
  rep.rejecting_nodes.clear();
  rep.repaired_nodes.clear();
  rep.degraded_nodes.clear();
  rep.flagged_nodes.clear();
  rep.regions.clear();
  rep.finalize_degradation(g.n());
  expect("faults-cycle: forged valid faulted outcome", faulted_orientation_ok(g, out),
         !faulted_orientation_ok(g, forged));

  auto unaccounted = out;
  unaccounted.report.node_status.pop_back();
  expect("faults-cycle: node outside every degradation bucket", faulted_orientation_ok(g, out),
         !faulted_orientation_ok(g, unaccounted));
}

}  // namespace

int main() {
  try {
    orientation_cases();
    coloring_cases();
    splitting_and_membership_cases();
    gather_cases();
    faults_cases();
  } catch (const std::exception& e) {
    std::cout << "FAIL self-test threw: " << e.what() << "\n";
    return 1;
  }
  std::cout << (failures == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return failures == 0 ? 0 : 1;
}
