// Independent output checks of the benchmark. Each one re-derives the
// property it certifies from the graph with its own scan, instead of
// trusting the library's verify() or a stored copy of an earlier output,
// so a wrong answer fails the op that produced it. selftest.cpp feeds each
// check a deliberately broken output and requires a rejection.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/campaign.hpp"
#include "faults/guarded_pipeline.hpp"
#include "graph/checkers.hpp"
#include "graph/graph.hpp"
#include "local/ball.hpp"
#include "local/gather.hpp"

namespace perfbench {

/// orient-cycle: every edge is oriented and every node has in-degree =
/// out-degree = 1 (the cycle's balanced orientation).
bool cycle_orientation_ok(const lad::Graph& g, const lad::Orientation& o);

/// A clean verification echo of `rounds` rounds certifies every node with
/// exactly rounds * 2m messages and rounds * sum_v deg(v) * |digest(v)|
/// bytes.
bool clean_echo_ok(const lad::Graph& g, const std::vector<std::string>& digests,
                   const lad::faults::EchoResult& echo, int rounds);

/// gather-torus: the gathered ball of `v` has `expected_nodes` nodes, keeps
/// the parent's IDs, is centred on `v`, and has the same nodes, distances
/// and edges as extract_ball(g, v, radius).
bool ball_ok(const lad::Graph& g, const lad::Ball& gathered, int v, int radius,
             int expected_nodes);

/// Every node has a view class, and distinct views + memo hits == n.
bool views_ok(const lad::CanonicalViews& views, int n);

/// Proper colouring with colours in [1, max_colors].
bool proper_coloring_ok(const lad::Graph& g, const std::vector<int>& colors, int max_colors);

/// Maximum degree by the benchmark's own scan.
int max_degree_scan(const lad::Graph& g);

/// Splitting: every edge red (1) or blue (2), and at every node the red and
/// blue degrees differ by at most deg(v) mod 2.
bool splitting_ok(const lad::Graph& g, const std::vector<int>& edge_color);

/// Decompressed membership equals the regenerated instance, edge for edge.
bool membership_ok(const std::vector<char>& recovered, const std::vector<char>& truth);

/// The advice stays within the pipeline's claims() ceilings (bits per node
/// and, for uniform 1-bit advice, the ones ratio).
bool advice_within_claims(const lad::PipelineAdvice& adv, int n, const lad::PipelineClaims& c);

/// faults-cycle: a guarded orientation outcome on the faulted graph `g`
/// (report finalized). Rejects a silent corruption (an unbalanced node and
/// no detection), an outcome that claims a valid output while the
/// benchmark's scan finds an unbalanced node outside the flagged scope, and
/// an outcome that leaves a node outside every degradation bucket.
bool faulted_orientation_ok(const lad::Graph& g, const lad::faults::GuardedOutcome& out);

/// 64-bit FNV-1a over bytes, for comparing outputs across ops and thread
/// counts.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h = kFnvBasis);
std::uint64_t digest_strings(const std::vector<std::string>& v, std::uint64_t h = kFnvBasis);

/// Length-prefixed FNV-1a over a contiguous range of trivially copyable
/// elements (a vector or a span).
template <typename Range>
std::uint64_t digest_range(const Range& r, std::uint64_t h = kFnvBasis) {
  const std::uint64_t len = std::size(r);
  h = fnv1a(&len, sizeof len, h);
  return fnv1a(std::data(r), std::size(r) * sizeof(*std::data(r)), h);
}

}  // namespace perfbench
