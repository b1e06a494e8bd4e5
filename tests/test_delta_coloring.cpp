#include <gtest/gtest.h>

#include <string>

#include "advice/advice.hpp"
#include "core/delta_coloring.hpp"
#include "graph/checkers.hpp"
#include "graph/generators.hpp"
#include "util/hashing.hpp"

namespace lad {
namespace {

void round_trip(const Graph& g, const std::vector<int>& witness,
                const DeltaColoringParams& params = {}) {
  const int delta = g.max_degree();
  const auto enc = encode_delta_coloring_advice(g, witness, params);
  const auto dec = decode_delta_coloring(g, enc.advice, params);
  EXPECT_TRUE(is_proper_coloring(g, dec.coloring, delta))
      << "Δ=" << delta << " n=" << g.n();
}

TEST(DeltaColoring, PlantedDelta4) {
  const auto pc = make_planted_colorable(400, 4, 3.0, 4, 1);
  round_trip(pc.graph, pc.coloring);
}

TEST(DeltaColoring, PlantedDelta5) {
  const auto pc = make_planted_colorable(400, 5, 3.5, 5, 2);
  round_trip(pc.graph, pc.coloring);
}

TEST(DeltaColoring, PlantedDelta6) {
  const auto pc = make_planted_colorable(300, 6, 4.0, 6, 3);
  round_trip(pc.graph, pc.coloring);
}

TEST(DeltaColoring, EvenCycleIsTwoColorable) {
  // Δ = 2, 2-colorable: the pipeline must produce a proper 2-coloring.
  const Graph g = make_cycle(64, IdMode::kRandomDense, 4);
  std::vector<int> witness(64);
  for (int v = 0; v < 64; ++v) witness[v] = 1 + v % 2;
  round_trip(g, witness);
}

TEST(DeltaColoring, GridIsFourColorableWithDeltaFour) {
  const Graph g = make_grid(15, 15, IdMode::kRandomDense, 5);
  std::vector<int> witness(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) witness[v] = 1 + ((v % 15) + (v / 15)) % 2;
  round_trip(g, witness);
}

TEST(DeltaColoring, RejectsBadWitness) {
  const auto pc = make_planted_colorable(50, 4, 2.0, 4, 6);
  std::vector<int> bad(50, 1);
  EXPECT_THROW(encode_delta_coloring_advice(pc.graph, bad), ContractViolation);
}

TEST(DeltaColoring, AdviceIsSparseVariableLength) {
  const auto pc = make_planted_colorable(500, 4, 3.0, 4, 7);
  const auto enc = encode_delta_coloring_advice(pc.graph, pc.coloring);
  // Storage nodes are a strict minority (the schema is variable-length on a
  // sparse set of holders).
  EXPECT_LT(static_cast<int>(enc.advice.size()), pc.graph.n() / 2);
  EXPECT_GT(enc.num_clusters, 0);
}

TEST(DeltaColoring, RoundsIndependentOfN) {
  DeltaColoringParams params;
  const auto a = make_planted_colorable(300, 4, 3.0, 4, 8);
  const auto b = make_planted_colorable(1200, 4, 3.0, 4, 9);
  const auto ea = encode_delta_coloring_advice(a.graph, a.coloring, params);
  const auto eb = encode_delta_coloring_advice(b.graph, b.coloring, params);
  const int ra = decode_delta_coloring(a.graph, ea.advice, params).rounds;
  const int rb = decode_delta_coloring(b.graph, eb.advice, params).rounds;
  // Rounds depend on cluster radii and palette sizes (functions of Δ and
  // the parameters), not on n; allow slack for Linial iteration counts.
  EXPECT_LE(std::abs(ra - rb), ra / 2 + 16);
}

TEST(DeltaColoring, UniformOneBitOnRoomyGraph) {
  // A long circular ladder (Δ = 3, diameter ~ m/2) has plenty of room for
  // the geodesic path encoding of the composed schema. The bipartition is a
  // valid Δ-coloring witness (2 <= 3 colors).
  const int m = 6000;
  const Graph g = make_circular_ladder(m, IdMode::kRandomDense, 10);
  ASSERT_TRUE(is_bipartite(g));
  std::vector<int> witness(static_cast<std::size_t>(g.n()));
  for (int i = 0; i < m; ++i) {
    witness[i] = 1 + i % 2;          // outer ring
    witness[m + i] = 2 - i % 2;      // inner ring, opposite parity
  }
  DeltaColoringParams params;
  params.uniform_one_bit = true;
  params.cluster_spacing = 400;
  params.repair_radius = 3;
  params.max_repair_radius = 8;
  const auto enc = encode_delta_coloring_advice(g, witness, params);
  ASSERT_FALSE(enc.uniform_bits.empty());
  const auto stats = advice_stats(advice_from_bits(enc.uniform_bits));
  EXPECT_TRUE(stats.uniform_one_bit);
  const auto dec =
      decode_delta_coloring_one_bit(g, enc.uniform_bits, enc.uniform_max_payload_bits, params);
  EXPECT_TRUE(is_proper_coloring(g, dec.coloring, 3));
}

class DeltaSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DeltaSweep, PlantedFamilies) {
  const auto [delta, seed] = GetParam();
  const auto pc = make_planted_colorable(350, delta, delta * 0.7, delta, seed);
  round_trip(pc.graph, pc.coloring);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeltaSweep,
                         ::testing::Combine(::testing::Values(4, 5, 6, 8),
                                            ::testing::Values(31, 32, 33)));

// Byte-identity pins: the packed advice, the decoded coloring and the round
// and repair counts of each instance fold into one splitmix64 digest. The
// expected values were recorded before the traversal primitives became
// output-sensitive; any change to them is a change of output.
struct PinnedCase {
  const char* family;
  int size;
  std::uint64_t seed;
  std::uint64_t digest;
};

TEST(DeltaColoring, PinnedDigests) {
  const PinnedCase cases[] = {
      {"grid", 16, 1, 0x38c041c4538b56eeULL},
      {"grid", 16, 2, 0x99135c92c6c13812ULL},
      {"grid", 16, 3, 0x6f460b261607dafcULL},
      {"grid", 48, 1, 0xfd905f10a2ccfdfeULL},
      {"grid", 48, 2, 0xe4315de8c41a5a10ULL},
      {"grid", 48, 3, 0x5133f1c9dc2aeb58ULL},
      {"ladder", 100, 1, 0xd9ac903df066dff1ULL},
      {"ladder", 100, 2, 0xb42345b01eb076a4ULL},
      {"ladder", 100, 3, 0x369697a75f27695fULL},
      {"ladder", 600, 1, 0x8a0b2f4c14c17d1eULL},
      {"ladder", 600, 2, 0xe74f2148c0349ec2ULL},
      {"ladder", 600, 3, 0xf490d610904e51fdULL},
      {"planted", 300, 1, 0x3a4da875aa1c4f5eULL},
      {"planted", 300, 2, 0x9036e480244977c0ULL},
      {"planted", 300, 3, 0x21aaee93d17dbd56ULL},
      {"planted", 900, 1, 0x807efc5cd3a013dfULL},
      {"planted", 900, 2, 0x6cebaa0c208ae6d4ULL},
      {"planted", 900, 3, 0xa96264a11d232cc1ULL},
  };
  int repaired_instances = 0;
  for (const auto& c : cases) {
    const std::string family = c.family;
    Graph g;
    std::vector<int> witness;
    if (family == "grid") {
      g = make_grid(c.size, c.size, IdMode::kRandomDense, c.seed);
      for (int v = 0; v < g.n(); ++v) witness.push_back(1 + ((v % c.size) + (v / c.size)) % 2);
    } else if (family == "ladder") {
      g = make_circular_ladder(c.size, IdMode::kRandomDense, c.seed);
      for (int i = 0; i < c.size; ++i) witness.push_back(1 + i % 2);
      for (int i = 0; i < c.size; ++i) witness.push_back(2 - i % 2);
    } else {
      auto pc = make_planted_colorable(c.size, 4, 3.0, 4, c.seed);
      g = std::move(pc.graph);
      witness = std::move(pc.coloring);
    }
    const auto enc = encode_delta_coloring_advice(g, witness);
    const auto dec = decode_delta_coloring(g, enc.advice);
    EXPECT_TRUE(is_proper_coloring(g, dec.coloring, std::max(2, g.max_degree())));
    repaired_instances += enc.num_repairs > 0 ? 1 : 0;
    std::uint64_t h = 0;
    const auto fold = [&h](std::int64_t x) { h = hash2(h, static_cast<std::uint64_t>(x)); };
    fold(enc.num_clusters);
    fold(enc.num_repairs);
    for (const auto& [node, bits] : pack_var_advice(enc.advice)) {
      fold(node);
      for (int i = 0; i < bits.size(); ++i) fold(bits.bit(i));
    }
    for (const int col : dec.coloring) fold(col);
    fold(dec.rounds);
    EXPECT_EQ(h, c.digest) << family << " size " << c.size << " seed " << c.seed;
  }
  EXPECT_GT(repaired_instances, 0);  // the stage-3 grouping loop ran
}

}  // namespace
}  // namespace lad
