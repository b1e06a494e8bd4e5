#include <gtest/gtest.h>

#include <string>

#include "advice/advice.hpp"
#include "core/three_coloring.hpp"
#include "graph/checkers.hpp"
#include "graph/generators.hpp"
#include "lcl/problems.hpp"
#include "lcl/solver.hpp"
#include "util/hashing.hpp"

namespace lad {
namespace {

void round_trip(const Graph& g, const std::vector<int>& witness,
                const ThreeColoringParams& params = {}) {
  const auto enc = encode_three_coloring_advice(g, witness, params);
  ASSERT_EQ(static_cast<int>(enc.bits.size()), g.n());
  const auto dec = decode_three_coloring(g, enc.bits, params);
  EXPECT_TRUE(is_proper_coloring(g, dec.coloring, 3));
}

std::vector<int> two_coloring_of_even_cycle(int n) {
  std::vector<int> c(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) c[v] = 1 + v % 2;
  return c;
}

TEST(ThreeColoring, NormalizeToGreedy) {
  const Graph g = make_path(5);
  // Proper but wasteful: {2, 3, 2, 3, 2} -> greedy must pull colors down.
  const auto greedy = normalize_to_greedy(g, {2, 3, 2, 3, 2});
  EXPECT_TRUE(is_greedy_coloring(g, greedy));
  EXPECT_TRUE(is_proper_coloring(g, greedy, 2));
}

TEST(ThreeColoring, NormalizeRejectsImproper) {
  const Graph g = make_path(3);
  EXPECT_THROW(normalize_to_greedy(g, {1, 1, 2}), ContractViolation);
}

TEST(ThreeColoring, EvenCycleSmall) {
  const Graph g = make_cycle(40, IdMode::kRandomDense, 1);
  round_trip(g, two_coloring_of_even_cycle(40));
}

TEST(ThreeColoring, OddCycle) {
  const int n = 901;
  const Graph g = make_cycle(n, IdMode::kRandomDense, 2);
  std::vector<int> witness(static_cast<std::size_t>(n));
  for (int v = 0; v + 1 < n; ++v) witness[v] = 1 + v % 2;
  witness[n - 1] = 3;
  round_trip(g, witness);
}

TEST(ThreeColoring, PlantedSmallDegree) {
  const auto pc = make_planted_colorable(800, 3, 2.2, 4, 7);
  round_trip(pc.graph, pc.coloring);
}

TEST(ThreeColoring, PlantedDenser) {
  const auto pc = make_planted_colorable(600, 3, 3.0, 6, 8);
  round_trip(pc.graph, pc.coloring);
}

TEST(ThreeColoring, GridWithWitness) {
  const Graph g = make_grid(25, 25, IdMode::kRandomDense, 9);
  std::vector<int> witness(static_cast<std::size_t>(g.n()));
  // The generator assigns index (y*w + x); recover coordinates via index.
  for (int v = 0; v < g.n(); ++v) witness[v] = 1 + ((v % 25) + (v / 25)) % 2;
  round_trip(g, witness);
}

TEST(ThreeColoring, LongPath) {
  const int n = 1500;
  const Graph g = make_path(n, IdMode::kRandomDense, 10);
  std::vector<int> witness(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) witness[v] = 1 + v % 2;
  round_trip(g, witness);
}

TEST(ThreeColoring, AdviceIsOneBitUniform) {
  const auto pc = make_planted_colorable(500, 3, 2.5, 5, 11);
  const auto enc = encode_three_coloring_advice(pc.graph, pc.coloring);
  const auto stats = advice_stats(advice_from_bits(enc.bits));
  EXPECT_TRUE(stats.uniform_one_bit);
}

TEST(ThreeColoring, DisjointComponents) {
  const Graph g =
      disjoint_union({make_cycle(300), make_cycle(8), make_path(40)}, IdMode::kRandomDense, 12);
  std::vector<int> witness(static_cast<std::size_t>(g.n()));
  // Cycle(300): alternate; cycle(8): alternate; path: alternate.
  for (int v = 0; v < 300; ++v) witness[v] = 1 + v % 2;
  for (int v = 300; v < 308; ++v) witness[v] = 1 + v % 2;
  for (int v = 308; v < g.n(); ++v) witness[v] = 1 + v % 2;
  round_trip(g, witness);
}

TEST(ThreeColoring, RejectsBadWitness) {
  const Graph g = make_cycle(10);
  std::vector<int> bad(10, 1);
  EXPECT_THROW(encode_three_coloring_advice(g, bad), ContractViolation);
}

// The caterpillar family's G_{2,3} is one long path, which forces the
// encoder through the full §7 machinery (ruling sets, Lemma 7.2 halves,
// parity groups, one-vs-two component decoding).
TEST(ThreeColoring, LargeTwoThreeComponentUsesParityGroups) {
  const auto pc = make_planted_caterpillar(700, 41);
  const Graph& g = pc.graph;
  const auto& witness = pc.coloring;
  (void)witness;
  const auto enc = encode_three_coloring_advice(g, witness);
  EXPECT_GT(enc.num_groups, 0);  // the parity machinery actually engaged
  const auto dec = decode_three_coloring(g, enc.bits);
  EXPECT_TRUE(is_proper_coloring(g, dec.coloring, 3));
  // The decoded coloring must reproduce the greedy witness on the large
  // component (groups pin the parity, so this is not just "any" coloring).
  for (int v = 0; v < g.n(); ++v) {
    EXPECT_EQ(dec.coloring[v], enc.greedy_phi[v]);
  }
}

TEST(ThreeColoring, CaterpillarSeeds) {
  for (const std::uint64_t seed : {101u, 102u, 103u}) {
    const auto pc = make_planted_caterpillar(500, seed);
    round_trip(pc.graph, pc.coloring);
  }
}

TEST(ThreeColoring, CircularLadderBipartiteWitness) {
  const int m = 400;
  const Graph g = make_circular_ladder(m, IdMode::kRandomDense, 61);
  std::vector<int> witness(static_cast<std::size_t>(g.n()));
  for (int i = 0; i < m; ++i) {
    witness[i] = 1 + i % 2;
    witness[m + i] = 2 - i % 2;
  }
  round_trip(g, witness);
}

TEST(ThreeColoring, BandedRandomWithSolverWitness) {
  // 3-colorable by construction? Banded randoms are not planted — use the
  // exact solver as the (unbounded) prover on a small instance.
  const Graph g = make_banded_random(140, 4, 2.2, 4, 62);
  VertexColoringLcl p(3);
  const auto witness = solve_lcl(g, p);
  if (!witness.has_value()) GTEST_SKIP() << "instance not 3-colorable";
  round_trip(g, witness->node_labels);
}

class ThreeColoringSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreeColoringSweep, PlantedSeeds) {
  const auto pc = make_planted_colorable(500, 3, 2.4, 5, GetParam());
  round_trip(pc.graph, pc.coloring);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreeColoringSweep, ::testing::Values(21, 22, 23, 24, 25));

// Byte-identity pins: the advice bits, the decoded coloring and the round
// count of each instance fold into one splitmix64 digest. The expected
// values were recorded before the traversal primitives became
// output-sensitive; any change to them is a change of output.
struct Fold {
  std::uint64_t h = 0;
  void add(std::int64_t x) { h = hash2(h, static_cast<std::uint64_t>(x)); }
};

struct Instance {
  Graph graph;
  std::vector<int> witness;
};

Instance make_pinned_instance(const std::string& family, int size, std::uint64_t seed) {
  if (family == "grid") {
    Instance in{make_grid(size, size, IdMode::kRandomDense, seed), {}};
    for (int v = 0; v < in.graph.n(); ++v) in.witness.push_back(1 + ((v % size) + (v / size)) % 2);
    return in;
  }
  if (family == "grid3") {  // proper but not greedy: 1 + (x + 2y) mod 3
    Instance in{make_grid(size, size, IdMode::kRandomDense, seed), {}};
    for (int v = 0; v < in.graph.n(); ++v) in.witness.push_back(1 + ((v % size) + 2 * (v / size)) % 3);
    return in;
  }
  if (family == "cycle") {  // odd: one node of color 3
    Instance in{make_cycle(size, IdMode::kRandomDense, seed), {}};
    for (int v = 0; v + 1 < size; ++v) in.witness.push_back(1 + v % 2);
    in.witness.push_back(3);
    return in;
  }
  if (family == "planted") {
    auto pc = make_planted_colorable(size, 3, 2.4, 5, seed);
    return {std::move(pc.graph), std::move(pc.coloring)};
  }
  if (family == "caterpillar") {
    auto pc = make_planted_caterpillar(size, seed);
    return {std::move(pc.graph), std::move(pc.coloring)};
  }
  Instance in{make_circular_ladder(size, IdMode::kRandomDense, seed), {}};
  for (int i = 0; i < size; ++i) in.witness.push_back(1 + i % 2);
  for (int i = 0; i < size; ++i) in.witness.push_back(2 - i % 2);
  return in;
}

struct PinnedCase {
  const char* family;
  int size;
  std::uint64_t seed;
  std::uint64_t digest;
};

TEST(ThreeColoring, PinnedDigests) {
  const PinnedCase cases[] = {
      {"grid", 16, 1, 0x3e28a7e9804d0636ULL},
      {"grid", 16, 2, 0x3e28a7e9804d0636ULL},
      {"grid", 16, 3, 0x3e28a7e9804d0636ULL},
      {"grid", 64, 1, 0x3f282cb0967a8653ULL},
      {"grid", 64, 2, 0x3f282cb0967a8653ULL},
      {"grid", 64, 3, 0x3f282cb0967a8653ULL},
      {"grid3", 24, 1, 0xfd04ccadbfeb8ca5ULL},
      {"grid3", 24, 2, 0xc7e0a847c6733ff0ULL},
      {"grid3", 24, 3, 0xb52a7d15a00343f2ULL},
      {"grid3", 48, 1, 0x11783764687f9156ULL},
      {"grid3", 48, 2, 0x56fd5d021cee7d18ULL},
      {"grid3", 48, 3, 0x8f76e304abca86f7ULL},
      {"cycle", 101, 1, 0xfa180c9ed1f8f91eULL},
      {"cycle", 101, 2, 0x2384d912f4f1c9f7ULL},
      {"cycle", 101, 3, 0x2384d912f4f1c9f7ULL},
      {"cycle", 1601, 1, 0xbc3fc564da9401f1ULL},
      {"cycle", 1601, 2, 0x8cc5bfc7baf2113cULL},
      {"cycle", 1601, 3, 0x8cc5bfc7baf2113cULL},
      {"planted", 300, 1, 0x4c242217044d919cULL},
      {"planted", 300, 2, 0xfb384838f7106173ULL},
      {"planted", 300, 3, 0xd3d7b24bcb035dc5ULL},
      {"planted", 1200, 1, 0x058a53e7db20d234ULL},
      {"planted", 1200, 2, 0x26f8817b5b9b7831ULL},
      {"planted", 1200, 3, 0x69b12bd0f96ddff5ULL},
      {"caterpillar", 300, 1, 0xff7b7247ff9bc454ULL},
      {"caterpillar", 300, 2, 0x359718dbaca00ef7ULL},
      {"caterpillar", 300, 3, 0x792796d18fda907aULL},
      {"caterpillar", 900, 1, 0x080ac0503da0514aULL},
      {"caterpillar", 900, 2, 0x1dee88450350e710ULL},
      {"caterpillar", 900, 3, 0x01e468bee55434b6ULL},
      {"ladder", 100, 1, 0x7c2730f63da27277ULL},
      {"ladder", 100, 2, 0x7c2730f63da27277ULL},
      {"ladder", 100, 3, 0x7c2730f63da27277ULL},
      {"ladder", 800, 1, 0x0bffe749406c2dddULL},
      {"ladder", 800, 2, 0x0bffe749406c2dddULL},
      {"ladder", 800, 3, 0x0bffe749406c2dddULL},
  };
  for (const auto& c : cases) {
    const auto in = make_pinned_instance(c.family, c.size, c.seed);
    const auto enc = encode_three_coloring_advice(in.graph, in.witness);
    const auto dec = decode_three_coloring(in.graph, enc.bits);
    EXPECT_TRUE(is_proper_coloring(in.graph, dec.coloring, 3));
    Fold f;
    f.add(enc.num_groups);
    for (const char b : enc.bits) f.add(b);
    for (const int col : dec.coloring) f.add(col);
    f.add(dec.rounds);
    EXPECT_EQ(f.h, c.digest) << c.family << " size " << c.size << " seed " << c.seed;
  }
}

// Tolerant decode of a large G_{2,3} component whose parity groups were
// damaged: the group bits of a long spine window are cleared (its middle
// cannot reach a group) and stray adjacent pairs are planted (extra group
// components). The failed mask and the partial coloring are pinned.
TEST(ThreeColoring, PinnedTolerantDecodeWithFlippedGroupBits) {
  const int spine = 900;
  const auto pc = make_planted_caterpillar(spine, 41);
  const Graph& g = pc.graph;
  const auto enc = encode_three_coloring_advice(g, pc.coloring);
  ASSERT_GT(enc.num_groups, 0);
  auto bits = enc.bits;
  for (int v = 300; v < 600; ++v) bits[v] = 0;  // spine nodes are indices [0, spine)
  for (int v = 650; v + 1 < spine; v += 50) bits[v] = bits[v + 1] = 1;
  std::vector<char> failed;
  const auto dec = decode_three_coloring_tolerant(g, bits, failed);
  Fold f;
  int num_failed = 0;
  for (int v = 0; v < g.n(); ++v) {
    num_failed += failed[v];
    f.add(failed[v]);
    f.add(dec.coloring[v]);
  }
  f.add(dec.rounds);
  EXPECT_GT(num_failed, 0);
  EXPECT_EQ(num_failed, 360);
  EXPECT_EQ(f.h, 0xa05f305b3ca197e9ULL);
}

}  // namespace
}  // namespace lad
