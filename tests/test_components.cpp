#include <gtest/gtest.h>

#include "graph/components.hpp"
#include "graph/generators.hpp"

namespace lad {
namespace {

TEST(Components, SingleComponent) {
  const Graph g = make_cycle(8);
  const auto c = connected_components(g);
  EXPECT_EQ(c.count(), 1);
  EXPECT_EQ(c.members[0].size(), 8u);
}

TEST(Components, Multiple) {
  const Graph g = disjoint_union({make_path(3), make_cycle(4), make_path(1)});
  const auto c = connected_components(g);
  EXPECT_EQ(c.count(), 3);
  int total = 0;
  for (const auto& m : c.members) total += static_cast<int>(m.size());
  EXPECT_EQ(total, 8);
}

TEST(Components, Masked) {
  const Graph g = make_path(7);
  NodeMask mask(7, 1);
  mask[3] = 0;
  const auto c = connected_components(g, mask);
  EXPECT_EQ(c.count(), 2);
  EXPECT_EQ(c.comp_of[3], -1);
  EXPECT_NE(c.comp_of[2], c.comp_of[4]);
}

}  // namespace
}  // namespace lad
