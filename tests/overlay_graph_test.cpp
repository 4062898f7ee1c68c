#include "overlay/graph.hpp"

#include <gtest/gtest.h>

#include "geometry/random_points.hpp"
#include "util/rng.hpp"

namespace geomcast::overlay {
namespace {

std::vector<geometry::Point> make_points(std::size_t n) {
  util::Rng rng(n);
  return geometry::random_points(rng, n, 2, 100.0);
}

TEST(OverlayGraphTest, EmptyGraph) {
  OverlayGraph graph;
  EXPECT_EQ(graph.size(), 0u);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(OverlayGraphTest, UndirectedUnionOfSelections) {
  // 0 selects 1; 1 selects nothing; both see the edge.
  OverlayGraph graph(make_points(2), {{1}, {}});
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_TRUE(graph.has_edge(1, 0));
  EXPECT_EQ(graph.degree(0), 1u);
  EXPECT_EQ(graph.degree(1), 1u);
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_EQ(graph.selected(0), (std::vector<PeerId>{1}));
  EXPECT_TRUE(graph.selected(1).empty());
}

TEST(OverlayGraphTest, MutualSelectionCountedOnce) {
  OverlayGraph graph(make_points(2), {{1}, {0}});
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_EQ(graph.degree(0), 1u);
}

TEST(OverlayGraphTest, DuplicateSelectionsDeduplicated) {
  OverlayGraph graph(make_points(3), {{1, 1, 2}, {}, {}});
  EXPECT_EQ(graph.selected(0), (std::vector<PeerId>{1, 2}));
  EXPECT_EQ(graph.edge_count(), 2u);
}

TEST(OverlayGraphTest, NeighborsSortedAscending) {
  OverlayGraph graph(make_points(4), {{3, 1, 2}, {}, {}, {}});
  EXPECT_EQ(graph.neighbors(0), (std::vector<PeerId>{1, 2, 3}));
}

TEST(OverlayGraphTest, SelfSelectionThrows) {
  EXPECT_THROW(OverlayGraph(make_points(2), {{0}, {}}), std::invalid_argument);
}

TEST(OverlayGraphTest, OutOfRangeSelectionThrows) {
  EXPECT_THROW(OverlayGraph(make_points(2), {{5}, {}}), std::invalid_argument);
}

TEST(OverlayGraphTest, SizeMismatchThrows) {
  EXPECT_THROW(OverlayGraph(make_points(3), {{1}, {}}), std::invalid_argument);
}

TEST(OverlayGraphTest, HasEdgeFalseForNonNeighbors) {
  OverlayGraph graph(make_points(3), {{1}, {}, {}});
  EXPECT_FALSE(graph.has_edge(0, 2));
  EXPECT_FALSE(graph.has_edge(1, 2));
}

TEST(OverlayGraphTest, DimsReported) {
  OverlayGraph graph(make_points(3), {{}, {}, {}});
  EXPECT_EQ(graph.dims(), 2u);
}

TEST(OverlayGraphTest, CoordsAreThePointsAtExactStride) {
  util::Rng rng(12);
  const auto points = geometry::random_points(rng, 5, 3, 100.0);
  OverlayGraph graph(points, {{}, {}, {}, {}, {}});
  for (PeerId p = 0; p < points.size(); ++p) {
    const auto coords = graph.coords(p);
    ASSERT_EQ(coords.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(coords[i], points[p][i]);
  }
}

TEST(OverlayGraphTest, MixedDimensionsThrow) {
  EXPECT_THROW(OverlayGraph({geometry::Point({1.0, 2.0}), geometry::Point({1.0, 2.0, 3.0})},
                            {{}, {}}),
               std::invalid_argument);
}

TEST(OverlayGraphTest, EqualityComparesTopologyAndPoints) {
  const auto points = make_points(3);
  OverlayGraph a(points, {{1}, {}, {}});
  OverlayGraph b(points, {{1}, {}, {}});
  OverlayGraph c(points, {{2}, {}, {}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(OverlayGraphTest, EqualityIgnoresSelectionDirection) {
  // Same undirected topology from different selections.
  const auto points = make_points(2);
  OverlayGraph a(points, {{1}, {}});
  OverlayGraph b(points, {{}, {0}});
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace geomcast::overlay
