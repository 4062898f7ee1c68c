#include "overlay/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "geometry/random_points.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/grid_knn.hpp"
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
  const auto neighbors = graph.neighbors(0);
  EXPECT_EQ(std::vector<PeerId>(neighbors.begin(), neighbors.end()),
            (std::vector<PeerId>{1, 2, 3}));
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

TEST(OverlayGraphTest, PointRoundTripsTheInputPoints) {
  // point(p) is rebuilt from the exact-stride coordinates; no padded
  // copy of the points is kept.
  for (const std::size_t dims : {1u, 2u, 3u, 12u}) {
    util::Rng rng(40 + dims);
    const auto points = geometry::random_points(rng, 6, dims, 100.0);
    const OverlayGraph graph(points, std::vector<std::vector<PeerId>>(points.size()));
    ASSERT_EQ(graph.dims(), dims);
    for (PeerId p = 0; p < points.size(); ++p) EXPECT_EQ(graph.point(p), points[p]) << dims;
    EXPECT_THROW((void)graph.point(static_cast<PeerId>(points.size())), std::out_of_range);
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

TEST(OverlayGraphTest, EqualityComparesEveryCoordinate) {
  // Same topology, one coordinate of one peer apart.
  auto points = make_points(4);
  const OverlayGraph a(points, {{1}, {2}, {3}, {}});
  points[2][1] += 0.5;
  const OverlayGraph b(points, {{1}, {2}, {3}, {}});
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a, OverlayGraph(make_points(4), {{1}, {2}, {3}, {}}));
}

TEST(OverlayGraphTest, EqualityIgnoresSelectionDirection) {
  // Same undirected topology from different selections.
  const auto points = make_points(2);
  OverlayGraph a(points, {{1}, {}});
  OverlayGraph b(points, {{}, {0}});
  EXPECT_EQ(a, b);
}

/// Checks every adjacency accessor of `graph` against a std::set model of
/// the per-peer selections `out` it was built from and their undirected
/// union.
void expect_matches_set_model(const OverlayGraph& graph,
                              const std::vector<std::vector<PeerId>>& out) {
  const std::size_t n = out.size();
  std::vector<std::set<PeerId>> chose(n), adjacent(n);
  for (PeerId p = 0; p < n; ++p)
    for (PeerId q : out[p]) {
      chose[p].insert(q);
      adjacent[p].insert(q);
      adjacent[q].insert(p);
    }
  ASSERT_EQ(graph.size(), n);
  std::size_t ends = 0, has_edge_mismatches = 0;
  for (PeerId p = 0; p < n; ++p) {
    const auto neighbors = graph.neighbors(p);
    EXPECT_EQ(std::vector<PeerId>(neighbors.begin(), neighbors.end()),
              std::vector<PeerId>(adjacent[p].begin(), adjacent[p].end()))
        << "peer " << p;
    EXPECT_EQ(graph.selected(p), std::vector<PeerId>(chose[p].begin(), chose[p].end()))
        << "peer " << p;
    EXPECT_EQ(graph.degree(p), adjacent[p].size());
    for (PeerId q = 0; q < n; ++q)
      has_edge_mismatches += graph.has_edge(p, q) != (adjacent[p].count(q) == 1);
    ends += adjacent[p].size();
  }
  EXPECT_EQ(has_edge_mismatches, 0u);
  EXPECT_EQ(graph.edge_count(), ends / 2);
  EXPECT_THROW((void)graph.neighbors(static_cast<PeerId>(n)), std::out_of_range);
  EXPECT_THROW((void)graph.selected(static_cast<PeerId>(n)), std::out_of_range);
}

TEST(OverlayGraphTest, RandomAsymmetricSelectionsMatchASetModel) {
  // Each peer picks up to 8 others, in any order and with repeats, so
  // some edges are chosen by one end, some by both, some listed twice.
  util::Rng rng(77);
  for (std::size_t n : {0u, 1u, 2u, 5u, 40u, 300u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<std::vector<PeerId>> out(n);
    for (PeerId p = 0; p < n && n > 1; ++p)
      for (std::uint64_t picks = rng.next_below(9); picks > 0; --picks) {
        const auto q = static_cast<PeerId>(rng.next_below(n));
        if (q != p) out[p].push_back(q);
        if (q != p && rng.chance(0.25)) out[p].push_back(q);
      }
    expect_matches_set_model(OverlayGraph(make_points(n), out), out);
  }
}

TEST(OverlayGraphTest, GridKnnOverlayMatchesASetModel) {
  // build_equilibrium_local's selections are asymmetric: a peer can pick
  // one it is not among the k nearest of.
  util::Rng rng(78);
  const auto points = geometry::random_points(rng, 1500, 2, 100.0);
  const EmptyRectSelector selector;
  const std::size_t k = 16;
  const auto knowledge = grid_knn(points, k);
  std::vector<std::vector<PeerId>> out(points.size());
  std::size_t one_sided = 0;
  for (PeerId p = 0; p < points.size(); ++p) {
    std::vector<Candidate> candidates;
    for (PeerId q : knowledge[p]) candidates.push_back({q, points[q]});
    out[p] = selector.select(points[p], candidates);
  }
  for (PeerId p = 0; p < points.size(); ++p)
    for (PeerId q : out[p])
      one_sided += std::find(out[q].begin(), out[q].end(), p) == out[q].end();
  EXPECT_GT(one_sided, 0u);
  expect_matches_set_model(build_equilibrium_local(points, selector, k), out);
}

using Edges = std::vector<std::vector<OverlayGraph::Edge>>;

TEST(OverlayGraphTest, MutualEdgesEqualTheSymmetricSelection) {
  // Random undirected edges, each once, in either orientation, spread over
  // several lists: the graph equals the one built from both ends'
  // selections, and every entry is a selection.
  util::Rng rng(79);
  for (std::size_t n : {0u, 1u, 2u, 5u, 40u, 300u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::set<std::pair<PeerId, PeerId>> chosen;
    for (std::size_t i = 0; i < 4 * n && n > 1; ++i) {
      const auto a = static_cast<PeerId>(rng.next_below(n));
      const auto b = static_cast<PeerId>(rng.next_below(n));
      if (a != b) chosen.insert(std::minmax(a, b));
    }
    Edges edges(3);
    std::vector<std::vector<PeerId>> out(n);
    for (const auto& [a, b] : chosen) {
      auto& list = edges[rng.next_below(edges.size())];
      if (rng.chance(0.5))
        list.emplace_back(a, b);
      else
        list.emplace_back(b, a);
      out[a].push_back(b);
      out[b].push_back(a);
    }
    const auto graph = OverlayGraph::from_mutual_edges(make_points(n), edges);
    EXPECT_EQ(graph, OverlayGraph(make_points(n), out));
    expect_matches_set_model(graph, out);
  }
}

TEST(OverlayGraphTest, MutualEdgesRejectBadInput) {
  const auto points = make_points(3);
  EXPECT_THROW((void)OverlayGraph::from_mutual_edges(points, Edges{{{0, 3}}}),
               std::invalid_argument);
  EXPECT_THROW((void)OverlayGraph::from_mutual_edges(points, Edges{{{3, 0}}}),
               std::invalid_argument);
  EXPECT_THROW((void)OverlayGraph::from_mutual_edges(points, Edges{{{1, 1}}}),
               std::invalid_argument);
  // The same edge twice, as given, reversed, or from another list.
  EXPECT_THROW((void)OverlayGraph::from_mutual_edges(points, Edges{{{0, 1}, {0, 2}, {0, 1}}}),
               std::invalid_argument);
  EXPECT_THROW((void)OverlayGraph::from_mutual_edges(points, Edges{{{0, 1}, {1, 0}}}),
               std::invalid_argument);
  EXPECT_THROW((void)OverlayGraph::from_mutual_edges(points, Edges{{{2, 1}}, {{1, 2}}}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)OverlayGraph::from_mutual_edges(points, Edges{{{0, 1}}, {{1, 2}}}));
}

}  // namespace
}  // namespace geomcast::overlay
