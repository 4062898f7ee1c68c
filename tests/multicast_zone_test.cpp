#include "multicast/zone.hpp"

#include <gtest/gtest.h>

#include "geometry/random_points.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {
namespace {

std::vector<double> coords_of(const geometry::Point& p) {
  std::vector<double> coords(p.dims());
  for (std::size_t i = 0; i < p.dims(); ++i) coords[i] = p[i];
  return coords;
}

/// child_zone on Rects: `parent`'s slice in orthant `code` of `ego`.
geometry::Rect child_rect(const geometry::Rect& parent, const geometry::Point& ego,
                          geometry::OrthantCode code) {
  geometry::Rect zone = parent;
  child_zone(parent.bounds(), coords_of(ego), code, zone.bounds());
  return zone;
}

TEST(ZoneTest, InitiatorZoneIsWholeSpace) {
  const auto zone = initiator_zone(3);
  EXPECT_TRUE(zone.contains_interior(geometry::Point({0.0, 0.0, 0.0})));
  EXPECT_TRUE(zone.contains_interior(geometry::Point({1e15, -1e15, 3.0})));
}

TEST(ZoneTest, ChildZoneMatchesPaperRule) {
  // Paper: side i of HR is (-inf, x(P,i)) if x(Q,i) < x(P,i), else (x(P,i), +inf).
  const geometry::Point ego{5.0, 7.0};
  const auto parent = initiator_zone(2);
  const geometry::Point q{3.0, 9.0};  // below in dim 0, above in dim 1
  const auto zone = child_rect(parent, ego, geometry::orthant_of(ego, q));
  EXPECT_EQ(zone.lo(0), -geometry::kInf);
  EXPECT_EQ(zone.hi(0), 5.0);
  EXPECT_EQ(zone.lo(1), 7.0);
  EXPECT_EQ(zone.hi(1), geometry::kInf);
  EXPECT_TRUE(zone.contains_interior(q));
  EXPECT_FALSE(zone.contains_interior(ego));
}

TEST(ZoneTest, ChildZoneClippedByParent) {
  const geometry::Point ego{5.0, 5.0};
  const auto parent = geometry::Rect::cube(2, 0.0, 10.0);
  const geometry::Point q{7.0, 8.0};
  const auto zone = child_rect(parent, ego, geometry::orthant_of(ego, q));
  EXPECT_EQ(zone.lo(0), 5.0);
  EXPECT_EQ(zone.hi(0), 10.0);
  EXPECT_EQ(zone.lo(1), 5.0);
  EXPECT_EQ(zone.hi(1), 10.0);
}

TEST(ZoneTest, SiblingZonesDisjointAndExcludeEgo) {
  util::Rng rng(81);
  const auto points = geometry::random_points(rng, 20, 3, 100.0);
  const geometry::Point& ego = points[0];
  const auto parent = geometry::Rect::cube(3, -50.0, 150.0);
  std::vector<geometry::Rect> zones;
  for (geometry::OrthantCode code = 0; code < geometry::orthant_count(3); ++code)
    zones.push_back(child_rect(parent, ego, code));
  for (std::size_t i = 0; i < zones.size(); ++i) {
    EXPECT_FALSE(zones[i].contains_interior(ego));
    for (std::size_t j = i + 1; j < zones.size(); ++j)
      EXPECT_TRUE(zones[i].interior_disjoint(zones[j]));
  }
}

TEST(ZoneTest, ZoneUnionCoversParentMinusEgoSlabs) {
  // Every point of the parent zone that shares no coordinate with the ego
  // lies in exactly one child zone.
  util::Rng rng(82);
  const geometry::Point ego{50.0, 50.0};
  const auto parent = geometry::Rect::cube(2, 0.0, 100.0);
  const auto samples = geometry::random_points(rng, 500, 2, 100.0);
  for (const auto& sample : samples) {
    if (sample[0] == ego[0] || sample[1] == ego[1]) continue;
    int containing = 0;
    for (geometry::OrthantCode code = 0; code < 4; ++code)
      if (child_rect(parent, ego, code).contains_interior(sample)) ++containing;
    EXPECT_EQ(containing, 1) << sample.to_string();
  }
}

TEST(ZoneTest, ChildZoneNarrowsInPlace) {
  // A graft cursor narrows its own zone: child may alias parent.
  const geometry::Point ego{5.0, 5.0};
  const auto parent = geometry::Rect::cube(2, 0.0, 10.0);
  for (geometry::OrthantCode code = 0; code < 4; ++code) {
    geometry::Rect zone = parent;
    child_zone(zone.bounds(), coords_of(ego), code, zone.bounds());
    EXPECT_EQ(zone, parent.intersect(geometry::orthant_rect(ego, code))) << code;
  }
}

TEST(ZoneTest, InOrthantIsSliceMembershipInsideTheParent) {
  // For a point strictly inside the parent zone, lying strictly in the
  // orthant is lying in the slice; ties with the ego lie in none.
  util::Rng rng(83);
  const geometry::Point ego{50.0, 50.0};
  const auto parent = geometry::Rect::cube(2, 0.0, 100.0);
  auto samples = geometry::random_points(rng, 200, 2, 100.0);
  samples.push_back(geometry::Point{50.0, 20.0});
  samples.push_back(geometry::Point{80.0, 50.0});
  samples.push_back(ego);
  for (const auto& sample : samples) {
    if (!parent.contains_interior(sample)) continue;
    for (geometry::OrthantCode code = 0; code < 4; ++code)
      EXPECT_EQ(in_orthant(coords_of(ego), coords_of(sample), code),
                child_rect(parent, ego, code).contains_interior(sample))
          << sample.to_string() << " orthant " << code;
  }
}

TEST(ZoneTest, NestedSubdivisionStaysInsideAncestors) {
  const auto space = initiator_zone(2);
  const geometry::Point root{50.0, 50.0};
  const geometry::Point child{70.0, 80.0};
  const geometry::Point grandchild{60.0, 90.0};
  const auto zone1 = child_rect(space, root, geometry::orthant_of(root, child));
  const auto zone2 = child_rect(zone1, child, geometry::orthant_of(child, grandchild));
  EXPECT_TRUE(zone1.interior_subset_of(space));
  EXPECT_TRUE(zone2.interior_subset_of(zone1));
  EXPECT_TRUE(zone2.contains_interior(grandchild));
  EXPECT_FALSE(zone2.contains_interior(child));
  EXPECT_FALSE(zone2.contains_interior(root));
}

}  // namespace
}  // namespace geomcast::multicast
