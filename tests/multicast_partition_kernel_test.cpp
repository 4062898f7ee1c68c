// Differential test of the partition_step kernel against a literal copy of
// the rule it replaced: candidates copied out of the overlay, a std::map
// from orthant code to region, each region sorted by (distance, id), child
// zones by Rect::intersect. On every step of real recursions — all four
// policies, all three metrics, dead peers in the alive mask, random,
// lattice, quantized and coincident point sets in 1 to 12 dimensions — the
// kernel must name the same delegates in the same order, child_zone must
// write the same zones at exact stride, and in_orthant must put every peer
// strictly inside the step's zone in the same slice as the Rect zones.
#include "multicast/local_rule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>

#include "geometry/random_points.hpp"
#include "multicast/zone.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {
namespace {

using overlay::Candidate;
using overlay::OverlayGraph;
using overlay::PeerId;

/// A delegate with its zone as the old rule built it.
struct Delegation {
  PeerId child;
  geometry::Rect zone;
};

/// The §2 step as it stood before the flat kernel, verbatim.
std::vector<Delegation> reference_step(const geometry::Point& ego,
                                           const geometry::Rect& zone,
                                           std::span<const Candidate> neighbors,
                                           PickPolicy policy, geometry::Metric metric,
                                           util::Rng* rng) {
  struct Member {
    PeerId id;
    double dist;
  };
  std::map<geometry::OrthantCode, std::vector<Member>> regions;
  for (const Candidate& c : neighbors) {
    if (!zone.contains_interior(c.point)) continue;
    regions[geometry::orthant_of(ego, c.point)].push_back(
        Member{c.id, geometry::distance(metric, ego, c.point)});
  }
  std::vector<Delegation> assignments;
  for (auto& [orthant, members] : regions) {
    std::sort(members.begin(), members.end(), [](const Member& a, const Member& b) {
      if (a.dist != b.dist) return a.dist < b.dist;
      return a.id < b.id;
    });
    std::size_t pick = 0;
    switch (policy) {
      case PickPolicy::kMedian: pick = (members.size() - 1) / 2; break;
      case PickPolicy::kClosest: pick = 0; break;
      case PickPolicy::kFarthest: pick = members.size() - 1; break;
      case PickPolicy::kRandom: pick = rng->next_below(members.size()); break;
    }
    assignments.push_back(
        Delegation{members[pick].id, zone.intersect(geometry::orthant_rect(ego, orthant))});
  }
  return assignments;
}

enum class PointSet { kRandom, kLattice, kQuantized, kCoincident };

std::string name_of(PointSet set) {
  switch (set) {
    case PointSet::kRandom: return "random";
    case PointSet::kLattice: return "lattice";
    case PointSet::kQuantized: return "quantized";
    case PointSet::kCoincident: return "coincident";
  }
  return "?";
}

/// `n` points in `dims` dimensions. Lattice and quantized sets put many
/// coordinates on the ego's hyperplanes and the zone boundaries; the
/// coincident set repeats whole points.
std::vector<geometry::Point> make_points(PointSet set, std::size_t n, std::size_t dims,
                                         util::Rng& rng) {
  auto points = geometry::random_points(rng, n, dims, 100.0);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t i = 0; i < dims; ++i) {
      double& x = points[p][i];
      if (set == PointSet::kLattice) x = static_cast<double>(rng.next_below(5));
      if (set == PointSet::kQuantized) x = std::round(x / 12.5) * 12.5;
    }
  if (set == PointSet::kCoincident)
    for (std::size_t p = 1; p < n; p += 3) points[p] = points[rng.next_below(p)];
  return points;
}

/// Each peer selects `k` random others: arbitrary neighbour sets, unlike
/// an equilibrium overlay's.
OverlayGraph random_overlay(std::vector<geometry::Point> points, std::size_t k, util::Rng& rng) {
  const std::size_t n = points.size();
  std::vector<std::vector<PeerId>> out(n);
  for (PeerId p = 0; p < n; ++p)
    while (out[p].size() < k) {
      const auto q = static_cast<PeerId>(rng.next_below(n));
      if (q != p && std::find(out[p].begin(), out[p].end(), q) == out[p].end())
        out[p].push_back(q);
    }
  return OverlayGraph(std::move(points), std::move(out));
}

struct Coverage {
  std::size_t steps = 0;        // partition steps compared
  std::size_t memberships = 0;  // (slice, peer in the step's zone) pairs compared
};

/// Runs the recursion from `root` with both rules side by side (the
/// reference drives it), comparing every step. The kernel reuses one
/// result vector and one scratch throughout.
Coverage compare_recursion(const OverlayGraph& graph, PeerId root, const std::vector<bool>& alive,
                      PickPolicy policy, geometry::Metric metric, std::uint64_t seed,
                      std::vector<ZoneAssignment>& out, StepScratch& scratch) {
  util::Rng kernel_rng(seed);
  util::Rng reference_rng(seed);
  util::Rng* kernel_rng_ptr = policy == PickPolicy::kRandom ? &kernel_rng : nullptr;
  util::Rng* reference_rng_ptr = policy == PickPolicy::kRandom ? &reference_rng : nullptr;
  std::vector<bool> visited(graph.size(), false);
  std::vector<std::pair<PeerId, geometry::Rect>> queue{{root, initiator_zone(graph.dims())}};
  visited[root] = true;
  Coverage run;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [peer, zone] = queue[head];
    std::vector<Candidate> candidates;
    for (PeerId q : graph.neighbors(peer))
      if (alive.empty() || alive[q]) candidates.push_back(Candidate{q, graph.point(q)});
    const auto expected =
        reference_step(graph.point(peer), zone, candidates, policy, metric, reference_rng_ptr);
    partition_step(graph, peer, zone.bounds(), alive, policy, metric, kernel_rng_ptr, out,
                   scratch);
    ++run.steps;
    EXPECT_EQ(out.size(), expected.size()) << "step at peer " << peer;
    if (out.size() != expected.size()) return run;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(out[i].child, expected[i].child) << "peer " << peer << " slot " << i;
      std::vector<double> stride(2 * graph.dims());
      child_zone(zone.bounds(), graph.coords(peer), out[i].orthant, stride);
      EXPECT_TRUE(std::ranges::equal(stride, expected[i].zone.bounds()))
          << "peer " << peer << " slot " << i;
      for (PeerId q = 0; q < graph.size(); ++q) {
        if (!zone.contains_interior(graph.point(q))) continue;
        EXPECT_EQ(in_orthant(graph.coords(peer), graph.coords(q), out[i].orthant),
                  expected[i].zone.contains_interior(graph.point(q)))
            << "peer " << peer << " slot " << i << " member " << q;
        ++run.memberships;
      }
      if (!visited[expected[i].child]) {
        visited[expected[i].child] = true;
        queue.emplace_back(expected[i].child, expected[i].zone);
      }
    }
  }
  return run;
}

constexpr PickPolicy kPolicies[] = {PickPolicy::kMedian, PickPolicy::kClosest,
                                    PickPolicy::kFarthest, PickPolicy::kRandom};
constexpr geometry::Metric kMetrics[] = {geometry::Metric::kL1, geometry::Metric::kL2,
                                         geometry::Metric::kLInf};

class PartitionKernelTest
    : public ::testing::TestWithParam<std::tuple<PointSet, std::size_t>> {};

TEST_P(PartitionKernelTest, MatchesTheMapAndSortRule) {
  const auto [set, dims] = GetParam();
  util::Rng rng(1000 + dims * 7 + static_cast<std::uint64_t>(set));
  const auto graph = random_overlay(make_points(set, 150, dims, rng), 12, rng);
  std::vector<bool> some_dead(graph.size(), true);
  for (PeerId p = 1; p < graph.size(); p += 7) some_dead[p] = false;

  std::vector<ZoneAssignment> out;
  StepScratch scratch;
  for (const PickPolicy policy : kPolicies)
    for (const geometry::Metric metric : kMetrics)
      for (const std::vector<bool>& alive : {some_dead, std::vector<bool>{}}) {
        const Coverage run = compare_recursion(graph, 0, alive, policy, metric, 77, out, scratch);
        EXPECT_GT(run.steps, 1u) << "the recursion never left the root";
        EXPECT_GT(run.memberships, run.steps);
      }
}

INSTANTIATE_TEST_SUITE_P(
    Sets, PartitionKernelTest,
    ::testing::Combine(::testing::Values(PointSet::kRandom, PointSet::kLattice,
                                         PointSet::kQuantized, PointSet::kCoincident),
                       ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                         std::size_t{5}, std::size_t{12})),
    [](const auto& info) {
      return name_of(std::get<0>(info.param)) + "_d" + std::to_string(std::get<1>(info.param));
    });

TEST(PartitionKernelTest, WarmBuffersStopGrowing) {
  // A second pass over the same recursion needs no more room than the
  // first: the kernel allocates nothing once its buffers are warm.
  util::Rng rng(5);
  const auto graph = random_overlay(make_points(PointSet::kRandom, 200, 3, rng), 16, rng);
  std::vector<ZoneAssignment> out;
  StepScratch scratch;
  (void)compare_recursion(graph, 3, {}, PickPolicy::kMedian, geometry::Metric::kL1, 1, out,
                          scratch);
  const auto out_capacity = out.capacity();
  const auto scratch_capacity = scratch.survivors.capacity();
  const ZoneAssignment* out_data = out.data();
  (void)compare_recursion(graph, 3, {}, PickPolicy::kMedian, geometry::Metric::kL1, 1, out,
                          scratch);
  EXPECT_EQ(out.capacity(), out_capacity);
  EXPECT_EQ(out.data(), out_data);
  EXPECT_EQ(scratch.survivors.capacity(), scratch_capacity);
}

}  // namespace
}  // namespace geomcast::multicast
