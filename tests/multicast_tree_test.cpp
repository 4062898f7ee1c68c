#include "multicast/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "multicast/pick_policy.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {
namespace {

/// `p`'s children, in list order.
std::vector<PeerId> kids(const MulticastTree& tree, PeerId p) {
  const auto children = tree.children(p);
  return {children.begin(), children.end()};
}

TEST(MulticastTreeTest, FreshTreeHasOnlyRoot) {
  MulticastTree tree(5, 2);
  EXPECT_EQ(tree.root(), 2u);
  EXPECT_EQ(tree.reached_count(), 1u);
  EXPECT_TRUE(tree.reached(2));
  EXPECT_FALSE(tree.reached(0));
  EXPECT_EQ(tree.edge_count(), 0u);
}

TEST(MulticastTreeTest, RootOutOfRangeThrows) {
  EXPECT_THROW(MulticastTree(3, 5), std::invalid_argument);
}

TEST(MulticastTreeTest, AddEdgeLinks) {
  MulticastTree tree(4, 0);
  tree.add_edge(0, 1);
  tree.add_edge(1, 2);
  EXPECT_EQ(tree.parent(1), 0u);
  EXPECT_EQ(tree.parent(2), 1u);
  EXPECT_EQ(kids(tree, 0), (std::vector<PeerId>{1}));
  EXPECT_EQ(tree.reached_count(), 3u);
  EXPECT_EQ(tree.edge_count(), 2u);
}

TEST(MulticastTreeTest, DuplicateAttachThrows) {
  MulticastTree tree(3, 0);
  tree.add_edge(0, 1);
  EXPECT_THROW(tree.add_edge(0, 1), std::logic_error);
}

TEST(MulticastTreeTest, RootAsChildThrows) {
  MulticastTree tree(3, 0);
  EXPECT_THROW(tree.add_edge(1, 0), std::logic_error);
}

TEST(MulticastTreeTest, UnreachedParentThrows) {
  MulticastTree tree(4, 0);
  EXPECT_THROW(tree.add_edge(2, 3), std::logic_error);
}

TEST(MulticastTreeTest, DepthsBfs) {
  MulticastTree tree(6, 0);
  tree.add_edge(0, 1);
  tree.add_edge(0, 2);
  tree.add_edge(1, 3);
  tree.add_edge(3, 4);
  const auto depth = tree.depths();
  EXPECT_EQ(depth[0], 0u);
  EXPECT_EQ(depth[1], 1u);
  EXPECT_EQ(depth[2], 1u);
  EXPECT_EQ(depth[3], 2u);
  EXPECT_EQ(depth[4], 3u);
  EXPECT_EQ(depth[5], MulticastTree::kUnreachedDepth);
  EXPECT_EQ(tree.max_root_to_leaf_path(), 3u);
}

TEST(MulticastTreeTest, TreeDegreeCountsParentLink) {
  MulticastTree tree(4, 0);
  tree.add_edge(0, 1);
  tree.add_edge(0, 2);
  tree.add_edge(1, 3);
  EXPECT_EQ(tree.tree_degree(0), 2u);  // two children, no parent
  EXPECT_EQ(tree.tree_degree(1), 2u);  // one child + parent
  EXPECT_EQ(tree.tree_degree(2), 1u);  // leaf
  EXPECT_EQ(tree.max_tree_degree(), 2u);
  EXPECT_EQ(tree.max_children(), 2u);
}

TEST(MulticastTreeTest, StarTopologyDegrees) {
  MulticastTree tree(6, 0);
  for (PeerId p = 1; p < 6; ++p) tree.add_edge(0, p);
  EXPECT_EQ(tree.max_tree_degree(), 5u);
  EXPECT_EQ(tree.max_root_to_leaf_path(), 1u);
}

TEST(MulticastTreeTest, ChainDepth) {
  MulticastTree tree(10, 0);
  for (PeerId p = 1; p < 10; ++p) tree.add_edge(p - 1, p);
  EXPECT_EQ(tree.max_root_to_leaf_path(), 9u);
  EXPECT_EQ(tree.max_tree_degree(), 2u);
}

TEST(MulticastTreeTest, PeerOutOfRangeThrows) {
  MulticastTree tree(4, 1);
  tree.add_edge(1, 3);
  EXPECT_EQ(tree.peer_count(), 4u);
  EXPECT_THROW((void)tree.parent(4), std::out_of_range);
  EXPECT_THROW((void)tree.children(4), std::out_of_range);
  EXPECT_THROW((void)tree.reached(4), std::out_of_range);
  EXPECT_THROW((void)tree.tree_degree(4), std::out_of_range);
  EXPECT_THROW((void)tree.in_subtree(1, 4), std::out_of_range);
  EXPECT_THROW((void)tree.reached(kInvalidPeer), std::out_of_range);
  EXPECT_THROW(tree.add_edge(1, 4), std::invalid_argument);
  EXPECT_THROW(tree.remove_leaf(4), std::invalid_argument);
  EXPECT_THROW(tree.reattach(4, 1), std::invalid_argument);
  // Unreached in-range peers read as empty, not as errors.
  EXPECT_EQ(tree.parent(0), kInvalidPeer);
  EXPECT_TRUE(tree.children(0).empty());
  EXPECT_EQ(tree.tree_degree(0), 0u);
  EXPECT_THROW((void)MulticastTree().reached(0), std::out_of_range);
}

TEST(MulticastTreeTest, CopyIsIndependent) {
  MulticastTree tree(8, 0);
  tree.add_edge(0, 5);
  tree.add_edge(5, 7);
  MulticastTree copy = tree;
  copy.remove_leaf(7);
  copy.add_edge(0, 2);
  EXPECT_TRUE(tree.reached(7));
  EXPECT_FALSE(tree.reached(2));
  EXPECT_EQ(kids(tree, 0), (std::vector<PeerId>{5}));
  EXPECT_EQ(kids(copy, 0), (std::vector<PeerId>{5, 2}));
  EXPECT_EQ(copy.reached_count(), 3u);
}

// ---------------------------------------------------------------------------
// Differential check of the sparse layout against the dense one it replaced:
// a parent slot and a children list for every peer, with the same checks in
// the same order.

enum class Outcome { kOk, kInvalidArgument, kLogicError };

struct DenseTree {
  PeerId root;
  std::vector<PeerId> parent;
  std::vector<std::vector<PeerId>> children;
  std::size_t reached_count = 1;

  DenseTree(std::size_t n, PeerId r) : root(r), parent(n, kInvalidPeer), children(n) {}

  [[nodiscard]] bool reached(PeerId p) const { return p == root || parent[p] != kInvalidPeer; }
  [[nodiscard]] bool in_subtree(PeerId ancestor, PeerId descendant) const {
    for (PeerId p = descendant; p != kInvalidPeer; p = parent[p]) {
      if (p == ancestor) return true;
      if (p == root) return false;
    }
    return false;
  }
  [[nodiscard]] std::size_t tree_degree(PeerId p) const {
    return reached(p) ? children[p].size() + (p == root ? 0 : 1) : 0;
  }
  void unlink(PeerId p) {
    auto& siblings = children[parent[p]];
    siblings.erase(std::find(siblings.begin(), siblings.end(), p));
  }

  Outcome add_edge(PeerId from, PeerId to) {
    if (from >= parent.size() || to >= parent.size()) return Outcome::kInvalidArgument;
    if (to == root || parent[to] != kInvalidPeer || !reached(from)) return Outcome::kLogicError;
    parent[to] = from;
    children[from].push_back(to);
    ++reached_count;
    return Outcome::kOk;
  }
  Outcome remove_leaf(PeerId leaf) {
    if (leaf >= parent.size()) return Outcome::kInvalidArgument;
    if (leaf == root || parent[leaf] == kInvalidPeer || !children[leaf].empty())
      return Outcome::kLogicError;
    unlink(leaf);
    parent[leaf] = kInvalidPeer;
    --reached_count;
    return Outcome::kOk;
  }
  Outcome reattach(PeerId child, PeerId to) {
    if (child >= parent.size() || to >= parent.size()) return Outcome::kInvalidArgument;
    if (child == root || parent[child] == kInvalidPeer || !reached(to) || in_subtree(child, to))
      return Outcome::kLogicError;
    unlink(child);
    parent[child] = to;
    children[to].push_back(child);
    return Outcome::kOk;
  }

  [[nodiscard]] std::vector<std::size_t> depths() const {
    std::vector<std::size_t> depth(parent.size(), MulticastTree::kUnreachedDepth);
    for (PeerId p = 0; p < parent.size(); ++p) {
      if (!reached(p)) continue;
      std::size_t d = 0;
      for (PeerId q = p; q != root; q = parent[q]) ++d;
      depth[p] = d;
    }
    return depth;
  }
};

template <typename Op>
Outcome outcome_of(Op&& op) {
  try {
    op();
    return Outcome::kOk;
  } catch (const std::invalid_argument&) {
    return Outcome::kInvalidArgument;
  } catch (const std::logic_error&) {
    return Outcome::kLogicError;
  }
}

void expect_same(const MulticastTree& tree, const DenseTree& ref, PeerId probe,
                 const std::string& where) {
  const std::size_t n = ref.parent.size();
  ASSERT_EQ(tree.peer_count(), n) << where;
  ASSERT_EQ(tree.reached_count(), ref.reached_count) << where;
  ASSERT_EQ(tree.edge_count(), ref.reached_count - 1) << where;
  std::size_t max_children = 0;
  std::size_t max_degree = 0;
  for (PeerId p = 0; p < n; ++p) {
    ASSERT_EQ(tree.reached(p), ref.reached(p)) << where << " peer " << p;
    ASSERT_EQ(tree.parent(p), ref.parent[p]) << where << " peer " << p;
    ASSERT_EQ(kids(tree, p), ref.children[p]) << where << " peer " << p;
    ASSERT_EQ(tree.tree_degree(p), ref.tree_degree(p)) << where << " peer " << p;
    ASSERT_EQ(tree.in_subtree(probe, p), ref.in_subtree(probe, p)) << where << " peer " << p;
    ASSERT_EQ(tree.in_subtree(p, probe), ref.in_subtree(p, probe)) << where << " peer " << p;
    max_children = std::max(max_children, ref.children[p].size());
    max_degree = std::max(max_degree, ref.tree_degree(p));
  }
  const auto depth = ref.depths();
  ASSERT_EQ(tree.depths(), depth) << where;
  std::size_t longest = 0;
  for (std::size_t d : depth)
    if (d != MulticastTree::kUnreachedDepth) longest = std::max(longest, d);
  ASSERT_EQ(tree.max_root_to_leaf_path(), longest) << where;
  ASSERT_EQ(tree.max_children(), max_children) << where;
  ASSERT_EQ(tree.max_tree_degree(), max_degree) << where;
}

/// Weights (out of 100) of the three mutations; the rest of each draw is a
/// deliberately invalid call whose exception type must match too.
struct OpMix {
  unsigned add;
  unsigned remove;
  unsigned move;
};

/// Runs `ops` seeded random mutations on both layouts, comparing after each.
/// With `clone_at < ops`, the tree and its model are copied after op
/// `clone_at`; from then on each op runs on the original and, with a draw
/// of its own, on the copy, each checked against its own model, so a copy
/// that shares or drops a sibling link or an index entry diverges.
void run_differential(std::size_t n, std::size_t ops, OpMix mix, std::uint64_t seed,
                      std::size_t clone_at = std::numeric_limits<std::size_t>::max()) {
  util::Rng rng(seed);
  const auto root = static_cast<PeerId>(rng.next_below(n));
  MulticastTree tree(n, root);
  DenseTree ref(n, root);
  std::optional<MulticastTree> copy;
  std::optional<DenseTree> copy_ref;
  const auto any = [&] { return static_cast<PeerId>(rng.next_below(n + 2)); };
  const auto pick = [&](auto&& wanted) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto p = static_cast<PeerId>(rng.next_below(n));
      if (wanted(p)) return p;
    }
    return any();  // no luck: an arbitrary, usually invalid, peer
  };
  const auto step = [&](MulticastTree& tree, DenseTree& ref, const std::string& where) {
    const auto reached = [&](PeerId p) { return ref.reached(p); };
    const auto attached_leaf = [&](PeerId p) {
      return p != root && ref.reached(p) && ref.children[p].empty();
    };
    const auto attached = [&](PeerId p) { return p != root && ref.reached(p); };
    const auto draw = static_cast<unsigned>(rng.next_below(100));
    Outcome expected;
    Outcome got;
    if (draw < mix.add) {
      const PeerId from = pick(reached);
      const PeerId to = pick([&](PeerId p) { return !ref.reached(p); });
      expected = ref.add_edge(from, to);
      got = outcome_of([&] { tree.add_edge(from, to); });
    } else if (draw < mix.add + mix.remove) {
      const PeerId leaf = pick(attached_leaf);
      expected = ref.remove_leaf(leaf);
      got = outcome_of([&] { tree.remove_leaf(leaf); });
    } else if (draw < mix.add + mix.remove + mix.move) {
      const PeerId child = pick(attached);
      const PeerId to = pick(reached);
      expected = ref.reattach(child, to);
      got = outcome_of([&] { tree.reattach(child, to); });
    } else {
      const PeerId a = any();
      const PeerId b = any();
      switch (rng.next_below(3)) {
        case 0:
          expected = ref.add_edge(a, b);
          got = outcome_of([&] { tree.add_edge(a, b); });
          break;
        case 1:
          expected = ref.remove_leaf(a);
          got = outcome_of([&] { tree.remove_leaf(a); });
          break;
        default:
          expected = ref.reattach(a, b);
          got = outcome_of([&] { tree.reattach(a, b); });
      }
    }
    ASSERT_EQ(got, expected) << where;
    expect_same(tree, ref, static_cast<PeerId>(rng.next_below(n)), where);
  };
  for (std::size_t i = 0; i < ops; ++i) {
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(i);
    step(tree, ref, where);
    if (::testing::Test::HasFatalFailure()) return;
    if (copy) {
      step(*copy, *copy_ref, where + " (copy)");
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (i == clone_at) {
      copy.emplace(tree);
      copy_ref.emplace(ref);
      expect_same(*copy, *copy_ref, root, where + " (fresh copy)");
    }
  }
}

TEST(MulticastTreeDifferentialTest, MixedOpsMatchDenseReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    run_differential(48, 1500, {45, 25, 25}, seed);
}

TEST(MulticastTreeDifferentialTest, RemovalHeavyRunsMatchDenseReference) {
  // Grows past several index doublings, then drains leaves faster than it
  // adds: backward-shift deletion runs on long probe chains.
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    run_differential(700, 900, {95, 3, 2}, seed);
    run_differential(700, 2500, {30, 60, 8}, seed);
  }
}

TEST(MulticastTreeDifferentialTest, CloneMidwayStaysIndependent) {
  // The copy is taken once the tree is well grown (several index doublings
  // at 700 peers), then both sides mutate apart.
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    run_differential(48, 1500, {45, 25, 25}, seed, 750);
    run_differential(700, 2500, {60, 25, 12}, seed, 1200);
  }
}

TEST(MulticastTreeDifferentialTest, GrowDrainCyclesMatchDenseReference) {
  // Two full fill-and-drain cycles on a 300-peer set: every peer joins,
  // every leaf leaves, and the table is refilled after it emptied.
  util::Rng rng(21);
  const std::size_t n = 300;
  MulticastTree tree(n, 7);
  DenseTree ref(n, 7);
  for (int cycle = 0; cycle < 2; ++cycle) {
    std::vector<PeerId> order;
    for (PeerId p = 0; p < n; ++p)
      if (p != 7) order.push_back(p);
    rng.shuffle(order);
    std::vector<PeerId> members{7};
    for (PeerId p : order) {
      const PeerId from = members[rng.next_below(members.size())];
      ASSERT_EQ(ref.add_edge(from, p), Outcome::kOk);
      tree.add_edge(from, p);
      members.push_back(p);
    }
    expect_same(tree, ref, 7, "full, cycle " + std::to_string(cycle));
    while (ref.reached_count > 1) {
      std::vector<PeerId> leaves;
      for (PeerId p = 0; p < n; ++p)
        if (p != 7 && ref.reached(p) && ref.children[p].empty()) leaves.push_back(p);
      const PeerId leaf = leaves[rng.next_below(leaves.size())];
      ASSERT_EQ(ref.remove_leaf(leaf), Outcome::kOk);
      tree.remove_leaf(leaf);
      expect_same(tree, ref, leaf, "drain, cycle " + std::to_string(cycle));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PickPolicyTest, StringRoundTrip) {
  for (auto policy : {PickPolicy::kMedian, PickPolicy::kClosest, PickPolicy::kFarthest,
                      PickPolicy::kRandom})
    EXPECT_EQ(pick_policy_from_string(to_string(policy)), policy);
  EXPECT_THROW((void)pick_policy_from_string("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace geomcast::multicast
