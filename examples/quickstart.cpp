// Quickstart: the whole public API in ~60 lines.
//
//   1. give every peer a random D-dimensional identifier;
//   2. build the P2P overlay with the paper's empty-rectangle rule;
//   3. construct a multicast tree from one initiator (space partitioning);
//   4. validate the §2 claims and print the tree statistics.
//
// Run:  ./quickstart [--peers=200] [--dims=2] [--seed=7]
#include <iostream>

#include "analysis/graph_metrics.hpp"
#include "geometry/random_points.hpp"
#include "multicast/space_partition.hpp"
#include "multicast/validator.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    const auto peers = static_cast<std::size_t>(flags.get_int("peers", 200));
    const auto dims = static_cast<std::size_t>(flags.get_int("dims", 2));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
    flags.reject_unused();

    // 1. Identifiers: uniform coordinates in [0, VMAX]^D, distinct per
    //    dimension (the paper's standing assumption).
    util::Rng rng(seed);
    const auto points = geometry::random_points(rng, peers, dims);

    // 2. Overlay: Q is a neighbour of P iff the box spanned by P and Q holds
    //    no third peer. build_equilibrium gives each peer full knowledge (the
    //    converged-gossip topology).
    const overlay::EmptyRectSelector selector;
    const auto graph = overlay::build_equilibrium(points, selector);
    const auto degrees = analysis::degree_stats(graph);
    std::cout << "overlay: " << graph.size() << " peers, " << graph.edge_count()
              << " edges, max degree " << degrees.max << ", avg degree " << degrees.avg
              << (analysis::is_connected(graph) ? ", connected" : ", NOT connected")
              << "\n";

    // 3. Multicast tree rooted at peer 0: recursive responsibility-zone
    //    splitting, one request message per peer.
    const auto result = multicast::build_multicast_tree(graph, /*root=*/0);
    std::cout << "multicast: " << result.request_messages << " messages for "
              << result.tree.reached_count() << " peers (expected N-1 = " << peers - 1
              << ")\n"
              << "tree: longest root-to-leaf path " << result.tree.max_root_to_leaf_path()
              << ", max children " << result.tree.max_children() << " (bound 2^D = "
              << (std::size_t{1} << dims) << ")\n";

    // 4. Validate every §2 claim.
    const auto report = multicast::validate_build(graph, result);
    std::cout << "validation: " << report.summary() << "\n";
    return report.valid() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "quickstart: " << error.what() << '\n';
    return 1;
  }
}
