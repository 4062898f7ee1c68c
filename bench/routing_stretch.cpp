// Extension bench: path quality of the geometric primitives versus the
// hop-count optimum (BFS on the same overlay).
//
//   * unicast: greedy corridor routing from random sources to random
//     destinations — delivery rate (must be 1.0 on empty-rect overlays) and
//     hop stretch vs the BFS shortest path;
//   * multicast: longest root-to-leaf path of the §2 tree vs the BFS tree
//     from the same root (the decentralized construction's depth stretch).
//
// Flags: --peers=N --dims=2,3,4,5 --pairs=P --seed=S --csv --quick
#include <iostream>

#include "analysis/graph_metrics.hpp"
#include "geometry/random_points.hpp"
#include "multicast/bfs_tree.hpp"
#include "multicast/space_partition.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/routing.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    const auto peers = static_cast<std::size_t>(
        flags.get_int("peers", flags.get_bool("quick", false) ? 300 : 1000));
    const auto pairs = static_cast<std::size_t>(flags.get_int("pairs", 500));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    const auto dims_list = flags.get_int_list("dims", {2, 3, 4, 5});
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unused();

    util::Table table({"D", "delivery_rate", "avg_unicast_stretch", "max_unicast_stretch",
                       "sp_tree_depth", "bfs_tree_depth", "depth_stretch"});
    for (const auto d : dims_list) {
      const auto dims = static_cast<std::size_t>(d);
      util::Rng rng(seed ^ (dims * 0x9e37ULL));
      const auto points = geometry::random_points(rng, peers, dims);
      const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});

      // Unicast stretch over random pairs.
      util::RunningStats stretch;
      std::size_t deliveries = 0;
      util::Rng pair_rng = rng.derive(7);
      for (std::size_t t = 0; t < pairs; ++t) {
        const auto s = static_cast<overlay::PeerId>(pair_rng.next_below(peers));
        auto dst = static_cast<overlay::PeerId>(pair_rng.next_below(peers));
        if (dst == s) dst = static_cast<overlay::PeerId>((dst + 1) % peers);
        const auto route = overlay::route_greedy(graph, s, dst);
        if (!route.delivered) continue;
        ++deliveries;
        const auto shortest = analysis::bfs_depths(graph, s)[dst];
        if (shortest > 0)
          stretch.add(static_cast<double>(route.hops()) / static_cast<double>(shortest));
      }

      // Multicast depth stretch from one root.
      const auto sp = multicast::build_multicast_tree(graph, 0);
      const auto bfs = multicast::build_bfs_tree(graph, 0);
      const auto sp_depth = sp.tree.max_root_to_leaf_path();
      const auto bfs_depth = bfs.max_root_to_leaf_path();

      table.begin_row()
          .add_integer(d)
          .add_number(static_cast<double>(deliveries) / static_cast<double>(pairs), 4)
          .add_number(stretch.mean(), 3)
          .add_number(stretch.max(), 2)
          .add_integer(static_cast<long long>(sp_depth))
          .add_integer(static_cast<long long>(bfs_depth))
          .add_number(bfs_depth == 0 ? 0.0
                                     : static_cast<double>(sp_depth) /
                                           static_cast<double>(bfs_depth),
                      2);
    }

    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== Extension: path stretch vs the hop-count optimum ===\n"
                << "N=" << peers << ", empty-rectangle overlay, " << pairs
                << " unicast pairs per dimension, seed=" << seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nReading: delivery_rate must be 1.0 (greedy corridor routing is\n"
                   "provably delivering on this overlay); unicast stretch is the cost\n"
                   "of local decisions; depth_stretch compares the decentralized §2\n"
                   "tree against a centrally computed BFS tree on the same overlay.\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "routing_stretch: " << error.what() << '\n';
    return 1;
  }
}
