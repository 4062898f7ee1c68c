// Extension bench: overlay-maintenance cost of the paper's gossip substrate,
// measured on the discrete-event simulator. Each peer announces its
// existence BR hops away every period; this table reports, per N and BR,
// the announce traffic of building the overlay one insertion at a time and
// the steady-state announce traffic of ONE gossip period — against the N-1
// messages of a full §2 tree construction, which is the paper's point:
// tree construction is (almost) free next to routine overlay upkeep.
//
// Flags: --peer-counts=16,32,64 --br-values=2,3,4 --seed=S --csv
#include <iostream>

#include "geometry/random_points.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/gossip.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    const auto peer_counts = flags.get_int_list("peer-counts", {16, 32, 64});
    const auto br_values = flags.get_int_list("br-values", {2, 3, 4});
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unused();

    const overlay::EmptyRectSelector selector;
    util::Table table({"N", "BR", "build_announce_msgs", "link_msgs", "sim_seconds",
                       "per_period_steady", "tree_construction", "converged"});
    for (const auto n : peer_counts) {
      util::Rng rng(seed ^ static_cast<std::uint64_t>(n));
      const auto points =
          geometry::random_points(rng, static_cast<std::size_t>(n), 2, 1000.0);
      for (const auto br : br_values) {
        overlay::GossipConfig config;
        config.br = static_cast<std::uint32_t>(br);
        const auto result =
            overlay::build_overlay_with_gossip(points, selector, config, seed);
        // Steady-state: every peer floods one announcement BR hops per
        // period; approximate by announce volume per simulated second at
        // the converged topology (period = 1 s).
        const double per_period =
            result.sim_time > 0.0
                ? static_cast<double>(result.announce_messages) / result.sim_time
                : 0.0;
        table.begin_row()
            .add_integer(n)
            .add_integer(br)
            .add_integer(static_cast<long long>(result.announce_messages))
            .add_integer(static_cast<long long>(result.link_messages))
            .add_number(result.sim_time, 1)
            .add_number(per_period, 1)
            .add_integer(n - 1)
            .add_cell(result.converged ? "yes" : "NO");
      }
    }

    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== Extension: gossip overlay-maintenance cost (DES) ===\n"
                << "empty-rectangle selection, announce period 1 s, Tmax 4 s, one\n"
                << "insertion at a time with convergence between joins, seed=" << seed
                << "\n\n";
      table.print(std::cout);
      std::cout << "\nReading: even one gossip period costs more messages than an\n"
                   "entire N-1 tree construction, and the cost grows with BR — the\n"
                   "quantitative backdrop for the paper's minimum-message design.\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "gossip_cost: " << error.what() << '\n';
    return 1;
  }
}
