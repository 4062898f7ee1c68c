// Ablation A4 (DESIGN.md): why does §2 use the empty-rectangle overlay?
// This bench runs the same multicast construction over the three
// neighbour-selection methods named by the paper. The empty-rectangle
// overlay guarantees a neighbour in every non-empty orthant of every zone,
// so coverage is exactly 1.0; K-based overlays can leave zone gaps (the
// delegate's zone contains peers it has no neighbour for), which shows up
// as avg_coverage < 1.
//
// Flags: --peers=N --dims=D --k=K --roots=R --seed=S --csv --quick
#include <iostream>

#include "analysis/experiments.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    analysis::SelectionAblationConfig config;
    config.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    config.dims = static_cast<std::size_t>(flags.get_int("dims", 2));
    config.k = static_cast<std::size_t>(flags.get_int("k", 3));
    config.roots = static_cast<std::size_t>(flags.get_int("roots", 50));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    if (flags.get_bool("quick", false)) {
      config.peers = 200;
      config.roots = 20;
    }
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unused();

    const auto rows = analysis::run_selection_ablation(config);
    const auto table = analysis::selection_ablation_table(rows);
    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== A4: neighbour-selection method under §2 multicast ===\n"
                << "N=" << config.peers << ", D=" << config.dims << ", K=" << config.k
                << " for the K-based methods, " << config.roots
                << " sessions, seed=" << config.seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nReading: empty-rect must reach avg_coverage = 1 (the §2 delivery\n"
                   "guarantee); K-based overlays may not — that gap is why the paper\n"
                   "pairs the §2 algorithm with the empty-rectangle rule.\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "ablation_selection: " << error.what() << '\n';
    return 1;
  }
}
