// Reproduces Figure 1 (c): maximum and average overlay degree for D = 2 as
// the number of peers grows (paper: N = 100..5000), against the paper's
// 10·log10(N) reference curve.
//
// Paper shape: at D = 2 both degree series track the logarithmic reference
// ("seem to be proportional to log(N)").
//
// Flags: --peer-counts=100,200,... --dims=D --seed=S --csv --quick
#include <iostream>

#include "analysis/experiments.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    analysis::Fig1cConfig config;
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    config.dims = static_cast<std::size_t>(flags.get_int("dims", 2));
    config.peer_counts.clear();
    const std::vector<std::int64_t> defaults =
        flags.get_bool("quick", false)
            ? std::vector<std::int64_t>{100, 400, 1000}
            : std::vector<std::int64_t>{100, 200, 400, 700, 1000, 2000, 4000, 5000};
    for (const auto n : flags.get_int_list("peer-counts", defaults))
      config.peer_counts.push_back(static_cast<std::size_t>(n));
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unused();

    const auto rows = analysis::run_fig1c(config);
    const auto table = analysis::fig1c_table(rows);
    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== Fig 1(c): overlay degree vs N (D=" << config.dims << ") ===\n"
                << "empty-rectangle selection, seed=" << config.seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nPaper shape check: max and avg degree should track the\n"
                   "10*log10(N) reference (logarithmic growth).\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "fig1c_degree_scaling: " << error.what() << '\n';
    return 1;
  }
}
