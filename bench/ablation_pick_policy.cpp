// Ablation A2 (DESIGN.md): the paper delegates each region to the MEDIAN-
// distance neighbour without justifying the choice. This bench compares
// median against closest / farthest / random delegation on the same
// overlay, reporting the Fig 1(b) path metrics. All policies keep every §2
// invariant (coverage, N-1 messages) — only tree shape changes.
//
// Flags: --peers=N --dims=D --roots=R (0 = all) --seed=S --csv --quick
#include <iostream>

#include "analysis/experiments.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    analysis::PickPolicyAblationConfig config;
    config.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    config.dims = static_cast<std::size_t>(flags.get_int("dims", 2));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    config.roots = static_cast<std::size_t>(flags.get_int("roots", 0));
    if (flags.get_bool("quick", false)) {
      config.peers = 200;
      config.roots = 50;
    }
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unused();

    const auto rows = analysis::run_pick_policy_ablation(config);
    const auto table = analysis::pick_policy_table(rows);
    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== A2: within-region delegate choice (paper: median) ===\n"
                << "N=" << config.peers << ", D=" << config.dims
                << ", empty-rectangle overlay, "
                << (config.roots == 0 ? std::string("all peers as roots")
                                      : std::to_string(config.roots) + " roots")
                << ", seed=" << config.seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nReading: invalid must be 0 for every policy (coverage and N-1\n"
                   "messages are policy-independent); the policies trade path length\n"
                   "against degree concentration.\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "ablation_pick_policy: " << error.what() << '\n';
    return 1;
  }
}
