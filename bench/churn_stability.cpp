// Ablation A3 (DESIGN.md): quantifies the §3 stability guarantee. Peers
// depart at their announced times T(P), in order. The lifetime-aware tree
// must shed only leaves (zero orphans); a lifetime-oblivious random
// spanning tree of the same overlay orphans whole subtrees — the paper's
// "very sensitive to node departures" baseline, measured.
//
// repair_failures re-runs departures with the §3 preferred-neighbour rule
// as an on-line repair: only the globally longest-lived peer can ever fail
// to reattach.
//
// Flags: --peers=N --dims=D --k=K --seed=S --csv --quick
#include <iostream>

#include "analysis/experiments.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    analysis::ChurnComparisonConfig config;
    config.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    config.dims = static_cast<std::size_t>(flags.get_int("dims", 3));
    config.k = static_cast<std::size_t>(flags.get_int("k", 3));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    if (flags.get_bool("quick", false)) config.peers = 200;
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unused();

    const auto rows = analysis::run_churn_comparison(config);
    const auto table = analysis::churn_table(rows);
    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== A3: departures — lifetime-aware tree vs random spanning tree ===\n"
                << "N=" << config.peers << ", D=" << config.dims << ", Orthogonal(K="
                << config.k << ") overlay, all peers depart in T order, seed="
                << config.seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nClaim check: the stable tree has 0 disruptive departures and 0\n"
                   "orphans (every departure is a leaf); the random tree does not.\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "churn_stability: " << error.what() << '\n';
    return 1;
  }
}
