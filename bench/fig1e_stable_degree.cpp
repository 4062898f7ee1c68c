// Reproduces Figure 1 (e): maximum per-peer degree in the §3 stability-
// optimised multicast tree as K varies from 1 to 50, for D = 2..10,
// N = 1000 (same sweep as Fig 1 d, second metric).
//
// Paper shape: max tree degree grows with K and with D; for large D the
// orthant count exceeds N, every peer knows everyone, all peers prefer the
// globally longest-lived peer and the tree degenerates to a star with
// degree ~ N-1. A row whose tree breaks a §3 claim (single_tree,
// monotone_T) fails the run (exit 2, the row named on stderr).
//
// Flags: --peers=N --dims=2,...,10 --k-min --k-max --seed=S --csv --quick
#include <iostream>

#include "analysis/experiments.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    analysis::StabilitySweepConfig config;
    config.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    config.k_min = static_cast<std::size_t>(flags.get_int("k-min", 1));
    config.k_max = static_cast<std::size_t>(flags.get_int("k-max", 50));
    config.dims.clear();
    for (const auto d : flags.get_int_list("dims", {2, 3, 4, 5, 6, 7, 8, 9, 10}))
      config.dims.push_back(static_cast<std::size_t>(d));
    if (flags.get_bool("quick", false)) {
      config.peers = 200;
      config.k_max = 8;
      config.dims = {2, 5, 10};
    }
    const bool csv = flags.get_bool("csv", false);
    flags.reject_unused();

    const auto rows = analysis::run_stability_sweep(config);
    const auto table = analysis::stability_table(rows, /*diameter_panel=*/false);
    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== Fig 1(e): stable-tree max degree vs K ===\n"
                << "N=" << config.peers << ", Orthogonal Hyperplanes(K), preferred = max-T"
                << ", seed=" << config.seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nPaper shape check: max degree grows with K and D, approaching\n"
                   "N-1 (a star) once 2^D*K saturates the peer set.\n";
    }
    // The §3 claims are the run's exit code: 2 names each failed row.
    bool claims_hold = true;
    for (const auto& row : rows) {
      if (row.single_tree && row.monotone) continue;
      std::cerr << "fig1e_stable_degree: claim failed at D=" << row.dims << " K=" << row.k << ":"
                << (row.single_tree ? "" : " preferred links do not form a single tree")
                << (row.monotone ? "" : " T does not fall toward the leaves") << '\n';
      claims_hold = false;
    }
    return claims_hold ? 0 : 2;
  } catch (const std::exception& error) {
    std::cerr << "fig1e_stable_degree: " << error.what() << '\n';
    return 1;
  }
}
