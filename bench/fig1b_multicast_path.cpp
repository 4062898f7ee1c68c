// Reproduces Figure 1 (b): maximum and average (over all N initiating
// peers) of the longest root-to-leaf path of the space-partitioning
// multicast tree, for D = 2..5, N = 1000 — the paper initiates one
// construction from every peer and reports the per-session longest path.
//
// The `max_children` column checks the in-text claim that the multicast
// tree degree is bounded by the 2^D orthant regions; `invalid` counts
// validator failures (must be 0: N-1 messages, full coverage, disjoint
// zones). These structural checks fail the run: exit 2, each failed row
// named on stderr. The path length's direction across D is printed as
// measured, not checked.
//
// Flags: --peers=N --dims=2,3,4,5 --roots=R (0 = all) --seed=S --csv --quick --json=FILE
#include <fstream>
#include <iostream>

#include "analysis/experiments.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    analysis::Fig1bConfig config;
    config.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    config.roots = static_cast<std::size_t>(flags.get_int("roots", 0));
    if (flags.get_bool("quick", false)) {
      config.peers = 200;
      config.roots = 50;
    }
    config.dims.clear();
    for (const auto d : flags.get_int_list("dims", {2, 3, 4, 5}))
      config.dims.push_back(static_cast<std::size_t>(d));
    const bool csv = flags.get_bool("csv", false);
    const std::string json_path = flags.get_string("json", "");
    flags.reject_unused();

    const auto rows = analysis::run_fig1b(config);
    const auto table = analysis::fig1b_table(rows);
    if (!json_path.empty()) {
      std::ofstream json(json_path);
      if (!json) throw std::runtime_error("cannot write --json file: " + json_path);
      table.print_json(json);
    }
    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== Fig 1(b): longest root-to-leaf multicast path vs dimension ===\n"
                << "N=" << config.peers << ", one session per root ("
                << (config.roots == 0 ? std::string("all peers")
                                      : std::to_string(config.roots) + " roots")
                << "), median-L1 pick, seed=" << config.seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nStructural checks: avg-max < max; max_children <= 2^D; invalid must be 0"
                   " everywhere.\n";
      if (rows.size() > 1) {
        // The direction this run measured, reported, not checked.
        const auto& first = rows.front();
        const auto& last = rows.back();
        std::cout << "Measured: the mean longest path "
                  << (last.avg_longest_path < first.avg_longest_path ? "falls" : "does not fall")
                  << " from " << util::format_number(first.avg_longest_path, 2) << " at D="
                  << first.dims << " to " << util::format_number(last.avg_longest_path, 2)
                  << " at D=" << last.dims << ".\n";
      }
    }
    // The structural claims are the run's exit code: 2 names each failed row.
    bool claims_hold = true;
    for (const auto& row : rows) {
      const std::size_t orthants = std::size_t{1} << row.dims;
      if (row.invalid_sessions > 0) {
        std::cerr << "fig1b_multicast_path: claim failed at D=" << row.dims << ": "
                  << row.invalid_sessions << " invalid sessions (must be 0)\n";
        claims_hold = false;
      }
      if (row.max_children > orthants) {
        std::cerr << "fig1b_multicast_path: claim failed at D=" << row.dims
                  << ": max_children " << row.max_children << " > 2^D = " << orthants << '\n';
        claims_hold = false;
      }
    }
    return claims_hold ? 0 : 2;
  } catch (const std::exception& error) {
    std::cerr << "fig1b_multicast_path: " << error.what() << '\n';
    return 1;
  }
}
