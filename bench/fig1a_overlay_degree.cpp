// Reproduces Figure 1 (a): maximum and average overlay-topology degree of a
// peer for D = 2..5, N = 1000, uniform-random coordinates, empty-rectangle
// neighbour selection at the full-knowledge equilibrium.
//
// Paper shape: both series grow steeply with D (max degree into the
// hundreds by D = 5); D = 2 has the smallest degrees.
//
// Flags: --peers=N --dims=2,3,4,5 --seed=S --csv --quick --json=FILE
#include <cstdio>
#include <fstream>
#include <iostream>

#include "analysis/experiments.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    analysis::Fig1aConfig config;
    config.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    if (flags.get_bool("quick", false)) config.peers = 200;
    config.dims.clear();
    for (const auto d : flags.get_int_list("dims", {2, 3, 4, 5}))
      config.dims.push_back(static_cast<std::size_t>(d));
    const bool csv = flags.get_bool("csv", false);
    const std::string json_path = flags.get_string("json", "");
    flags.reject_unused();

    const auto rows = analysis::run_fig1a(config);
    const auto table = analysis::fig1a_table(rows);
    if (!json_path.empty()) {
      std::ofstream json(json_path);
      if (!json) throw std::runtime_error("cannot write --json file: " + json_path);
      table.print_json(json);
    }
    if (csv) {
      table.print_csv(std::cout);
    } else {
      std::cout << "=== Fig 1(a): overlay degree vs dimension ===\n"
                << "N=" << config.peers << ", empty-rectangle selection, seed="
                << config.seed << "\n\n";
      table.print(std::cout);
      std::cout << "\nPaper shape check: degrees should grow sharply with D;\n"
                   "D=2 smallest, max degree in the hundreds by D=5.\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "fig1a_overlay_degree: " << error.what() << '\n';
    return 1;
  }
}
