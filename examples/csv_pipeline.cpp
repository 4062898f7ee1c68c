// Batch pipeline for downstream users: read peer coordinates from a CSV
// file (one peer per line, D comma-separated coordinates, optional single
// header line), build the overlay and a multicast tree, and write per-peer
// results as CSV (peer id, coordinates, overlay degree, tree parent, tree
// depth). With --emit=points it writes a coordinates-only CSV instead, so
// the binary doubles as a workload generator:
//
//   ./csv_pipeline --peers=100 --dims=2 --emit=points --output=peers.csv
//   ./csv_pipeline --input=peers.csv --root=5 --output=tree.csv
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/graph_metrics.hpp"
#include "geometry/random_points.hpp"
#include "multicast/space_partition.hpp"
#include "multicast/validator.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace geomcast;

std::vector<geometry::Point> read_points_csv(std::istream& in) {
  std::vector<geometry::Point> points;
  std::string line;
  bool first_content_line = true;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::vector<double> coords;
    bool parse_failed = false;
    std::stringstream row(line);
    std::string cell;
    while (std::getline(row, cell, ',')) {
      try {
        std::size_t consumed = 0;
        coords.push_back(std::stod(cell, &consumed));
        if (consumed != cell.size()) parse_failed = true;
      } catch (const std::exception&) {
        parse_failed = true;
      }
      if (parse_failed) break;
    }
    if (parse_failed) {
      // A single leading header line is fine; anything later is an error —
      // silently dropping peers would corrupt every downstream number.
      if (first_content_line) {
        first_content_line = false;
        continue;
      }
      throw std::runtime_error("csv line " + std::to_string(line_number) +
                               " is not numeric: '" + line + "'");
    }
    first_content_line = false;
    if (coords.empty()) continue;
    if (coords.size() > geometry::kMaxDims)
      throw std::runtime_error("csv row has more than kMaxDims coordinates");
    geometry::Point p(coords.size());
    for (std::size_t i = 0; i < coords.size(); ++i) p[i] = coords[i];
    if (!points.empty() && points.front().dims() != p.dims())
      throw std::runtime_error("csv rows have inconsistent dimensions");
    points.push_back(p);
  }
  return points;
}

util::Table points_table(const std::vector<geometry::Point>& points) {
  std::vector<std::string> header;
  for (std::size_t d = 0; d < points.front().dims(); ++d)
    header.push_back("x" + std::to_string(d));
  util::Table table(header);
  for (const auto& p : points) {
    table.begin_row();
    for (std::size_t d = 0; d < p.dims(); ++d) table.add_number(p[d], 6);
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags(argc, argv);
    const auto input = flags.get_string("input", "-");
    const auto output = flags.get_string("output", "-");
    const auto root = static_cast<overlay::PeerId>(flags.get_int("root", 0));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 21));
    const auto peers = static_cast<std::size_t>(flags.get_int("peers", 100));
    const auto dims = static_cast<std::size_t>(flags.get_int("dims", 2));
    const bool emit_points = flags.get_string("emit", "analysis") == "points";
    flags.reject_unused();

    std::vector<geometry::Point> points;
    if (input == "-") {
      util::Rng rng(seed);
      points = geometry::random_points(rng, peers, dims);
    } else {
      std::ifstream file(input);
      if (!file) {
        std::cerr << "csv_pipeline: cannot read " << input << '\n';
        return 1;
      }
      points = read_points_csv(file);
    }
    if (points.size() < 2) {
      std::cerr << "csv_pipeline: need at least 2 peers (got " << points.size() << ")\n";
      return 1;
    }
    if (root >= points.size()) {
      std::cerr << "csv_pipeline: --root out of range\n";
      return 1;
    }

    if (emit_points) {
      const auto table = points_table(points);
      if (output == "-") {
        table.print_csv(std::cout);
      } else {
        std::ofstream file(output);
        if (!file) {
          std::cerr << "csv_pipeline: cannot write " << output << '\n';
          return 1;
        }
        table.print_csv(file);
      }
      std::cerr << "csv_pipeline: wrote " << points.size() << " peer coordinates\n";
      return 0;
    }

    const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
    const auto result = multicast::build_multicast_tree(graph, root);
    const auto report = multicast::validate_build(graph, result);
    const auto depths = result.tree.depths();

    std::vector<std::string> header{"peer"};
    for (std::size_t d = 0; d < graph.dims(); ++d) header.push_back("x" + std::to_string(d));
    header.insert(header.end(), {"overlay_degree", "tree_parent", "tree_depth"});
    util::Table table(header);
    for (overlay::PeerId p = 0; p < graph.size(); ++p) {
      table.begin_row().add_integer(p);
      for (std::size_t d = 0; d < graph.dims(); ++d) table.add_number(points[p][d], 4);
      table.add_integer(static_cast<long long>(graph.degree(p)));
      table.add_cell(p == root ? "root" : std::to_string(result.tree.parent(p)));
      table.add_integer(static_cast<long long>(depths[p]));
    }

    if (output == "-") {
      table.print_csv(std::cout);
    } else {
      std::ofstream file(output);
      if (!file) {
        std::cerr << "csv_pipeline: cannot write " << output << '\n';
        return 1;
      }
      table.print_csv(file);
    }
    std::cerr << "csv_pipeline: " << points.size() << " peers, validation: "
              << report.summary() << '\n';
    return report.valid() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "csv_pipeline: " << error.what() << '\n';
    return 1;
  }
}
