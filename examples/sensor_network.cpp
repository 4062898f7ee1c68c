// Wireless-sensor scenario — the paper's second §3 motivation: "the sensors
// know the remaining lifetime of their battery".
//
// Sensors sit at physical 2-D positions; their identifier is
// (battery_horizon, x, y), i.e. D = 3 with the lifetime as the first
// virtual coordinate. The sink disseminates a configuration update two
// ways:
//   * §2 space-partitioning multicast over the empty-rectangle overlay
//     (exactly N-1 radio messages, the energy argument), run message-by-
//     message on the discrete-event simulator with radio-ish latencies;
//   * §3 stability tree used for long-lived data collection, played
//     against battery deaths.
//
// Run:  ./sensor_network [--sensors=300] [--seed=5]
#include <iostream>

#include "analysis/graph_metrics.hpp"
#include "multicast/protocol.hpp"
#include "multicast/validator.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "stability/churn.hpp"
#include "stability/convergecast.hpp"
#include "stability/lifetime.hpp"
#include "stability/stable_tree.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace geomcast;
  try {
    const util::Flags flags(argc, argv);
    const auto sensors = static_cast<std::size_t>(flags.get_int("sensors", 300));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));
    flags.reject_unused();

    // Battery horizons (hours) + field positions; the battery horizon is the
    // first coordinate per §3.
    util::Rng rng(seed);
    std::vector<double> battery;
    const auto points = stability::lifetime_points(rng, sensors, 3, 1000.0, battery);

    const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
    std::cout << "field: " << sensors << " sensors, overlay avg degree "
              << analysis::degree_stats(graph).avg << ", connected: "
              << (analysis::is_connected(graph) ? "yes" : "NO") << "\n\n";

    // Configuration push from the sink (peer 0) with radio-like latency
    // jitter; count every radio message.
    const auto push = multicast::run_multicast_protocol(
        graph, /*root=*/0, {}, sim::LatencyModel::uniform(0.005, 0.02));
    const auto report = multicast::validate_build(graph, push.build);
    std::cout << "config push: " << push.build.request_messages << " radio messages ("
              << "N-1 = " << sensors - 1 << "), completed in " << push.completion_time
              << " s simulated, longest relay chain "
              << push.build.tree.max_root_to_leaf_path() << " hops\n"
              << "validation: " << report.summary() << "\n\n";

    // Long-lived collection tree: route toward the sensor with the most
    // battery left; batteries then die in order.
    const auto collect = stability::build_stable_tree(graph, battery);
    const auto churn = stability::simulate_departures(collect.parent, battery);
    std::cout << "collection tree: diameter " << stability::tree_diameter(collect)
              << ", max degree " << collect.max_degree() << "\n"
              << "battery deaths: " << churn.departures << ", collection paths broken: "
              << churn.disruptive_departures << "\n\n";

    // One aggregation wave up the collection tree: every sensor reports a
    // reading; interior sensors fold partial sums; the sink receives the
    // total with N-1 radio messages.
    std::vector<double> readings(sensors);
    for (auto& reading : readings) reading = rng.uniform(15.0, 30.0);  // field temps
    const auto wave = stability::run_convergecast(collect, readings,
                                                  sim::LatencyModel::uniform(0.005, 0.02));
    std::cout << "convergecast: " << wave.contributions << " readings aggregated with "
              << wave.messages << " messages in " << wave.completion_time
              << " s simulated (mean reading "
              << wave.root_value / static_cast<double>(wave.contributions) << " C)\n";

    const bool ok = report.valid() && churn.departures_always_leaves() &&
                    wave.contributions == sensors;
    std::cout << (ok ? "\nOK: every sensor got the update with N-1 messages and no\n"
                       "battery death ever broke the collection tree.\n"
                     : "\nFAILURE: see counters above.\n");
    return ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "sensor_network: " << error.what() << '\n';
    return 1;
  }
}
