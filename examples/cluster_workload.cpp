// Cluster workload study: the scenario that motivates the paper's
// Section 4 — several jobs, each confined to its own processor cluster,
// possibly with very different traffic intensities.  Compares the cube
// TMIN's channel-balanced partitioning against the butterfly TMIN's
// channel-shared partitioning under a configurable rate ratio, and prints
// per-level channel utilization so the sharing is visible.
//
// Usage: cluster_workload [--load=0.4] [--ratio=4:1:1:1] [--seed=1]

#include <iostream>
#include <sstream>

#include "experiment/figures.hpp"
#include "partition/cluster.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "telemetry/heatmap.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace wormsim;

std::vector<double> parse_ratio(const std::string& text) {
  std::vector<double> weights;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, ':')) {
    weights.push_back(std::stod(part));
  }
  return weights;
}

void run_case(const topology::NetworkConfig& config,
              const partition::Clustering& clustering,
              const std::vector<double>& weights, double load,
              std::uint64_t seed, const std::string& label) {
  const topology::Network net = topology::build_network(config);
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = load;
  workload.clustering = clustering;
  workload.cluster_weights = weights;
  traffic::StandardTraffic traffic(net, workload);
  sim::SimConfig sim_config;
  sim_config.seed = seed;
  sim_config.warmup_cycles = 20'000;
  sim_config.measure_cycles = 100'000;
  sim_config.drain_cycles = 40'000;
  sim_config.telemetry.counters = true;
  sim::Engine engine(net, *router, &traffic, sim_config);
  const sim::SimResult result = engine.run();

  std::cout << "\n--- " << label << " (" << config.describe() << ") ---\n"
            << "accepted " << result.throughput_fraction() * 100 << "% of "
            << result.offered_fraction() * 100 << "% offered, latency "
            << util::format_double(result.mean_latency_us(), 1) << " us, "
            << (result.sustainable() ? "sustainable" : "UNSUSTAINABLE")
            << "\n";
  util::Table table({"level", "role", "channels", "mean util%", "max util%"});
  for (const telemetry::StageRow& row :
       telemetry::build_heatmap(net, result.telemetry_counters,
                                sim_config.measure_cycles)
           .stages) {
    table.row()
        .cell(static_cast<std::uint64_t>(row.conn_index))
        .cell(topology::role_name(row.role))
        .cell(static_cast<std::uint64_t>(row.cells.size()))
        .cell(row.mean_utilization * 100, 1)
        .cell(row.max_utilization * 100, 1);
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  double load = 0.4;
  std::string ratio = "4:1:1:1";
  std::int64_t seed = 1;
  util::CliParser cli(
      "cluster_workload: multi-job cluster traffic on cube vs butterfly "
      "TMINs (Fig. 17 scenario)");
  cli.add_flag("load", &load, "machine-wide offered load fraction");
  cli.add_flag("ratio", &ratio, "per-cluster rate ratio a:b:c:d");
  cli.add_flag("seed", &seed, "random seed");
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }

  const std::vector<double> weights = parse_ratio(ratio);
  if (weights.size() != 4) {
    std::cerr << "ratio must have four components\n";
    return 1;
  }

  const util::RadixSpec addr(4, 3);
  std::cout << "Four 16-node clusters, rate ratio " << ratio
            << ", machine-wide offered load " << load * 100 << "%\n";

  run_case(experiment::tmin_config("cube"),
           partition::Clustering::by_top_digits(addr, 1), weights, load,
           static_cast<std::uint64_t>(seed),
           "cube TMIN, channel-balanced clusters 0XX..3XX");
  run_case(experiment::tmin_config("butterfly"),
           partition::Clustering::by_top_digits(addr, 1), weights, load,
           static_cast<std::uint64_t>(seed),
           "butterfly TMIN, channel-reduced clusters 0XX..3XX");
  run_case(experiment::tmin_config("butterfly"),
           partition::Clustering::by_low_digits(addr, 1), weights, load,
           static_cast<std::uint64_t>(seed),
           "butterfly TMIN, channel-shared clusters XX0..XX3");
  return 0;
}
