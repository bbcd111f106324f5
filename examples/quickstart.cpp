// Quickstart: build each of the paper's four 64-node networks, drive them
// with global uniform traffic at one offered load, and print the headline
// metrics.  This is the five-minute tour of the public API:
//
//   NetworkConfig -> build_net_view -> make_router -> StandardTraffic
//                 -> Engine::run -> SimResult
//
// Usage:  quickstart [--load=0.4] [--seed=1] [--cycles=100000]
//                    [--buffer-depth=4] [--flow-control=credit] ...
// (--help lists the shared knobs, which default to WORMSIM_* variables.)

#include <iostream>

#include "experiment/figures.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "topology/net_view.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wormsim;

  double load = 0.4;
  std::int64_t cycles = 100'000;
  experiment::RunOptions options;
  options.seed = 1;
  util::CliParser cli(
      "quickstart: simulate the paper's four wormhole MINs at one load");
  cli.add_flag("load", &load, "offered load as a fraction of capacity");
  cli.add_flag("cycles", &cycles, "measurement window in cycles");
  experiment::bind_run_knobs(
      cli, &options, experiment::knob::kSeed | experiment::knob::kScenario);
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }

  const std::vector<topology::NetworkConfig> configs = {
      experiment::tmin_config(),
      experiment::dmin_config(),
      experiment::vmin_config(),
      experiment::bmin_config(),
  };

  std::cout << "64-node MINs of 4x4 switches, global uniform traffic, "
            << "offered load " << load * 100 << "%\n"
            << "message lengths uniform in [8, 1024] flits; "
            << "channel bandwidth 20 flits/us\n\n";

  util::Table table({"network", "accepted%", "latency_us", "net_lat_us",
                     "sustainable", "max_queue"});
  for (const topology::NetworkConfig& config : configs) {
    const topology::OwnedNetView built =
        topology::build_net_view(config, options.sim.implicit_topology);
    const topology::NetView& network = built.view;
    const auto router = routing::make_router(network);

    traffic::WorkloadSpec workload;
    workload.pattern = traffic::WorkloadSpec::Pattern::kUniform;
    workload.offered = load;
    traffic::StandardTraffic traffic(network, workload);

    sim::SimConfig sim_config = options.sim;
    sim_config.seed = options.seed;
    sim_config.warmup_cycles = static_cast<std::uint64_t>(cycles) / 4;
    sim_config.measure_cycles = static_cast<std::uint64_t>(cycles);
    sim_config.drain_cycles = static_cast<std::uint64_t>(cycles) / 4;

    sim::Engine engine(network, *router, &traffic, sim_config);
    const sim::SimResult result = engine.run();

    table.row()
        .cell(config.describe())
        .cell(result.throughput_fraction() * 100.0, 1)
        .cell(result.mean_latency_us(), 1)
        .cell(result.mean_network_latency_us(), 1)
        .cell(std::string(result.sustainable() ? "yes" : "no"))
        .cell(result.max_source_queue);
  }
  table.print(std::cout);
  return 0;
}
