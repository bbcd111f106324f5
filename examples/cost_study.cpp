// Cost-effectiveness study (Section 6: "more detailed cost and hardware
// design study of these networks is another interesting area").
//
// Joins the hardware cost model with measured saturation throughput to
// rank the designs by throughput per cost unit — quantifying the paper's
// conclusion that the two-dilated MIN is "the most cost effective design".
//
// Usage: cost_study [--quick] [--seed=3] [--buffer-depth=4] ...

#include <iostream>

#include "analysis/cost.hpp"
#include "experiment/figures.hpp"
#include "experiment/sweep.hpp"
#include "partition/cluster.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wormsim;

  experiment::RunOptions options;
  options.seed = 3;
  util::CliParser cli("cost_study: hardware cost vs delivered performance");
  experiment::bind_run_knobs(cli, &options,
                             experiment::knob::kQuick |
                                 experiment::knob::kSeed |
                                 experiment::knob::kScenario);
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }

  const std::vector<topology::NetworkConfig> configs = {
      experiment::tmin_config(), experiment::dmin_config(),
      experiment::vmin_config(), experiment::bmin_config()};

  std::cout << "64-node networks, global uniform traffic; cost model after "
               "Chien [22]\n\n";
  util::Table table({"network", "xpoints/switch", "buffers/switch",
                     "rel. delay", "wires", "cost units", "sat. thru%",
                     "thru/cost x1e6"});

  for (const topology::NetworkConfig& config : configs) {
    const analysis::NetworkCost cost = analysis::estimate_cost(config);

    // Measure saturation: the largest sustainable accepted throughput
    // over the load sweep.
    experiment::SeriesSpec spec;
    spec.label = config.describe();
    spec.net = config;
    spec.workload = [](const topology::NetView& net, double load) {
      traffic::WorkloadSpec workload;
      workload.offered = load;
      workload.clustering =
          partition::Clustering::global(net.node_count());
      return workload;
    };
    const experiment::Series series =
        experiment::run_series(spec, options.sweep_options());
    double saturation = 0.0;
    for (const experiment::SweepPoint& point : series.points) {
      saturation = std::max(saturation, point.throughput);
    }

    table.row()
        .cell(config.describe())
        .cell(cost.per_switch.crosspoints())
        .cell(static_cast<std::uint64_t>(cost.per_switch.flit_buffers))
        .cell(cost.per_switch.relative_delay(), 1)
        .cell(cost.wire_count)
        .cell(cost.cost_units(), 0)
        .cell(saturation * 100.0, 1)
        .cell(saturation / cost.cost_units() * 1e6, 1);
  }
  table.print(std::cout);
  return 0;
}
