// Software multicast demo (the conclusion's future-work direction,
// following Xu, Gui & Ni, Supercomputing '94): compares sequential
// unicast, oblivious binomial, and fat-tree-aware subtree multicast
// schedules on a butterfly BMIN, with makespans measured by the
// flit-level engine.
//
// Usage: multicast_demo [--radix=4] [--stages=3] [--source=0]
//                       [--flits=128] [--destinations=63]

#include <iostream>
#include <utility>
#include <vector>

#include "routing/multicast.hpp"
#include "sim/multicast_replay.hpp"
#include "routing/router.hpp"
#include "topology/network.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wormsim;

  std::int64_t radix = 4;
  std::int64_t stages = 3;
  std::int64_t source = 0;
  std::int64_t flits = 128;
  std::int64_t count = -1;
  std::int64_t seed = 7;
  util::CliParser cli("multicast_demo: software multicast on a BMIN");
  cli.add_flag("radix", &radix, "switch degree k");
  cli.add_flag("stages", &stages, "stage count n");
  cli.add_flag("source", &source, "multicast source node");
  cli.add_flag("flits", &flits, "message length in flits");
  cli.add_flag("destinations", &count,
               "destination count (-1 = broadcast to all other nodes)");
  cli.add_flag("seed", &seed, "seed for random destination subsets");
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }

  topology::NetworkConfig config;
  config.kind = topology::NetworkKind::kBMIN;
  config.radix = static_cast<unsigned>(radix);
  config.stages = static_cast<unsigned>(stages);
  const topology::Network net = topology::build_network(config);
  const auto router = routing::make_router(net);

  const auto src = static_cast<topology::NodeId>(source);
  std::vector<topology::NodeId> pool;
  for (topology::NodeId node = 0; node < net.node_count(); ++node) {
    if (node != src) pool.push_back(node);
  }
  std::vector<topology::NodeId> dests = pool;
  if (count >= 0 && static_cast<std::size_t>(count) < pool.size()) {
    util::Rng rng(static_cast<std::uint64_t>(seed));
    rng.shuffle(pool);
    dests.assign(pool.begin(), pool.begin() + count);
  }

  std::cout << "BMIN k=" << radix << " n=" << stages << " ("
            << net.node_count() << " nodes); multicast from node " << source
            << " to " << dests.size() << " destinations, " << flits
            << " flits\n"
            << "round lower bound: " << routing::min_rounds(dests.size())
            << "\n\n";

  const auto len = static_cast<std::uint32_t>(flits);

  routing::MulticastSchedule sequential;
  for (topology::NodeId d : dests) sequential.rounds.push_back({{src, d}});
  const routing::MulticastSchedule binomial =
      routing::binomial_schedule(src, dests);
  const routing::MulticastSchedule subtree =
      routing::subtree_schedule(net, src, dests);
  routing::validate_schedule(src, dests, sequential);
  routing::validate_schedule(src, dests, binomial);
  routing::validate_schedule(src, dests, subtree);

  util::Table table({"schedule", "rounds", "messages", "makespan_cycles",
                     "makespan_us"});
  const std::vector<std::pair<std::string, const routing::MulticastSchedule*>>
      schedules = {{"sequential unicast", &sequential},
                   {"binomial (oblivious)", &binomial},
                   {"subtree (fat-tree aware)", &subtree}};
  for (const auto& [name, schedule] : schedules) {
    const std::uint64_t makespan =
        sim::simulate_makespan(net, *router, *schedule, len);
    table.row()
        .cell(name)
        .cell(static_cast<std::uint64_t>(schedule->round_count()))
        .cell(static_cast<std::uint64_t>(schedule->message_count()))
        .cell(makespan)
        .cell(static_cast<double>(makespan) / topology::kFlitsPerMicrosecond,
              1);
  }
  table.print(std::cout);
  return 0;
}
