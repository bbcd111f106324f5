// Topology explorer: prints the wiring of any supported MIN — connection
// patterns, the symbolic routing-tag derivation, and the stage-by-stage
// channel map.  Reproduces the structural content of Figs. 4-6 of the
// paper in text form.
//
// Usage: topology_explorer [--kind=tmin|dmin|vmin|bmin]
//                          [--topology=cube|butterfly|omega|baseline|flip]
//                          [--radix=2] [--stages=3]

#include <iostream>

#include "topology/network.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wormsim;

  std::string kind = "tmin";
  std::string topo = "cube";
  std::int64_t radix = 2;
  std::int64_t stages = 3;
  std::int64_t dilation = 2;
  std::int64_t vcs = 2;
  std::int64_t extra = 0;
  std::int64_t splitter = 0;
  util::CliParser cli("topology_explorer: dump MIN wiring and routing tags");
  cli.add_flag("kind", &kind, "network kind: tmin, dmin, vmin, bmin");
  cli.add_flag("topology", &topo,
               "cube, butterfly, omega, baseline, flip (unidirectional)");
  cli.add_flag("radix", &radix, "switch degree k");
  cli.add_flag("stages", &stages, "stage count n (N = k^n nodes)");
  cli.add_flag("dilation", &dilation, "channels per port (dmin only)");
  cli.add_flag("vcs", &vcs, "virtual channels per channel (vmin/bmin)");
  cli.add_flag("extra-stages", &extra, "adaptive extra stages (tmin/dmin/vmin)");
  cli.add_flag("splitter", &splitter,
               "multibutterfly splitter dilation (tmin base; 0 = off)");
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }

  topology::NetworkConfig config;
  if (kind == "tmin") {
    config.kind = topology::NetworkKind::kTMIN;
  } else if (kind == "dmin") {
    config.kind = topology::NetworkKind::kDMIN;
  } else if (kind == "vmin") {
    config.kind = topology::NetworkKind::kVMIN;
  } else if (kind == "bmin") {
    config.kind = topology::NetworkKind::kBMIN;
  } else {
    std::cerr << "unknown kind: " << kind << "\n";
    return 1;
  }
  config.topology = topo;
  config.radix = static_cast<unsigned>(radix);
  config.stages = static_cast<unsigned>(stages);
  config.dilation =
      config.kind == topology::NetworkKind::kDMIN
          ? static_cast<unsigned>(dilation)
          : 1;
  config.vcs = config.kind == topology::NetworkKind::kVMIN ||
                       config.kind == topology::NetworkKind::kBMIN
                   ? static_cast<unsigned>(vcs)
                   : 1;
  if (config.kind == topology::NetworkKind::kBMIN && vcs == 2) {
    config.vcs = 1;  // plain BMIN unless explicitly requested
  }
  config.extra_stages = static_cast<unsigned>(extra);
  config.splitter_dilation = static_cast<unsigned>(splitter);

  const topology::Network net = topology::build_network(config);
  const topology::TopologySpec& spec = net.topology();
  const util::RadixSpec& addr = net.address_spec();

  std::cout << "network: " << config.describe() << "  (" << net.node_count()
            << " nodes, " << net.switches().size() << " switches, "
            << net.channels().size() << " channels, " << net.lane_count()
            << " lanes)\n\n";

  std::cout << "connection patterns (digit layouts, MSD first):\n";
  for (unsigned i = 0; i <= spec.stages(); ++i) {
    std::cout << "  C" << i << " = " << spec.connection(i).describe() << "\n";
  }
  std::cout << "\nrouting tags: ";
  for (unsigned i = 0; i < spec.stages(); ++i) {
    std::cout << "t" << i << "=d" << spec.tag_digit(i)
              << (i + 1 < spec.stages() ? ", " : "\n");
  }
  std::cout << "\nsymbolic channel-address trace:\n"
            << spec.trace().describe(spec.stages()) << "\n";

  std::cout << "channel map:\n";
  util::Table table({"channel", "role", "level", "address", "from", "to",
                     "lanes"});
  auto endpoint_name = [&](const topology::Endpoint& ep) {
    std::string name = ep.is_node() ? "node " : "G";
    if (ep.is_node()) {
      name += addr.format(ep.id);
      return name;
    }
    const topology::Switch& sw = net.switch_ref(ep.id);
    name += std::to_string(sw.stage);
    name += '.';
    name += std::to_string(sw.index);
    name += ep.side == topology::Side::kLeft ? ".l" : ".r";
    name += std::to_string(ep.port);
    return name;
  };
  for (const topology::PhysChannel& ch : net.channels()) {
    table.row()
        .cell(static_cast<std::uint64_t>(ch.id))
        .cell(topology::role_name(ch.role))
        .cell(static_cast<std::uint64_t>(ch.conn_index))
        .cell(addr.format(ch.address))
        .cell(endpoint_name(ch.src))
        .cell(endpoint_name(ch.dst))
        .cell(static_cast<std::uint64_t>(ch.num_lanes));
  }
  table.print(std::cout);
  return 0;
}
