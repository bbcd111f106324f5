// Trace a single worm through a network, cycle by cycle: the routing
// decisions (which lane each switch granted) and every flit transmission.
// A compact way to *watch* wormhole pipelining, VC multiplexing, and
// turnaround routing do their thing.
//
// Usage: trace_route [--kind=bmin] [--radix=2] [--stages=3]
//                    [--src=1] [--dst=5] [--flits=6] [--contender]

#include <iostream>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "topology/network.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wormsim;

  std::string kind = "bmin";
  std::int64_t radix = 2;
  std::int64_t stages = 3;
  std::int64_t src = 1;
  std::int64_t dst = 5;
  std::int64_t flits = 6;
  bool contender = false;
  util::CliParser cli("trace_route: watch one worm traverse the network");
  cli.add_flag("kind", &kind, "tmin, dmin, vmin, or bmin");
  cli.add_flag("radix", &radix, "switch degree k");
  cli.add_flag("stages", &stages, "stage count n");
  cli.add_flag("src", &src, "source node");
  cli.add_flag("dst", &dst, "destination node");
  cli.add_flag("flits", &flits, "message length");
  cli.add_flag("contender", &contender,
               "inject a competing worm to show blocking");
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }

  topology::NetworkConfig config;
  config.kind = kind == "tmin"   ? topology::NetworkKind::kTMIN
                : kind == "dmin" ? topology::NetworkKind::kDMIN
                : kind == "vmin" ? topology::NetworkKind::kVMIN
                                 : topology::NetworkKind::kBMIN;
  config.topology = "cube";
  config.radix = static_cast<unsigned>(radix);
  config.stages = static_cast<unsigned>(stages);
  config.dilation = config.kind == topology::NetworkKind::kDMIN ? 2 : 1;
  config.vcs = config.kind == topology::NetworkKind::kVMIN ? 2 : 1;

  const topology::Network net = topology::build_network(config);
  const auto router = routing::make_router(net);
  const util::RadixSpec& addr = net.address_spec();

  if (src == dst || static_cast<std::uint64_t>(dst) >= net.node_count() ||
      static_cast<std::uint64_t>(src) >= net.node_count()) {
    std::cerr << "need distinct nodes below " << net.node_count() << "\n";
    return 1;
  }

  sim::SimConfig sim_config;
  sim_config.warmup_cycles = 0;
  sim_config.measure_cycles = 1u << 30;
  sim_config.drain_cycles = 0;
  sim::Engine engine(net, *router, nullptr, sim_config);
  sim::RecordingTraceSink sink;
  engine.set_trace_sink(&sink);

  const sim::PacketId id = engine.inject_message(
      static_cast<topology::NodeId>(src),
      static_cast<std::uint64_t>(dst), static_cast<std::uint32_t>(flits));
  sim::PacketId rival = sim::kNoPacket;
  if (contender) {
    // A worm from another source to the same destination: watch the loser
    // stall until the winner's tail releases the ejection channel.
    const auto other = static_cast<topology::NodeId>(
        src == 0 ? net.node_count() - 1 : 0);
    rival = engine.inject_message(other, static_cast<std::uint64_t>(dst),
                                  static_cast<std::uint32_t>(flits));
  }
  if (!engine.run_until_idle(100'000)) {
    std::cerr << "did not drain\n";
    return 1;
  }

  auto lane_name = [&](topology::LaneId lane) {
    if (lane == topology::kInvalidId) return std::string("-");
    const topology::PhysChannel& ch = net.lane_channel(lane);
    std::string out = topology::role_name(ch.role);
    out += " ch";
    out += std::to_string(ch.id);
    if (ch.num_lanes > 1) {
      out += '.';
      out += std::to_string(net.lane(lane).lane_in_channel);
    }
    if (ch.dst.is_node()) {
      out += " ->node ";
      out += addr.format(ch.dst.id);
    } else {
      const topology::Switch& sw = net.switch_ref(ch.dst.id);
      out += " ->G";
      out += std::to_string(sw.stage);
      out += '.';
      out += std::to_string(sw.index);
    }
    return out;
  };

  std::cout << config.describe() << ": worm " << addr.format(src) << " -> "
            << addr.format(dst) << ", " << flits << " flits\n\n";
  util::Table table({"cycle", "packet", "event", "flit", "lane"});
  for (const sim::TraceEvent& event : sink.events()) {
    const char* what = "?";
    switch (event.kind) {
      case sim::TraceEvent::Kind::kCreated:
        what = "created";
        break;
      case sim::TraceEvent::Kind::kRouted:
        what = "routed";
        break;
      case sim::TraceEvent::Kind::kFlitMoved:
        what = "flit";
        break;
      case sim::TraceEvent::Kind::kDelivered:
        what = "delivered";
        break;
      case sim::TraceEvent::Kind::kTerminated:
        what = "terminated";
        break;
    }
    table.row()
        .cell(event.cycle)
        .cell(static_cast<std::uint64_t>(event.packet))
        .cell(std::string(what))
        .cell(static_cast<std::uint64_t>(event.flit_seq))
        .cell(lane_name(event.lane));
  }
  table.print(std::cout);

  // The engine reuses a delivered message's record, so the outcome comes
  // from the trace.
  const auto latency = [&](sim::PacketId packet) {
    const sim::PacketTimeline timeline = sink.timeline(packet);
    return timeline.delivered - timeline.created;
  };
  std::cout << "\nlatency: " << latency(id) << " cycles";
  if (rival != sim::kNoPacket) {
    std::cout << "; rival: " << latency(rival) << " cycles";
  }
  std::cout << "\n";
  return 0;
}
