#include "telemetry/chrome_trace.hpp"

#include <map>
#include <ostream>
#include <set>

#include "telemetry/json.hpp"

namespace wormsim::telemetry {

using sim::TraceEvent;
using topology::LaneId;
using topology::PhysChannel;

namespace {

// Track ids: switches keep their switch id as pid; node endpoints get a
// disjoint pid range above every switch id.
std::int64_t endpoint_pid(const topology::Network& network,
                          const topology::Endpoint& endpoint) {
  if (endpoint.is_switch()) return endpoint.id;
  return static_cast<std::int64_t>(network.switches().size()) + endpoint.id;
}

struct Occupancy {
  std::uint64_t first_cycle = 0;
  std::uint64_t last_cycle = 0;
  std::uint32_t flits = 0;
};

}  // namespace

std::size_t write_chrome_trace(const std::vector<TraceEvent>& events,
                               const topology::Network& network,
                               std::ostream& os,
                               const ChromeTraceOptions& options) {
  // Pass 1: collapse flit moves into per-(packet, lane) occupancy spans.
  // A worm occupies a lane from its header crossing to its tail crossing;
  // map key order (packet, lane, first cycle) keeps output deterministic.
  std::map<std::pair<sim::PacketId, LaneId>, Occupancy> spans;
  for (const TraceEvent& event : events) {
    if (event.kind != TraceEvent::Kind::kFlitMoved) continue;
    auto [it, inserted] =
        spans.try_emplace({event.packet, event.lane}, Occupancy{});
    Occupancy& span = it->second;
    if (inserted) span.first_cycle = event.cycle;
    span.last_cycle = event.cycle;
    ++span.flits;
  }

  const double scale = 1.0 / topology::kFlitsPerMicrosecond;
  JsonValue trace_events = JsonValue::array();
  std::set<std::int64_t> pids_seen;
  for (const auto& [key, span] : spans) {
    const auto [packet, lane] = key;
    const PhysChannel& channel = network.lane_channel(lane);
    const std::int64_t pid = endpoint_pid(network, channel.dst);
    pids_seen.insert(pid);

    JsonValue slice = JsonValue::object();
    slice.set("name", "worm " + std::to_string(packet));
    slice.set("cat", "worm");
    slice.set("ph", "X");
    slice.set("ts", static_cast<double>(span.first_cycle) * scale);
    // A span covering cycles [first, last] occupies last - first + 1.
    slice.set("dur",
              static_cast<double>(span.last_cycle - span.first_cycle + 1) *
                  scale);
    slice.set("pid", pid);
    slice.set("tid", static_cast<std::int64_t>(lane));
    JsonValue args = JsonValue::object();
    args.set("packet", static_cast<std::int64_t>(packet));
    args.set("channel", static_cast<std::int64_t>(channel.id));
    args.set("lane", static_cast<std::int64_t>(lane));
    args.set("flits", static_cast<std::int64_t>(span.flits));
    slice.set("args", std::move(args));
    trace_events.push_back(std::move(slice));
  }
  const std::size_t slices = trace_events.items().size();

  if (options.metadata) {
    for (std::int64_t pid : pids_seen) {
      JsonValue meta = JsonValue::object();
      meta.set("name", "process_name");
      meta.set("ph", "M");
      meta.set("pid", pid);
      JsonValue args = JsonValue::object();
      const auto switch_count =
          static_cast<std::int64_t>(network.switches().size());
      if (pid < switch_count) {
        const topology::Switch& sw =
            network.switch_ref(static_cast<topology::SwitchId>(pid));
        args.set("name", "switch " + std::to_string(sw.id) + " (stage " +
                             std::to_string(sw.stage) + ")");
      } else {
        args.set("name", "node " + std::to_string(pid - switch_count));
      }
      meta.set("args", std::move(args));
      trace_events.push_back(std::move(meta));
    }
  }

  JsonValue document = JsonValue::object();
  document.set("traceEvents", std::move(trace_events));
  document.set("displayTimeUnit", "ms");
  document.dump(os, /*indent=*/-1);
  return slices;
}

}  // namespace wormsim::telemetry
