#include "sim/trace.hpp"

#include <algorithm>

namespace wormsim::sim {

std::vector<topology::ChannelId> RecordingTraceSink::route_of(
    PacketId packet, const topology::Network& network) const {
  std::vector<topology::ChannelId> route;
  for (const TraceEvent& event : events_) {
    if (event.packet != packet ||
        event.kind != TraceEvent::Kind::kFlitMoved) {
      continue;
    }
    const topology::ChannelId ch = network.lane(event.lane).channel;
    if (std::find(route.begin(), route.end(), ch) == route.end()) {
      route.push_back(ch);
    }
  }
  return route;
}

std::vector<TraceEvent> RecordingTraceSink::packet_events(
    PacketId packet) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : events_) {
    if (event.packet == packet) out.push_back(event);
  }
  return out;
}

PacketTimeline RecordingTraceSink::timeline(PacketId packet) const {
  PacketTimeline timeline;
  for (const TraceEvent& event : events_) {
    if (event.packet != packet) continue;
    switch (event.kind) {
      case TraceEvent::Kind::kCreated:
        timeline.created = event.cycle;
        break;
      case TraceEvent::Kind::kFlitMoved:
        if (event.flit_seq == 0 && timeline.injected == kNoCycle) {
          timeline.injected = event.cycle;
        }
        break;
      case TraceEvent::Kind::kDelivered:
        timeline.delivered = event.cycle;
        break;
      case TraceEvent::Kind::kTerminated:
        timeline.terminated = event.cycle;
        break;
      case TraceEvent::Kind::kRouted:
        break;
    }
  }
  return timeline;
}

}  // namespace wormsim::sim
