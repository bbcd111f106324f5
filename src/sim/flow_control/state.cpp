#include "sim/flow_control/state.hpp"

namespace wormsim::sim {

const char* to_string(FlowControlScheme scheme) {
  switch (scheme) {
    case FlowControlScheme::kCredit: return "credit";
    case FlowControlScheme::kOnOff: return "onoff";
    case FlowControlScheme::kVirtualCutThrough: return "vct";
  }
  return "?";
}

std::optional<FlowControlScheme> parse_flow_control(std::string_view name) {
  if (name == "credit") return FlowControlScheme::kCredit;
  if (name == "onoff" || name == "on_off" || name == "on-off") {
    return FlowControlScheme::kOnOff;
  }
  if (name == "vct" || name == "cut-through" || name == "cut_through") {
    return FlowControlScheme::kVirtualCutThrough;
  }
  return std::nullopt;
}

void FlowControlState::configure(std::size_t lane_count, FlowControlScheme s,
                                 std::uint32_t buffer_depth,
                                 std::uint32_t credit_delay) {
  scheme = s;
  depth = buffer_depth;
  delay = credit_delay;
  WORMSIM_CHECK_MSG(depth >= 1, "buffer_depth must be at least one flit");
  if (scheme == FlowControlScheme::kOnOff) {
    // STOP must leave room for the flits a sender can still emit while
    // the signal travels, or the buffer overflows.
    WORMSIM_CHECK_MSG(depth > delay,
                      "on/off flow control needs buffer_depth > credit_delay");
    off_threshold = depth - delay;
    on_threshold = off_threshold / 2;
  } else {
    off_threshold = depth;
    on_threshold = 0;
  }
  lanes = lane_count;
  slot_packet.assign(lane_count * depth, kNoPacket);
  slot_seq.assign(lane_count * depth, 0);
  stamp.assign(lane_count, kNoCycle);
  count.assign(lane_count, 0);
  credits.assign(lane_count, depth);
  stopped.assign(lane_count, 0);
  events.clear();
  starve_since.assign(lane_count, kNoCycle);
}

void EventCalendar::grow() {
  std::vector<FlowControlEvent> wider(ring_.empty() ? 16 : 2 * ring_.size());
  for (std::size_t i = 0; i < size_; ++i) wider[i] = (*this)[i];
  ring_.swap(wider);
  mask_ = ring_.size() - 1;
  head_ = 0;
}

std::uint32_t FlowControlState::erase(topology::LaneId lane, PacketId pkt) {
  const std::uint32_t held = count[lane];
  std::uint32_t kept = 0;
  for (std::uint32_t s = 0; s < held; ++s) {
    const std::size_t from = slot(lane, s);
    if (slot_packet[from] == pkt) continue;
    const std::size_t to = slot(lane, kept++);
    slot_packet[to] = slot_packet[from];
    slot_seq[to] = slot_seq[from];
  }
  for (std::uint32_t s = kept; s < held; ++s) {
    slot_packet[slot(lane, s)] = kNoPacket;
  }
  count[lane] = kept;
  return held - kept;
}

}  // namespace wormsim::sim
