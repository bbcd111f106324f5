#include "sim/fault_injection/state.hpp"

#include "util/check.hpp"

namespace wormsim::sim::fault_injection {

void validate_plan(const topology::NetView& view, const FaultPlan& plan) {
  if (plan.empty()) return;
  topology::ChannelId prev = topology::kInvalidId;
  for (const topology::ChannelId id : plan.channels) {
    WORMSIM_CHECK_MSG(id < view.channel_count(),
                      "fault plan channel id out of range");
    WORMSIM_CHECK_MSG(prev == topology::kInvalidId || id > prev,
                      "fault plan channels must be sorted unique");
    const topology::PhysChannel ch = view.channel(id);
    WORMSIM_CHECK_MSG(ch.src.is_switch() && ch.dst.is_switch(),
                      "fault plans may only kill switch<->switch "
                      "channels");
    prev = id;
  }
}

}  // namespace wormsim::sim::fault_injection
