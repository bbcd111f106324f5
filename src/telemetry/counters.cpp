#include "telemetry/counters.hpp"

#include <numeric>

namespace wormsim::telemetry {

namespace {
std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}
}  // namespace

std::uint64_t Counters::total_flit_crossings() const { return sum(lane_flits); }
std::uint64_t Counters::total_blocked_cycles() const { return sum(lane_blocked); }
std::uint64_t Counters::total_grants() const { return sum(switch_grants); }
std::uint64_t Counters::total_denials() const { return sum(switch_denials); }
std::uint64_t Counters::total_credit_starved_cycles() const {
  return sum(lane_credit_starved);
}
std::uint64_t Counters::total_fault_terminated_flits() const {
  return sum(lane_fault_terminated);
}

std::uint64_t Counters::channel_flits(const topology::NetView& network,
                                      topology::ChannelId channel) const {
  const topology::PhysChannel ch = network.channel(channel);
  std::uint64_t flits = 0;
  for (unsigned v = 0; v < ch.num_lanes; ++v) {
    flits += lane_flits.at(ch.first_lane + v);
  }
  return flits;
}

}  // namespace wormsim::telemetry
