#include "sim/fault_injection/plan.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace wormsim::sim::fault_injection {

namespace {

bool is_interior(const topology::PhysChannel& ch) {
  return ch.src.is_switch() && ch.dst.is_switch();
}

void insert_sorted_unique(std::vector<topology::ChannelId>& channels,
                          topology::ChannelId id) {
  const auto it = std::lower_bound(channels.begin(), channels.end(), id);
  if (it != channels.end() && *it == id) return;
  channels.insert(it, id);
}

}  // namespace

FaultPlan build_fault_plan(const topology::NetView& view, double fraction,
                           std::uint64_t seed, std::uint64_t at_cycle) {
  FaultPlan plan;
  plan.at_cycle = at_cycle;
  if (fraction <= 0.0) return plan;
  WORMSIM_CHECK_MSG(fraction <= 1.0, "fault fraction must be in [0, 1]");
  // One Bernoulli draw per interior channel in ascending id order: the
  // dead set depends only on (topology, fraction, seed), never on the
  // backend or the traffic stream.
  util::Rng rng(seed);
  view.for_each_channel([&](const topology::PhysChannel& ch) {
    if (!is_interior(ch)) return;
    if (rng.chance(fraction)) plan.channels.push_back(ch.id);
  });
  return plan;
}

void add_channel_kill(FaultPlan& plan, const topology::NetView& view,
                      topology::ChannelId channel) {
  WORMSIM_CHECK(channel < view.channel_count());
  const topology::PhysChannel ch = view.channel(channel);
  WORMSIM_CHECK_MSG(is_interior(ch),
                    "only switch<->switch channels can fault: a dead "
                    "node link just removes the one-port node");
  insert_sorted_unique(plan.channels, channel);
}

}  // namespace wormsim::sim::fault_injection
