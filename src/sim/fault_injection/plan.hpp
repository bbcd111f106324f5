// Deterministic runtime fault plans (ROADMAP item 5, DESIGN.md §14).
//
// A FaultPlan is the full description of one fault scenario: the set of
// interior (switch<->switch) channels to kill and the cycle the kill
// lands; a kill is permanent.  Plans are built *before* the run from a
// dedicated seed — never from the engine's traffic RNG — so the same
// (topology, fraction, seed) triple names the same dead-channel set on
// every engine and backend, and the static
// `analysis::fault_coverage` cross-check can be computed from the very
// same channel list the engines kill at runtime.
//
// Only interior channels are ever faulted: a dead injection or ejection
// link just removes the node from the experiment, which says nothing
// about the network.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/net_view.hpp"

namespace wormsim::sim::fault_injection {

struct FaultPlan {
  /// Interior channel ids to kill, sorted ascending, unique.
  std::vector<topology::ChannelId> channels;
  /// Cycle the kill is applied (start of the cycle, before arrivals).
  std::uint64_t at_cycle = 0;

  bool empty() const { return channels.empty(); }
};

/// Seed-driven plan: every switch<->switch channel dies independently
/// with probability `fraction`, drawn from a dedicated Rng(seed) in
/// ascending channel-id order (backend-independent).  `fraction <= 0`
/// returns an empty plan.
FaultPlan build_fault_plan(const topology::NetView& view, double fraction,
                           std::uint64_t seed, std::uint64_t at_cycle);

/// Adds one interior channel to `plan` (keeps the list sorted unique).
/// Aborts on injection/ejection channels.
void add_channel_kill(FaultPlan& plan, const topology::NetView& view,
                      topology::ChannelId channel);

}  // namespace wormsim::sim::fault_injection
