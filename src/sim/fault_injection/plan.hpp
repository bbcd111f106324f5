// Deterministic runtime fault plans (ROADMAP item 5, DESIGN.md §14).
//
// A FaultPlan is the full description of one fault scenario: the set of
// interior (switch<->switch) channels to kill, the cycle the kill lands,
// and an optional repair cycle.  Plans are built *before* the run from a
// dedicated seed — never from the engine's traffic RNG — so the same
// (topology, fraction, seed) triple names the same dead-channel set on
// every engine and backend, and the static
// `analysis::fault_coverage` cross-check can be computed from the very
// same channel list the engines kill at runtime.
//
// Only interior channels are ever faulted: a dead injection or ejection
// link just removes the node from the experiment, which says nothing
// about the network (engine::fail_channel enforces the same rule).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "topology/net_view.hpp"

namespace wormsim::sim::fault_injection {

struct FaultPlan {
  /// Interior channel ids to kill, sorted ascending, unique.
  std::vector<topology::ChannelId> channels;
  /// Cycle the kill is applied (start of the cycle, before arrivals).
  std::uint64_t at_cycle = 0;
  /// Cycle the channels come back, kNoCycle for a permanent fault.
  std::uint64_t repair_cycle = kNoCycle;

  bool empty() const { return channels.empty(); }
};

/// Seed-driven plan: every switch<->switch channel dies independently
/// with probability `fraction`, drawn from a dedicated Rng(seed) in
/// ascending channel-id order (backend-independent).  `fraction <= 0`
/// returns an empty plan; repair_cycle = kNoCycle means no repair.
FaultPlan build_fault_plan(const topology::NetView& view, double fraction,
                           std::uint64_t seed, std::uint64_t at_cycle,
                           std::uint64_t repair_cycle = kNoCycle);

/// Adds one interior channel to `plan` (keeps the list sorted unique).
/// Aborts on injection/ejection channels, mirroring engine::fail_channel.
void add_channel_kill(FaultPlan& plan, const topology::NetView& view,
                      topology::ChannelId channel);

/// Kills a whole switch: every interior channel whose src or dst is
/// `sw`.  Injection/ejection links of attached nodes are left alive —
/// their worms die at the switch, which is the observable effect.
void add_switch_kill(FaultPlan& plan, const topology::NetView& view,
                     topology::SwitchId sw);

}  // namespace wormsim::sim::fault_injection
