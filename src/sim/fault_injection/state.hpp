// Runtime bookkeeping for applying a FaultPlan mid-run (DESIGN.md §14).
//
// The engines own the actual kill mechanics (truncating in-flight worms,
// releasing allocations, crediting drained buffer slots); FaultState only
// tracks *when* the plan's two transitions fire so both engines agree on
// the cycle boundaries: the kill lands at the start of plan.at_cycle
// (before arrivals, after the backpressure calendar drains), the repair
// at the start of plan.repair_cycle.
#pragma once

#include <cstdint>

#include "sim/fault_injection/plan.hpp"

namespace wormsim::sim::fault_injection {

struct FaultState {
  FaultPlan plan;
  bool applied = false;   ///< kill transition has fired
  bool repaired = false;  ///< repair transition has fired

  /// True exactly once: the first step whose cycle reached at_cycle.
  bool kill_due(std::uint64_t cycle) const {
    return !applied && !plan.empty() && cycle >= plan.at_cycle;
  }
  /// True exactly once after the kill, when repair_cycle is reached.
  bool repair_due(std::uint64_t cycle) const {
    return applied && !repaired && plan.repair_cycle != kNoCycle &&
           cycle >= plan.repair_cycle;
  }
  /// Channels are currently dead.
  bool active() const { return applied && !repaired; }
};

/// Aborts unless `plan` is well-formed for `view`: channel ids in range,
/// sorted ascending, unique, interior-only, and repair (if any) after the
/// kill.  Engines call this once at construction / set_fault_plan time.
void validate_plan(const topology::NetView& view, const FaultPlan& plan);

}  // namespace wormsim::sim::fault_injection
