// Runtime bookkeeping for applying a FaultPlan mid-run (DESIGN.md §14).
//
// The engines own the actual kill mechanics (truncating in-flight worms,
// releasing allocations, crediting drained buffer slots); FaultState only
// tracks *when* the plan's kill fires so both engines agree on the cycle
// boundary: the start of plan.at_cycle (before arrivals, after the
// backpressure calendar drains).  The kill is permanent.
#pragma once

#include <cstdint>

#include "sim/fault_injection/plan.hpp"

namespace wormsim::sim::fault_injection {

struct FaultState {
  FaultPlan plan;
  bool applied = false;  ///< the kill has fired

  /// True exactly once: the first step whose cycle reached at_cycle.
  bool kill_due(std::uint64_t cycle) const {
    return !applied && !plan.empty() && cycle >= plan.at_cycle;
  }
};

/// Aborts unless `plan` is well-formed for `view`: channel ids in range,
/// sorted ascending, unique and interior-only.  Engines call this once at
/// construction / set_fault_plan time.
void validate_plan(const topology::NetView& view, const FaultPlan& plan);

}  // namespace wormsim::sim::fault_injection
