// Chrome-trace (chrome://tracing / Perfetto) export of a recorded run.
//
// Converts the engine's flit-level TraceEvent stream into the Trace Event
// JSON format: one *process* track per switch (plus one per node for
// injection/ejection links), one *thread* per lane, and one complete "X"
// slice per worm occupancy of a lane — from the worm's first flit crossing
// the lane's channel until its tail crosses.  Blocking chains show up
// visually as stacked long slices upstream of a contended lane.
//
// Timestamps are microseconds (cycle / topology::kFlitsPerMicrosecond,
// the paper's 20 flits/us channel clock).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/trace.hpp"
#include "topology/network.hpp"

namespace wormsim::telemetry {

struct ChromeTraceOptions {
  /// Also emit process/thread name metadata events (nice in the viewer,
  /// noise in tests).
  bool metadata = true;
};

/// Writes the trace JSON document; returns the number of occupancy slices
/// emitted (0 for an event stream with no flit movement).
std::size_t write_chrome_trace(const std::vector<sim::TraceEvent>& events,
                               const topology::Network& network,
                               std::ostream& os,
                               const ChromeTraceOptions& options = {});

}  // namespace wormsim::telemetry
