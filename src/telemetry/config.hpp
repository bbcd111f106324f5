// Telemetry collection knobs.
//
// The engine compiles its telemetry hooks down to a null-pointer test when
// everything here is off, so the default-constructed config is safe to
// leave in every SimConfig.  No gate holds the cost of counters and
// sampling.  Last measured when the engine micro-benchmark was removed
// (quick mode, 11 64-node configurations): 0.8-5.5%, median 2.8%.
//
// The trace, heartbeat and profile fields default to their WORMSIM_*
// variables, read when the config is constructed; an explicit assignment,
// such as a CLI flag's, always wins (DESIGN.md §10, "The switch rule").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/cli.hpp"

namespace wormsim::telemetry {

struct TelemetryConfig {
  /// Accumulate per-lane flit crossings, per-lane blocked-header cycles,
  /// and per-switch arbitration grant/denial counters over the
  /// measurement window (post-processed into a ChannelHeatmap).
  bool counters = false;

  /// Record an interval snapshot (delivered flits, in-flight worms, mean
  /// source-queue depth) every `sample_interval_cycles` into a ring buffer
  /// holding the last `sample_capacity` snapshots.
  bool sampling = false;
  std::uint64_t sample_interval_cycles = 1'024;
  std::size_t sample_capacity = 512;

  /// Record a full per-worm lifecycle trace (telemetry/worm_trace.hpp):
  /// queue/routing/blocked/streaming decomposition with blocked intervals
  /// attributed to the culprit lane + worm.  Defaults to WORMSIM_TRACE.
  /// Memory scales with messages injected; intended for single figure
  /// points, not full sweeps.
  bool worm_trace = util::env_bool_or("WORMSIM_TRACE", false);

  /// Streaming run heartbeats (telemetry/run_monitor.hpp, DESIGN.md §15):
  /// every `heartbeat_cycles` cycles the engine appends one NDJSON
  /// snapshot line (cycle, wall time, cycles/sec, flit counters, worms in
  /// flight, per-stage occupancy, drain progress) to
  /// `<heartbeat_dir>/<heartbeat_tag>.ndjson` and atomically rewrites
  /// `<heartbeat_dir>/<heartbeat_tag>.status.json` for cheap polling.
  /// 0 disables.  The cadence defaults to WORMSIM_HEARTBEAT and the
  /// directory to WORMSIM_HEARTBEAT_DIR.  Zero-feedback: golden digests
  /// are bitwise unchanged with heartbeats on.
  std::uint64_t heartbeat_cycles = util::env_u64_or("WORMSIM_HEARTBEAT", 0);
  std::string heartbeat_dir =
      util::env_string_or("WORMSIM_HEARTBEAT_DIR", "");
  /// Stream file basename; sweeps derive one per point from the series
  /// label + offered load when empty ("run" for standalone engines).
  std::string heartbeat_tag;

  /// Engine phase self-profiler (telemetry/profiler.hpp): attributes the
  /// run's wall time to the step() phases (arrivals, routing, advance
  /// decide/apply, flow control, the fault kill, telemetry, validate)
  /// and surfaces them in the RunManifest and `telemetry_report
  /// --profile`.  Defaults to WORMSIM_PROFILE.  Zero-feedback like the
  /// heartbeats; costs a few steady_clock reads per cycle when on.
  bool profile = util::env_bool_or("WORMSIM_PROFILE", false);
};

}  // namespace wormsim::telemetry
