// Streaming run observability (DESIGN.md §15).
//
// A RunMonitor makes a long simulation inspectable while it executes:
// both engines tick it on a configurable cycle cadence
// (TelemetryConfig::heartbeat_cycles, default WORMSIM_HEARTBEAT), and every
// tick appends one NDJSON snapshot line to
// `<heartbeat_dir>/<heartbeat_tag>.ndjson` and rewrites
// `<heartbeat_dir>/<heartbeat_tag>.status.json` with write_json_file
// (telemetry/json.hpp: temp file + rename, so a poller —
// `telemetry_report --watch` — never reads a torn file).
//
// Stream schema (one JSON object per line):
//   {"type":"start", ...run identity, cadence, cycle budget...}
//   {"type":"heartbeat","cycle":...,"phase":"warmup|measure|drain",
//    counters..., "stage_occupancy":[...], wall-clock fields...}
//   {"type":"fault","cycle":...,"transition":"kill",...}
//   {"type":"final","cycle":...,"drained":...,onset fields...}
// Every field except `wall_seconds`, `cycles_per_second`, and
// `window_cycles_per_second` is a pure function of the simulation
// state, so two runs of the same config produce byte-identical streams
// modulo those three keys (pinned by tests/heartbeat_test.cpp).
//
// The monitor also runs the onset detector: the first heartbeat window
// where acceptance stops tracking injection while source queues grow
// (saturation onset) and the first window where fault terminations
// appear (fault onset), recorded in the final line, status.json, and —
// via SimResult — the sweep results JSON.
//
// Zero-feedback like the worm tracer: the engines read their own
// counters to fill a snapshot, never the other way around, so golden
// digests are bitwise unchanged with heartbeats on; heartbeats-off is
// the exact fast path (one null-pointer test per cycle).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"
#include "topology/net_view.hpp"

namespace wormsim::telemetry {

/// Sentinel for "onset never detected" (mirrors sim::kNoCycle, which
/// telemetry cannot include).
inline constexpr std::uint64_t kNoOnset = ~std::uint64_t{0};

/// One engine-built snapshot.  Every field is deterministic; the
/// monitor adds the wall-clock-derived fields at emission time.
struct HeartbeatSnapshot {
  std::uint64_t cycle = 0;
  std::uint64_t messages_created = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_terminated = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t flits_terminated = 0;
  std::int64_t flits_in_flight = 0;
  std::int64_t worms_in_flight = 0;
  std::uint64_t queued_messages = 0;
  std::uint64_t dropped_messages = 0;
  std::uint64_t faulty_channels = 0;
  /// Flits (wormhole) or packets (store-and-forward) buffered per switch
  /// stage, ejection buffers in the last slot.
  std::vector<std::uint64_t> stage_occupancy;
};

class RunMonitor {
 public:
  struct RunInfo {
    std::string dir;
    std::string tag = "run";
    std::uint64_t heartbeat_cycles = 0;
    std::uint64_t warmup_cycles = 0;
    std::uint64_t measure_cycles = 0;
    std::uint64_t drain_cycles = 0;
    std::uint64_t node_count = 0;
    /// "wormhole" or "store_forward".
    std::string engine = "wormhole";
  };

  /// Creates `info.dir` if needed, truncates the stream file, and writes
  /// the "start" line plus the initial status.json.
  explicit RunMonitor(RunInfo info);

  std::uint64_t interval() const { return info_.heartbeat_cycles; }

  /// Appends one heartbeat line and updates the onset detector.  The
  /// expensive parts — the stream flush (a write syscall) and the
  /// status.json rewrite (open + dump + rename) — are throttled to at
  /// most one per kSyncIntervalSeconds of wall time: the stream still
  /// records every window (buffered), watchers poll at ~1 Hz anyway,
  /// and the throttle is what keeps chatty cadences inside the 1.05x
  /// overhead budget (CI's heartbeat budget step, DESIGN.md §15).  A
  /// crashed run can lose at most the last interval's buffered lines;
  /// fault lines and finalize() always sync.
  void on_heartbeat(const HeartbeatSnapshot& snap);

  static constexpr double kSyncIntervalSeconds = 0.25;

  /// Appends the fault line of a kill of `channels` channels.
  void on_fault(std::uint64_t cycle, std::uint64_t channels);

  /// Emits the final partial window (when the run length is not a
  /// multiple of the cadence), then the "final" line and the terminal
  /// status.json rewrite.
  void finalize(const HeartbeatSnapshot& snap, bool drained,
                double time_to_drain_us);

  /// kNoOnset when never detected.
  std::uint64_t saturation_onset_cycle() const { return saturation_onset_; }
  std::uint64_t fault_onset_cycle() const { return fault_onset_; }

 private:
  const char* phase_of(std::uint64_t cycle) const;
  double wall_seconds() const;
  void update_onsets(const HeartbeatSnapshot& snap);
  JsonValue heartbeat_json(const HeartbeatSnapshot& snap);
  void append_line(const JsonValue& line);
  void write_status(const HeartbeatSnapshot& snap, bool finished);

  RunInfo info_;
  std::string status_path_;
  std::ofstream stream_;
  std::chrono::steady_clock::time_point start_;
  double last_wall_ = 0.0;
  double last_sync_wall_ = 0.0;
  HeartbeatSnapshot last_{};
  std::uint64_t saturation_onset_ = kNoOnset;
  std::uint64_t fault_onset_ = kNoOnset;
  bool finalized_ = false;
};

/// Per-stage [lane_begin, lane_end) interval lists for the heartbeat
/// occupancy summary, built once when a monitor attaches: slot s < stages
/// holds the lanes buffering into stage-s switches, the last slot holds
/// the ejection lanes.  Stage-major channel allocation collapses each
/// list to ~one interval, so the per-heartbeat sum is a few contiguous
/// scans of the engine's lane-occupancy array.
std::vector<std::vector<std::pair<topology::LaneId, topology::LaneId>>>
build_stage_lane_intervals(const topology::NetView& network);

}  // namespace wormsim::telemetry
