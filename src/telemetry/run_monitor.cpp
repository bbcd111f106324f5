#include "telemetry/run_monitor.hpp"

#include <filesystem>
#include <utility>

#include "util/check.hpp"

namespace wormsim::telemetry {

std::vector<std::vector<std::pair<topology::LaneId, topology::LaneId>>>
build_stage_lane_intervals(const topology::NetView& network) {
  const std::size_t stages = network.stages();
  std::vector<std::vector<std::pair<topology::LaneId, topology::LaneId>>>
      intervals(stages + 1);
  network.for_each_channel([&](const topology::PhysChannel& ch) {
    const std::size_t slot =
        ch.dst.is_switch() ? network.switch_stage(ch.dst.id) : stages;
    auto& list = intervals[slot];
    const topology::LaneId begin = ch.first_lane;
    const topology::LaneId end = ch.first_lane + ch.num_lanes;
    if (!list.empty() && list.back().second == begin) {
      list.back().second = end;  // stage-major layout: extend in place
    } else {
      list.emplace_back(begin, end);
    }
  });
  return intervals;
}

RunMonitor::RunMonitor(RunInfo info)
    : info_(std::move(info)), start_(std::chrono::steady_clock::now()) {
  WORMSIM_CHECK(info_.heartbeat_cycles > 0);
  if (info_.tag.empty()) info_.tag = "run";
  std::filesystem::create_directories(info_.dir.empty() ? "." : info_.dir);
  const std::string base =
      (info_.dir.empty() ? std::string(".") : info_.dir) + "/" + info_.tag;
  status_path_ = base + ".status.json";
  stream_.open(base + ".ndjson", std::ios::trunc);
  WORMSIM_CHECK_MSG(stream_.good(), "cannot open heartbeat stream file");

  JsonValue line = JsonValue::object();
  line.set("type", "start");
  line.set("tag", info_.tag);
  line.set("engine", info_.engine);
  line.set("heartbeat_cycles", info_.heartbeat_cycles);
  line.set("warmup_cycles", info_.warmup_cycles);
  line.set("measure_cycles", info_.measure_cycles);
  line.set("drain_cycles", info_.drain_cycles);
  line.set("node_count", info_.node_count);
  append_line(line);
  stream_.flush();
  write_status(last_, /*finished=*/false);
}

const char* RunMonitor::phase_of(std::uint64_t cycle) const {
  if (cycle <= info_.warmup_cycles) return "warmup";
  if (cycle <= info_.warmup_cycles + info_.measure_cycles) return "measure";
  return "drain";
}

double RunMonitor::wall_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void RunMonitor::update_onsets(const HeartbeatSnapshot& snap) {
  // Only pre-drain windows count: once sources are past the measurement
  // window the delivered/created balance shifts by construction.
  const bool pre_drain =
      snap.cycle <= info_.warmup_cycles + info_.measure_cycles;
  const std::uint64_t window_created =
      snap.messages_created - last_.messages_created;
  const std::uint64_t window_delivered =
      snap.messages_delivered - last_.messages_delivered;
  const std::uint64_t queue_growth =
      snap.queued_messages > last_.queued_messages
          ? snap.queued_messages - last_.queued_messages
          : 0;
  // Saturation = injection outrunning acceptance, which shows up as
  // source queues absorbing a material share of the window's new
  // messages.  The sample floor keeps sparse windows (tiny networks or
  // light loads, where one in-flight worm skews the ratios) from
  // tripping the detector; delivery lag alone is NOT a signal — during
  // pipeline fill delivery trails creation by the in-flight population
  // even at sustainable loads.
  constexpr std::uint64_t kMinWindowSample = 32;
  if (saturation_onset_ == kNoOnset && pre_drain &&
      window_created >= kMinWindowSample &&
      window_delivered < window_created &&
      static_cast<double>(queue_growth) >
          0.05 * static_cast<double>(window_created)) {
    saturation_onset_ = snap.cycle;
  }
  if (fault_onset_ == kNoOnset &&
      snap.messages_terminated > last_.messages_terminated) {
    fault_onset_ = snap.cycle;
  }
}

JsonValue RunMonitor::heartbeat_json(const HeartbeatSnapshot& snap) {
  JsonValue line = JsonValue::object();
  line.set("type", "heartbeat");
  line.set("cycle", snap.cycle);
  line.set("phase", phase_of(snap.cycle));
  line.set("messages_created", snap.messages_created);
  line.set("messages_delivered", snap.messages_delivered);
  line.set("messages_terminated", snap.messages_terminated);
  line.set("flits_delivered", snap.flits_delivered);
  line.set("flits_terminated", snap.flits_terminated);
  line.set("flits_in_flight", snap.flits_in_flight);
  line.set("worms_in_flight", snap.worms_in_flight);
  line.set("queued_messages", snap.queued_messages);
  line.set("dropped_messages", snap.dropped_messages);
  line.set("faulty_channels", snap.faulty_channels);
  line.set("window_messages_created",
           snap.messages_created - last_.messages_created);
  line.set("window_messages_delivered",
           snap.messages_delivered - last_.messages_delivered);
  line.set("window_flits_delivered",
           snap.flits_delivered - last_.flits_delivered);
  JsonValue occupancy = JsonValue::array();
  for (std::uint64_t flits : snap.stage_occupancy) occupancy.push_back(flits);
  line.set("stage_occupancy", std::move(occupancy));
  // Wall-clock fields last: everything above is deterministic, these
  // three are the only keys tests/readers must strip when comparing
  // streams across runs.
  const double wall = wall_seconds();
  line.set("wall_seconds", wall);
  line.set("cycles_per_second",
           wall > 0.0 ? static_cast<double>(snap.cycle) / wall : 0.0);
  const double window_wall = wall - last_wall_;
  line.set("window_cycles_per_second",
           window_wall > 0.0
               ? static_cast<double>(snap.cycle - last_.cycle) / window_wall
               : 0.0);
  return line;
}

void RunMonitor::append_line(const JsonValue& line) {
  line.dump(stream_, -1);
  stream_ << "\n";
}

void RunMonitor::write_status(const HeartbeatSnapshot& snap, bool finished) {
  const std::uint64_t total =
      info_.warmup_cycles + info_.measure_cycles + info_.drain_cycles;
  JsonValue doc = JsonValue::object();
  doc.set("tag", info_.tag);
  doc.set("engine", info_.engine);
  doc.set("heartbeat_cycles", info_.heartbeat_cycles);
  doc.set("node_count", info_.node_count);
  doc.set("total_cycles", total);
  doc.set("cycle", snap.cycle);
  doc.set("phase", phase_of(snap.cycle));
  doc.set("progress",
          total > 0 ? static_cast<double>(snap.cycle) /
                          static_cast<double>(total)
                    : 0.0);
  doc.set("finished", finished);
  doc.set("messages_created", snap.messages_created);
  doc.set("messages_delivered", snap.messages_delivered);
  doc.set("messages_terminated", snap.messages_terminated);
  doc.set("flits_delivered", snap.flits_delivered);
  doc.set("flits_in_flight", snap.flits_in_flight);
  doc.set("worms_in_flight", snap.worms_in_flight);
  doc.set("queued_messages", snap.queued_messages);
  doc.set("faulty_channels", snap.faulty_channels);
  if (saturation_onset_ != kNoOnset) {
    doc.set("saturation_onset_cycle", saturation_onset_);
  }
  if (fault_onset_ != kNoOnset) {
    doc.set("fault_onset_cycle", fault_onset_);
  }
  const double wall = wall_seconds();
  doc.set("wall_seconds", wall);
  doc.set("cycles_per_second",
          wall > 0.0 ? static_cast<double>(snap.cycle) / wall : 0.0);
  write_json_file(status_path_, doc);
}

void RunMonitor::on_heartbeat(const HeartbeatSnapshot& snap) {
  update_onsets(snap);
  append_line(heartbeat_json(snap));
  const double wall = wall_seconds();
  if (wall - last_sync_wall_ >= kSyncIntervalSeconds) {
    stream_.flush();
    write_status(snap, /*finished=*/false);
    last_sync_wall_ = wall;
  }
  last_wall_ = wall;
  last_ = snap;
}

void RunMonitor::on_fault(std::uint64_t cycle, std::uint64_t channels) {
  JsonValue line = JsonValue::object();
  line.set("type", "fault");
  line.set("cycle", cycle);
  line.set("transition", "kill");
  line.set("channels", channels);
  line.set("wall_seconds", wall_seconds());
  append_line(line);
  // A kill is rare and load-bearing for whoever is tailing the stream:
  // sync immediately.
  stream_.flush();
}

void RunMonitor::finalize(const HeartbeatSnapshot& snap, bool drained,
                          double time_to_drain_us) {
  if (finalized_) return;
  finalized_ = true;
  if (snap.cycle > last_.cycle) {
    // The run length was not a multiple of the cadence: emit the final
    // partial window so the stream covers every simulated cycle.
    update_onsets(snap);
    append_line(heartbeat_json(snap));
    last_wall_ = wall_seconds();
    last_ = snap;
  }
  JsonValue line = JsonValue::object();
  line.set("type", "final");
  line.set("cycle", snap.cycle);
  line.set("drained", drained);
  line.set("time_to_drain_us", time_to_drain_us);
  line.set("messages_created", snap.messages_created);
  line.set("messages_delivered", snap.messages_delivered);
  line.set("messages_terminated", snap.messages_terminated);
  if (saturation_onset_ != kNoOnset) {
    line.set("saturation_onset_cycle", saturation_onset_);
  }
  if (fault_onset_ != kNoOnset) {
    line.set("fault_onset_cycle", fault_onset_);
  }
  line.set("wall_seconds", wall_seconds());
  append_line(line);
  stream_.flush();
  write_status(snap, /*finished=*/true);
}

}  // namespace wormsim::telemetry
