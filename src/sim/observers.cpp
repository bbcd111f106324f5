#include "sim/observers.hpp"

#include <algorithm>
#include <utility>

#include "sim/metrics.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

Observers::Observers(const topology::NetView& network,
                     const SimConfig& config, const char* engine,
                     telemetry::Counters* counters) {
  const telemetry::TelemetryConfig& tel = config.telemetry;
  if (counters != nullptr && tel.counters) {
    counters->resize_for(network.lane_count(), network.switch_count());
    counters_ = counters;
    window_begin_ = config.warmup_cycles;
    window_end_ = config.warmup_cycles + config.measure_cycles;
  }
  if (counters != nullptr && tel.sampling) {
    WORMSIM_CHECK(tel.sample_interval_cycles > 0);
    sample_interval_ = tel.sample_interval_cycles;
    sampler_ = telemetry::IntervalSampler(tel.sample_capacity);
  }
  if (tel.worm_trace) {
    tracer_ = std::make_shared<telemetry::WormTracer>(network.lane_count(),
                                                      network.channel_count());
  }
  if (tel.heartbeat_cycles > 0) {
    telemetry::RunMonitor::RunInfo info;
    info.dir = tel.heartbeat_dir;
    info.tag = tel.heartbeat_tag;
    info.heartbeat_cycles = tel.heartbeat_cycles;
    info.warmup_cycles = config.warmup_cycles;
    info.measure_cycles = config.measure_cycles;
    info.drain_cycles = config.drain_cycles;
    info.node_count = network.node_count();
    info.engine = engine;
    monitor_.emplace(std::move(info));
    heartbeat_next_ = tel.heartbeat_cycles;
    stage_lanes_ = telemetry::build_stage_lane_intervals(network);
  }
  if (counters != nullptr && tel.profile) profiler_.emplace();
}

void Observers::finish(SimResult& result,
                       const telemetry::HeartbeatSnapshot& last,
                       double run_seconds) {
  result.telemetry_samples = sampler_.ordered();
  result.worm_trace = tracer_;
  if (monitor_) {
    monitor_->finalize(last, result.drained,
                       static_cast<double>(result.time_to_drain_cycles) /
                           topology::kFlitsPerMicrosecond);
    result.saturation_onset_cycle = monitor_->saturation_onset_cycle();
    result.fault_onset_cycle = monitor_->fault_onset_cycle();
  }
  if (profiler_) {
    profiler_->set_total_seconds(run_seconds);
    result.phase_profile = profiler_->profile();
  }
}

void record_drain(const std::vector<PacketState>& packets,
                  const SimConfig& config, SimResult& result) {
  const std::uint64_t measure_end =
      config.warmup_cycles + config.measure_cycles;
  std::uint64_t last_resolved = 0;
  bool all_resolved = true;
  for (const PacketState& pkt : packets) {
    if (pkt.measured && !pkt.delivered()) {
      ++result.measured_messages_unfinished;
    }
    if (pkt.create_cycle >= measure_end) continue;
    if (pkt.delivered()) {
      last_resolved = std::max(last_resolved, pkt.deliver_cycle);
    } else if (pkt.terminated()) {
      last_resolved = std::max(last_resolved, pkt.terminate_cycle);
    } else {
      all_resolved = false;
    }
  }
  result.drained = all_resolved;
  result.time_to_drain_cycles =
      all_resolved
          ? (last_resolved > measure_end ? last_resolved - measure_end : 0)
          : config.drain_cycles;
}

}  // namespace wormsim::sim
