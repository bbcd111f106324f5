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

void DrainTally::finish(SimResult& result) const {
  result.measured_messages_unfinished = unfinished_measured_;
  result.drained = open_ == 0;
  result.time_to_drain_cycles =
      open_ == 0 ? (last_resolved_ > measure_end_
                        ? last_resolved_ - measure_end_
                        : 0)
                 : drain_cycles_;
}

}  // namespace wormsim::sim
