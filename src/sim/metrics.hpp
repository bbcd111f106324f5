// Aggregated results of one simulation run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/run_monitor.hpp"
#include "telemetry/sampler.hpp"
#include "util/stats.hpp"

namespace wormsim::telemetry {
class WormTracer;
}

namespace wormsim::sim {

struct SimResult {
  /// End-to-end message latency in cycles (source queueing included),
  /// over messages created inside the measurement window.
  util::OnlineStats latency_cycles;
  /// Latency distribution (bin width 20 cycles = 1 us; overflow above
  /// 60k cycles); quantile() yields p50/p95/p99 in cycles.
  util::Histogram latency_histogram{20.0, 3000};
  /// Network-only latency (injection of header -> delivery of tail).
  util::OnlineStats network_latency_cycles;
  /// Source queueing delay (creation -> injection of header).
  util::OnlineStats queueing_cycles;

  std::uint64_t delivered_flits_in_window = 0;
  std::uint64_t generated_messages_in_window = 0;
  std::uint64_t generated_flits_in_window = 0;
  std::uint64_t delivered_messages_total = 0;
  std::uint64_t dropped_messages = 0;
  std::uint64_t max_source_queue = 0;
  std::uint64_t measured_messages_unfinished = 0;

  /// Worms killed by runtime fault injection (DESIGN.md §14): the
  /// message count and the in-network flits discarded by the kills.
  /// Always zero in fault-free runs, keeping golden digests unchanged.
  std::uint64_t terminated_messages = 0;
  std::uint64_t terminated_flits = 0;
  /// Cycles from the end of the measurement window until the network
  /// fully drained (no flits buffered, no node transmitting); equals
  /// drain_cycles with drained == false when it never emptied.
  std::uint64_t time_to_drain_cycles = 0;
  bool drained = false;

  std::uint64_t measure_cycles = 0;
  std::uint64_t node_count = 0;
  double flits_per_microsecond = 20.0;

  /// Busy cycles per physical channel over the measurement window (empty
  /// unless SimConfig::record_channel_utilization).
  std::vector<std::uint64_t> channel_busy_cycles;

  /// Measurement-window telemetry counters (empty unless
  /// SimConfig::telemetry.counters); feed telemetry::build_heatmap.
  telemetry::Counters telemetry_counters;
  /// Interval snapshots in chronological order (empty unless
  /// SimConfig::telemetry.sampling).
  std::vector<telemetry::Sample> telemetry_samples;

  /// Per-worm lifecycle trace (null unless SimConfig::telemetry.worm_trace
  /// or WORMSIM_TRACE=1).  Shared with the engine that filled it; not part
  /// of the golden digests — tracing never perturbs the simulation.
  std::shared_ptr<telemetry::WormTracer> worm_trace;

  /// Onset detector verdicts from the heartbeat monitor (DESIGN.md §15):
  /// first heartbeat-window boundary where acceptance stopped tracking
  /// injection while source queues grew, and where fault terminations
  /// first appeared.  telemetry::kNoOnset when never detected or
  /// heartbeats were off.  Diagnostics only — never part of the golden
  /// digests.
  std::uint64_t saturation_onset_cycle = telemetry::kNoOnset;
  std::uint64_t fault_onset_cycle = telemetry::kNoOnset;

  /// Wall-time attribution of the run loop to its phases (enabled=false
  /// unless SimConfig::telemetry.profile or WORMSIM_PROFILE=1).  Same
  /// diagnostics-only contract.
  telemetry::PhaseProfile phase_profile;

  /// Accepted throughput as a fraction of the theoretical maximum of one
  /// flit per node per cycle (the one-port ejection bound).
  double throughput_fraction() const {
    if (measure_cycles == 0 || node_count == 0) return 0.0;
    return static_cast<double>(delivered_flits_in_window) /
           (static_cast<double>(measure_cycles) *
            static_cast<double>(node_count));
  }

  /// Fraction of finished messages that were actually delivered (the
  /// rest were fault-terminated).  1.0 in fault-free runs; at near-zero
  /// load on a unique-path network this converges to the static
  /// analysis::fault_coverage of the same fault plan.
  double delivery_fraction() const {
    const std::uint64_t finished =
        delivered_messages_total + terminated_messages;
    if (finished == 0) return 1.0;
    return static_cast<double>(delivered_messages_total) /
           static_cast<double>(finished);
  }

  /// Offered load, same normalization.
  double offered_fraction() const {
    if (measure_cycles == 0 || node_count == 0) return 0.0;
    return static_cast<double>(generated_flits_in_window) /
           (static_cast<double>(measure_cycles) *
            static_cast<double>(node_count));
  }

  /// Sustainability per the paper: max source-queue length stayed within
  /// the limit.
  bool sustainable(std::uint64_t limit = 100) const {
    return max_source_queue <= limit && dropped_messages == 0;
  }

  double mean_latency_us() const {
    return latency_cycles.mean() / flits_per_microsecond;
  }
  double mean_network_latency_us() const {
    return network_latency_cycles.mean() / flits_per_microsecond;
  }
  /// Latency quantile in microseconds (upper bin edge).  +infinity when
  /// the quantile falls in the histogram's overflow bin (saturated runs
  /// with tail latencies beyond 60k cycles); callers that serialize this
  /// must handle the non-finite case explicitly.
  double latency_quantile_us(double q) const {
    return latency_histogram.quantile(q) / flits_per_microsecond;
  }
};

}  // namespace wormsim::sim
