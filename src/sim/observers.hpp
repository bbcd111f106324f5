// Run observers: one owner for everything that watches a run.
//
// An engine reports its events to one Observers object, which fans them
// out to whichever views SimConfig switched on: the TraceSink, the
// measurement-window counters, the interval sampler, the per-worm tracer
// (telemetry/worm_trace.hpp), the heartbeat monitor
// (telemetry/run_monitor.hpp) and the phase profiler
// (telemetry/profiler.hpp).  Both engines hold one by value, so each
// observer is built, gated, cadenced and finished in exactly one place
// (DESIGN.md §10, §15).  The config is the only switch: its observer
// fields default to their WORMSIM_* variables (telemetry/config.hpp), and
// nothing here reads the environment.
//
// Every observer is read-only — none draws randomness or feeds back into
// the engine — so golden digests are bitwise identical with all of them
// on.  With all of them off, each event costs one or two predictable
// null tests.  Events only the worm tracer consumes (injection, header
// arrival, lane release, the store-and-forward hooks) are direct calls on
// worm_tracer(); the methods below cover the events two or more
// observers react to.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "sim/packet.hpp"
#include "sim/trace.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/run_monitor.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/worm_trace.hpp"
#include "topology/net_view.hpp"

namespace wormsim::sim {

struct SimResult;

class Observers {
 public:
  /// Builds the observers `config` switches on.  `counters` is where the
  /// window counters accumulate (the engine's SimResult field); the
  /// event-driven store-and-forward engine passes null, having no cycles
  /// to count, sample or profile.  `engine` names the run in the
  /// heartbeat stream.
  Observers(const topology::NetView& network, const SimConfig& config,
            const char* engine, telemetry::Counters* counters);

  void set_trace_sink(TraceSink* sink) { sink_ = sink; }

  telemetry::WormTracer* worm_tracer() const { return tracer_.get(); }
  const telemetry::PhaseProfiler* profiler() const {
    return profiler_ ? &*profiler_ : nullptr;
  }
  const telemetry::IntervalSampler& sampler() const { return sampler_; }
  /// True when an observer reads credit starvation (credit_starved): the
  /// window counters or the worm tracer.
  bool reads_starvation() const {
    return counters_ != nullptr || tracer_ != nullptr;
  }

  // ---- Cycle structure (wormhole engine) -------------------------------
  /// Opens a cycle: gates the counters on the measurement window and
  /// starts the profiler's lap clock.
  void begin_cycle(bool measuring) {
    window_ = measuring ? counters_ : nullptr;
    if (profiler_) profiler_->mark();
  }
  void lap(telemetry::EnginePhase phase) {
    if (profiler_) profiler_->lap(phase);
  }
  /// Ends wormhole cycle `cycle` with both cadences: a sample labelled
  /// `cycle` when it is a multiple of the sample interval, and a
  /// heartbeat once `cycle + 1` completed cycles reach the next boundary.
  /// `snapshot(label)` builds the state at either label, and each sample
  /// is read from one.  Returns true when either fired.
  template <typename Snapshot>
  bool tick(std::uint64_t cycle, Snapshot&& snapshot) {
    bool sampled = false;
    if (sample_interval_ != 0 && cycle % sample_interval_ == 0) {
      const telemetry::HeartbeatSnapshot snap = snapshot(cycle);
      sampler_.record(telemetry::Sample{
          snap.cycle, snap.flits_delivered, snap.flits_in_flight,
          snap.worms_in_flight,
          static_cast<double>(snap.queued_messages) /
              static_cast<double>(sample_nodes_)});
      sampled = true;
    }
    return heartbeat(cycle + 1, snapshot) || sampled;
  }

  // ---- Heartbeats (both engines) ---------------------------------------
  /// The cadence rule: once `completed` cycles reach the next boundary,
  /// emits one line at the latest boundary crossed.  Called after every
  /// cycle (through tick) this emits at exact multiples of the interval;
  /// called at the store-and-forward engine's event times it merges the
  /// windows no event landed in.  `snapshot(boundary)` builds the line.
  /// Returns true when a line was emitted.
  template <typename Snapshot>
  bool heartbeat(std::uint64_t completed, Snapshot&& snapshot) {
    if (!monitor_ || completed < heartbeat_next_) return false;
    const std::uint64_t boundary = completed - completed % monitor_->interval();
    monitor_->on_heartbeat(snapshot(boundary));
    heartbeat_next_ = boundary + monitor_->interval();
    return true;
  }
  /// A fault kill of `channels` channels landed at `cycle`.
  void fault(std::uint64_t cycle, std::size_t channels) {
    if (monitor_) monitor_->on_fault(cycle, channels);
  }
  /// Per-stage sums of `held(lane)` over the stage lane intervals, for a
  /// heartbeat snapshot (empty when heartbeats are off).
  template <typename Held>
  std::vector<std::uint64_t> stage_occupancy(Held&& held) const {
    std::vector<std::uint64_t> occupancy;
    occupancy.reserve(stage_lanes_.size());
    for (const auto& intervals : stage_lanes_) {
      std::uint64_t sum = 0;
      for (const auto& [begin, end] : intervals) {
        for (topology::LaneId lane = begin; lane < end; ++lane) {
          sum += held(lane);
        }
      }
      occupancy.push_back(sum);
    }
    return occupancy;
  }

  // ---- Events ----------------------------------------------------------
  void created(PacketId id, std::uint64_t cycle, std::uint64_t src,
               std::uint64_t dst, std::uint32_t length, bool measured) {
    emit(TraceEvent::Kind::kCreated, cycle, id, 0, topology::kInvalidId);
    if (tracer_) tracer_->on_created(id, cycle, src, dst, length, measured);
  }
  /// The header in `in_lane`, which feeds switch `sw`, was granted output
  /// lane `out_lane`.
  void granted(PacketId id, topology::LaneId in_lane, std::uint32_t sw,
               topology::LaneId out_lane, std::uint64_t cycle) {
    if (window_ != nullptr) ++window_->switch_grants[sw];
    if (tracer_) tracer_->on_granted(id, in_lane, out_lane, cycle);
    emit(TraceEvent::Kind::kRouted, cycle, id, 0, out_lane);
  }
  /// The header in `in_lane`, which feeds switch `sw`, found no free
  /// candidate.  `culprit()` returns {lane waited on, credit-starved?};
  /// it is called only when an observer wants it — the tracer, or the
  /// counters for a header whose candidates include a credit-gated lane
  /// (`credit_gated`).
  template <typename Culprit>
  void blocked(PacketId id, topology::LaneId in_lane, std::uint32_t sw,
               bool credit_gated, std::uint64_t cycle, Culprit&& culprit) {
    if (window_ != nullptr) {
      ++window_->lane_blocked[in_lane];
      ++window_->switch_denials[sw];
    }
    if (!tracer_ && (window_ == nullptr || !credit_gated)) return;
    const auto [lane, starved] = culprit();
    if (starved && window_ != nullptr) ++window_->lane_credit_starved[lane];
    if (tracer_) tracer_->on_blocked(id, in_lane, lane, cycle, starved);
  }
  /// The header in `in_lane`, which feeds switch `sw`, slept through
  /// cycles [first, last]: one denial per cycle, each naming the culprit
  /// of its last blocked() call, which was never credit-starved.  Charged
  /// in one go, clipped to the measurement window (DESIGN.md §10).
  void slept(PacketId id, topology::LaneId in_lane, std::uint32_t sw,
             std::uint64_t first, std::uint64_t last) {
    if (counters_ != nullptr) {
      const std::uint64_t begin = std::max(first, window_begin_);
      const std::uint64_t end = std::min(last + 1, window_end_);
      if (begin < end) {
        counters_->lane_blocked[in_lane] += end - begin;
        counters_->switch_denials[sw] += end - begin;
      }
    }
    if (tracer_) tracer_->extend_blocked(id, first, last);
  }
  /// Flit `seq` of `id` crossed `lane`.
  void moved(PacketId id, std::uint32_t seq, topology::LaneId lane,
             std::uint64_t cycle) {
    emit(TraceEvent::Kind::kFlitMoved, cycle, id, seq, lane);
    if (window_ != nullptr) ++window_->lane_flits[lane];
  }
  /// The tail (flit `seq`) of `id` was consumed at its destination.
  void delivered(PacketId id, std::uint32_t seq, std::uint64_t cycle) {
    emit(TraceEvent::Kind::kDelivered, cycle, id, seq, topology::kInvalidId);
    if (tracer_) tracer_->on_delivered(id, cycle);
  }
  /// Fault injection killed `id` after its source sent `sent` flits.
  void terminated(PacketId id, std::uint32_t sent, std::uint64_t cycle) {
    emit(TraceEvent::Kind::kTerminated, cycle, id, sent,
         topology::kInvalidId);
    if (tracer_) tracer_->on_terminated(id, cycle);
  }
  /// `lane`'s sender sat `cycles` gated by flow control with space
  /// downstream; `worm()` names the worm that waited.
  template <typename Worm>
  void credit_starved(topology::LaneId lane, std::uint64_t cycles,
                      Worm&& worm) {
    if (window_ != nullptr) window_->lane_credit_starved[lane] += cycles;
    if (tracer_) tracer_->on_credit_starved(worm(), lane, cycles);
  }
  /// A fault kill discarded `flits` flits from `lane`'s FIFO.
  void discarded(topology::LaneId lane, std::uint32_t flits) {
    if (window_ != nullptr) window_->lane_fault_terminated[lane] += flits;
  }

  /// Ends the run: copies the samples and shares the worm trace,
  /// finalizes the heartbeat stream with `last` (and the drain verdict
  /// DrainTally::finish left in `result`), and copies the onsets and the
  /// profile, whose engine wall time is `run_seconds`.
  void finish(SimResult& result, const telemetry::HeartbeatSnapshot& last,
              double run_seconds);

 private:
  void emit(TraceEvent::Kind kind, std::uint64_t cycle, PacketId id,
            std::uint32_t seq, topology::LaneId lane) {
    if (sink_ == nullptr) return;
    sink_->on_event(TraceEvent{kind, cycle, id, seq, lane});
  }

  TraceSink* sink_ = nullptr;
  // Window counters: counters_ is null when they are off, window_ is
  // counters_ inside the measurement window and null outside it.
  // [window_begin_, window_end_) is the measurement window in cycles.
  telemetry::Counters* counters_ = nullptr;
  telemetry::Counters* window_ = nullptr;
  std::uint64_t window_begin_ = 0;
  std::uint64_t window_end_ = 0;
  std::uint64_t sample_interval_ = 0;  // 0 = sampling off
  std::uint64_t sample_nodes_ = 0;     // divides the queued messages
  telemetry::IntervalSampler sampler_{0};
  // Shared into SimResult::worm_trace so the trace outlives the engine.
  std::shared_ptr<telemetry::WormTracer> tracer_;
  std::optional<telemetry::RunMonitor> monitor_;
  std::uint64_t heartbeat_next_ = 0;
  std::vector<std::vector<std::pair<topology::LaneId, topology::LaneId>>>
      stage_lanes_;
  std::optional<telemetry::PhaseProfiler> profiler_;
};

/// The drain SLO both engines report, tallied as messages are created,
/// delivered and fault-terminated: cycles past the measurement window
/// until every message created before it ended was delivered or
/// fault-terminated (sources keep offering traffic through the drain, so
/// "network momentarily empty" would never fire at real loads), plus the
/// count of measured messages never delivered.  A pre-drain message
/// still queued, or dropped at creation, fails the drain: nothing ever
/// resolves it.
class DrainTally {
 public:
  explicit DrainTally(const SimConfig& config)
      : measure_end_(config.warmup_cycles + config.measure_cycles),
        drain_cycles_(config.drain_cycles) {}

  /// A message was created at `create_cycle` (dropped ones too).
  void created(std::uint64_t create_cycle) {
    ++created_;
    if (create_cycle < measure_end_) ++open_;
  }
  /// A created message counts as measured: unfinished until delivered.
  void measured() { ++unfinished_measured_; }
  /// The message created at `create_cycle` was delivered at `cycle`.
  void delivered(std::uint64_t create_cycle, bool measured,
                 std::uint64_t cycle) {
    if (measured) --unfinished_measured_;
    resolved(create_cycle, cycle);
  }
  /// The message created at `create_cycle` was fault-terminated at `cycle`.
  void terminated(std::uint64_t create_cycle, std::uint64_t cycle) {
    resolved(create_cycle, cycle);
  }

  /// Messages created so far: the heartbeat count, and the serial of the
  /// next message.
  std::uint64_t created_count() const { return created_; }

  /// Writes drained, time_to_drain_cycles and
  /// measured_messages_unfinished into `result`.
  void finish(SimResult& result) const;

 private:
  void resolved(std::uint64_t create_cycle, std::uint64_t cycle) {
    if (create_cycle >= measure_end_) return;
    --open_;
    last_resolved_ = std::max(last_resolved_, cycle);
  }

  std::uint64_t measure_end_;
  std::uint64_t drain_cycles_;
  std::uint64_t created_ = 0;
  /// Messages created before measure_end_ and not yet resolved.
  std::uint64_t open_ = 0;
  /// Latest delivery or termination of such a message.
  std::uint64_t last_resolved_ = 0;
  std::uint64_t unfinished_measured_ = 0;
};

}  // namespace wormsim::sim
