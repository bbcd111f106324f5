// Engine phase self-profiler (DESIGN.md §15).
//
// Attributes a run's wall time to the step() phases: flow-control event
// drain, fault transitions, arrival generation (calendar maintenance
// included), transmission starts, routing/allocation, the advance
// fixpoint, telemetry emission (sampling + heartbeats), and validator
// sweeps.
//
// Same contract as every other telemetry hook: null-gated (one
// predictable branch per phase boundary when off) and zero-feedback —
// profiling never perturbs the simulation, so golden digests are
// bitwise unchanged.  Enabled by TelemetryConfig::profile or
// WORMSIM_PROFILE=1; surfaced in the RunManifest "profile" object and
// `telemetry_report --profile`.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace wormsim::telemetry {

/// WORMSIM_PROFILE set to anything but "" or "0".
bool profile_enabled_from_env();

enum class EnginePhase : std::uint8_t {
  kFlowControl = 0,  ///< backpressure event drain (credits, on/off)
  kFault,            ///< fault plan kill / repair transitions
  kArrivals,         ///< arrival calendar drain + message creation
  kStartTx,          ///< source port transmission starts
  kRouting,          ///< header routing + lane allocation
  kAdvance,          ///< advance fixpoint, passes + scan
  // Always 0; kept because perfbench/runner/workloads.cpp reads them.
  kAdvanceDecide,
  kAdvanceApply,
  kTelemetry,        ///< interval sampling + heartbeat emission
  kValidate,         ///< invariant sweeps (WORMSIM_VALIDATE)
};

inline constexpr std::size_t kEnginePhaseCount = 10;

inline const char* engine_phase_name(EnginePhase phase) {
  switch (phase) {
    case EnginePhase::kFlowControl: return "flow_control";
    case EnginePhase::kFault: return "fault";
    case EnginePhase::kArrivals: return "arrivals";
    case EnginePhase::kStartTx: return "start_tx";
    case EnginePhase::kRouting: return "routing";
    case EnginePhase::kAdvance: return "advance";
    case EnginePhase::kAdvanceDecide: return "advance_decide";
    case EnginePhase::kAdvanceApply: return "advance_apply";
    case EnginePhase::kTelemetry: return "telemetry";
    case EnginePhase::kValidate: return "validate";
  }
  return "unknown";
}

/// Aggregated phase attribution for one run (or, merged, one sweep).
/// `total_seconds` is the measured wall time of the engine's run loop;
/// coverage() is the acceptance-criteria ratio (DESIGN.md §15 targets
/// >= 0.95 — the remainder is loop control and the deadlock watchdog).
struct PhaseProfile {
  bool enabled = false;
  std::array<double, kEnginePhaseCount> seconds{};
  double total_seconds = 0.0;

  double attributed_seconds() const {
    double sum = 0.0;
    for (double s : seconds) sum += s;
    return sum;
  }
  double coverage() const {
    return total_seconds > 0.0 ? attributed_seconds() / total_seconds : 0.0;
  }
  /// Element-wise accumulation (sweep scheduler: sum over points).
  void merge(const PhaseProfile& other) {
    if (!other.enabled) return;
    enabled = true;
    for (std::size_t i = 0; i < kEnginePhaseCount; ++i) {
      seconds[i] += other.seconds[i];
    }
    total_seconds += other.total_seconds;
  }
};

/// Lap-based accumulator: mark() at the top of step(), lap(phase) after
/// each phase — one steady_clock read per boundary, with the end of one
/// phase doubling as the start of the next.
class PhaseProfiler {
 public:
  PhaseProfiler() { profile_.enabled = true; }

  void mark() { last_ = Clock::now(); }
  void lap(EnginePhase phase) {
    const Clock::time_point now = Clock::now();
    profile_.seconds[static_cast<std::size_t>(phase)] +=
        std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }
  void set_total_seconds(double seconds) {
    profile_.total_seconds = seconds;
  }

  const PhaseProfile& profile() const { return profile_; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point last_{};
  PhaseProfile profile_;
};

}  // namespace wormsim::telemetry
