// Simulation run parameters (Section 5 of the paper).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/flow_control/scheme.hpp"
#include "telemetry/config.hpp"
#include "util/cli.hpp"

namespace wormsim::sim {

/// Order in which waiting headers are offered output lanes each cycle.
/// The paper does not specify a discipline; kRotating (the default) gives
/// every input a fair share of first pick, kRandom re-draws the order
/// every cycle, kFixed always scans in lane-id order (deliberately
/// unfair; exists to measure how much the choice matters).
enum class ArbitrationOrder : std::uint8_t { kRotating, kRandom, kFixed };

/// How a header picks among its free candidate lanes.  The paper says
/// packets are "randomly distributed to one of the free channels"
/// (kRandomFree); kFirstFree is the deterministic alternative.
enum class LaneSelection : std::uint8_t { kRandomFree, kFirstFree };

struct SimConfig {
  std::uint64_t seed = 1;

  ArbitrationOrder arbitration = ArbitrationOrder::kRotating;
  LaneSelection lane_selection = LaneSelection::kRandomFree;

  /// Cycles before measurement starts (network reaches steady state).
  std::uint64_t warmup_cycles = 60'000;
  /// Measurement window length.
  std::uint64_t measure_cycles = 240'000;
  /// Extra cycles after the window so in-flight measured messages can
  /// finish and report their latency.
  std::uint64_t drain_cycles = 60'000;

  /// "The throughput is considered sustainable when the number of messages
  /// queued at their source nodes does not exceed some small limit, 100 in
  /// the simulations."
  std::uint64_t sustainable_queue_limit = 100;

  /// Hard cap on a source queue; beyond it new arrivals are dropped and
  /// counted.  Only reached far past saturation, where the run is already
  /// marked unsustainable.
  std::uint64_t queue_capacity = 1'500;

  // ---- Flow control (src/sim/flow_control/) ---------------------------
  // The defaults reproduce the paper's model bitwise: credit-based
  // wormhole with single-flit buffers and instant credit return is
  // algebraically the legacy "send when the downstream buffer is empty"
  // engine (pinned by tests/golden_test.cpp).

  /// Input-buffer slots per lane, in flits (paper: 1).  The
  /// store-and-forward engine interprets this in packets per lane
  /// buffer (its natural buffering unit).
  std::uint32_t buffer_depth = 1;
  /// Buffer-management scheme governing when a sender may push a flit.
  FlowControlScheme flow_control = FlowControlScheme::kCredit;
  /// Cycles a credit return (or on/off signal) travels upstream; 0 means
  /// the sender sees the freed slot the same cycle it frees.
  std::uint32_t credit_delay = 0;

  /// Cycles without any flit movement (while flits are in flight) before
  /// the engine declares a deadlock and aborts.  Wormhole routing in these
  /// networks is deadlock-free, so this is purely a watchdog.
  std::uint64_t deadlock_watchdog_cycles = 50'000;

  /// Telemetry collection (per-lane counters, interval sampling); all off
  /// by default and near-free when off.  Results land in
  /// SimResult::telemetry_counters / telemetry_samples.
  telemetry::TelemetryConfig telemetry;

  /// Runtime invariant checking (src/sim/validate.hpp): a read-only
  /// structural sweep every cycle plus an end-of-run reconcile, aborting
  /// with a precise diagnostic on the first violation.  Defaults to the
  /// WORMSIM_VALIDATE variable, read like the telemetry switches
  /// (telemetry/config.hpp).  Roughly halves simulation speed;
  /// simulation results are bitwise unchanged.
  bool validate = util::env_bool_or("WORMSIM_VALIDATE", false);

  /// Compute topology records on the fly from digit-permutation
  /// arithmetic instead of materializing the O(N log N) Network graph
  /// (src/topology/implicit.hpp, DESIGN.md §13) — the 2M-node memory
  /// lever.  Simulation results are bitwise identical to the
  /// materialized backend (pinned by tests/implicit_test.cpp), so this
  /// knob is excluded from result-cache fingerprints.  Networks the
  /// implicit backend cannot express (random multibutterfly wiring)
  /// silently fall back to the materialized graph.  Also settable via
  /// WORMSIM_IMPLICIT_TOPOLOGY / --implicit-topology.
  bool implicit_topology = false;

  // ---- Runtime fault injection (src/sim/fault_injection/) -------------
  // DESIGN.md §14.  Zero-fault configs (fraction 0 and no explicit plan)
  // are bitwise identical to the fault-free engine (pinned by
  // tests/fault_injection_test.cpp against the golden digests).

  /// Probability each interior (switch<->switch) channel dies, drawn
  /// once per channel from Rng(fault_seed) — never from the traffic
  /// stream's RNG.  0 (default) disables fault injection.  Also
  /// settable via WORMSIM_FAULT_FRACTION / --fault-fraction.
  double fault_fraction = 0.0;
  /// Dedicated seed for the fault plan draw, so fault scenarios vary
  /// independently of traffic seeds.  Also settable via
  /// WORMSIM_FAULT_SEED / --fault-seed.
  std::uint64_t fault_seed = 1;
  /// Cycle the kill lands (start of cycle, before arrivals); 0 = the
  /// channels are dead from the first cycle.  A kill is permanent.  Also
  /// settable via WORMSIM_FAULT_AT_CYCLE / --fault-at-cycle.
  std::uint64_t fault_at_cycle = 0;

  std::uint64_t total_cycles() const {
    return warmup_cycles + measure_cycles + drain_cycles;
  }
};

}  // namespace wormsim::sim
