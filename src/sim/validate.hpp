// Runtime invariant checking for the simulation engines.
//
// The event-driven hot loops (DESIGN.md "Engine hot loop") replaced
// per-cycle full scans with incrementally maintained active sets and
// epoch stamps.  A bookkeeping bug there does not crash — it silently
// drops moves or double-counts flits, and the golden digests only say
// *something* diverged, not what.  The validators re-derive every piece
// of incremental state from first principles — every kSweepStride-th
// cycle end (wormhole) or every event (store-and-forward) — and abort
// with a precise diagnostic —
// invariant name, cycle, lane — the moment the engine's books disagree.
//
// Enabled by SimConfig::validate / StoreForwardConfig::validate or the
// WORMSIM_VALIDATE=1 environment variable.  The validators are strictly
// read-only observers: they never draw randomness or mutate engine
// state, so validated runs are bitwise identical to unvalidated ones
// (golden digests unchanged).  Cost is a full O(lanes + channels +
// nodes) sweep every kSweepStride-th cycle — under 2x slowdown,
// measured in results/BENCH_engine.json.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/packet.hpp"
#include "topology/network.hpp"

namespace wormsim::sim {

class Engine;
class StoreForwardEngine;
struct SimResult;

/// True when the WORMSIM_VALIDATE environment variable is set to a
/// non-empty value other than "0".
bool validate_enabled_from_env();

/// Result of the wait-for-graph analysis run when a stall approaches the
/// deadlock watchdog: distinguishes a true cyclic deadlock (or a
/// fault-starved worm that can never route) from heavy congestion.
struct WaitForAnalysis {
  /// Occupied lanes whose flit can never advance (complement of the
  /// greatest fixpoint of the can-make-progress relation).  Empty means
  /// every blocked worm still has a live escape path: congestion.
  std::vector<topology::LaneId> stuck_lanes;
  /// A witness dependency cycle through stuck lanes (first element
  /// repeated at the end) when the blockage is cyclic; empty for an
  /// acyclic permanent blockage (e.g. every legal lane faulty).
  std::vector<topology::LaneId> cycle;

  bool deadlocked() const { return !stuck_lanes.empty(); }
};

/// Invariant checker for the wormhole Engine.  Holds only scratch space;
/// all checked state is read from the engine via friendship.
class EngineValidator {
 public:
  explicit EngineValidator(const Engine& engine);
  EngineValidator(const EngineValidator&) = delete;
  EngineValidator& operator=(const EngineValidator&) = delete;

  /// Engine hook at the end of every step().  Every cycle end is a
  /// consistent checkpoint and a corrupted book stays corrupted, so
  /// sweeping every kSweepStride-th cycle catches the same bug classes
  /// within kSweepStride cycles at a fraction of the cost.
  void on_cycle_end() {
    if (++cycle_ends_ % kSweepStride == 0) check_cycle_end();
  }

  /// Full structural sweep:
  ///   * flit conservation: buffer recount vs occupied_, one worm per
  ///     distinct buffered packet vs worms_in_flight_, node/queue counts;
  ///   * worm continuity: each worm's buffered seqs form one contiguous
  ///     run ending at its newest transmitted flit;
  ///   * lane exclusivity: alloc_owner_ / route_out_ form a bijection and
  ///     both ends of an allocation carry the same worm in order;
  ///   * routing legality: every held route obeys the destination-tag
  ///     digit (unidirectional) or turnaround phase rules (BMIN);
  ///   * flow control: per-lane FIFO occupancy recount and slot ordering,
  ///     credit conservation (credits + buffered + in-flight returns ==
  ///     depth), buffer-occupancy bounds, on/off signal consistency, and
  ///     backpressure-calendar ordering;
  ///   * active sets: the header bitmap is exactly the unrouted-header
  ///     set (and header_count_ its popcount), channel_sources_ matches a
  ///     recount, epoch stamps never point to the future, every channel
  ///     ready to transmit next cycle has its seed bit set, and the
  ///     advance worklist bitmaps are empty between cycles;
  ///   * fault state (only once a channel has ever faulted): dead
  ///     channels' lanes are fully drained — no buffered flits, no
  ///     allocation, no held route (fault-quiescence) — and no unrouted
  ///     header sits starved with every legal candidate faulty for two
  ///     consecutive sweeps (fault-routability: serve() must terminate
  ///     such worms, not stall them);
  ///   * deadlock watchdog: halfway to the engine's watchdog, build the
  ///     wait-for graph and abort early on a true cycle.
  void check_cycle_end();

  /// End-of-run reconciliation of per-packet ground truth against the
  /// aggregated SimResult and telemetry counters.
  void check_final(const SimResult& result);

  /// Wait-for-graph analysis over the current blocked worms (read-only;
  /// also used by Engine::report_deadlock for its post-mortem).
  WaitForAnalysis analyze_waiting() const;

  /// Prints the stall classification of analyze_waiting() to stderr.
  void describe_stall() const;

  std::uint64_t sweeps_run() const { return sweeps_; }

 private:
  static constexpr std::uint64_t kSweepStride = 4;

  void check_buffers_and_counters();
  void check_flow_control();
  void check_allocation();
  void check_routing_legality();
  void check_active_sets();
  void check_fault_state();
  void maybe_probe_deadlock();

  const Engine& e_;
  std::uint64_t cycle_ends_ = 0;
  std::uint64_t sweeps_ = 0;
  /// Last stall length already probed, so one episode probes once.
  std::uint64_t probed_stall_cycle_ = kNoCycle;

  // Scratch reused across sweeps (stamped with sweeps_, never cleared).
  std::vector<std::pair<std::uint64_t, topology::LaneId>> buffered_;
  std::vector<std::uint64_t> lane_mark_;
  std::vector<std::uint64_t> node_mark_;
  std::vector<std::uint64_t> chan_mark_;
  // Flow-control scratch: in-flight credit returns and the newest pending
  // on/off signal per lane (-1 none, 0 STOP, 1 GO), both rebuilt from one
  // pass over the backpressure calendar.
  std::vector<std::uint32_t> pending_returns_;
  std::vector<std::int8_t> last_signal_;
  // Fault-routability two-strike memory: (lane, packet) headers seen
  // starved by faults last sweep.  A header promoted after this cycle's
  // routing pass has legitimately not been served yet; only a pair still
  // starved a full sweep later is a violation.
  std::vector<std::pair<topology::LaneId, PacketId>> fault_blocked_prev_;
};

/// Invariant checker for the store-and-forward reference engine.  The
/// engine additionally reports transfer starts/finishes so the validator
/// can shadow the in-flight set (the event heap itself is opaque).
class StoreForwardValidator {
 public:
  explicit StoreForwardValidator(const StoreForwardEngine& engine);
  StoreForwardValidator(const StoreForwardValidator&) = delete;
  StoreForwardValidator& operator=(const StoreForwardValidator&) = delete;

  /// Called before start_transfer mutates anything: checks the channel is
  /// free and exclusive, the destination buffer has a slot, the packet is
  /// its queue's head, and the hop is legal for the packet's route.
  void on_transfer_start(PacketId pkt, topology::LaneId from,
                         topology::LaneId to);
  /// Called as a transfer completes; retires the matching shadow entry.
  void on_transfer_finish(PacketId pkt, topology::LaneId from,
                          topology::LaneId to);
  /// Structural sweep at the end of every processed event: queue/transfer
  /// recounts, buffer capacity, transmit flags vs shadow transfers,
  /// packet placement uniqueness, channel-free-time accounting.
  void check_event_end();
  /// End-of-run reconciliation against the SimResult.
  void check_final(const SimResult& result);

 private:
  struct ShadowTransfer {
    PacketId packet = kNoPacket;
    topology::LaneId from = topology::kInvalidId;
    topology::LaneId to = topology::kInvalidId;
    std::uint64_t end = 0;
  };

  const StoreForwardEngine& e_;
  std::uint64_t sweeps_ = 0;
  std::int64_t active_transfers_ = 0;
  /// Active transfers per channel.  Usually one entry, but a new transfer
  /// may legally start at the exact time the previous one ends — while
  /// the old completion event is still queued — so briefly two coexist.
  std::vector<std::vector<ShadowTransfer>> shadow_;  // indexed by ChannelId
  std::vector<std::uint64_t> lane_mark_;
  std::vector<std::uint64_t> node_mark_;
  std::vector<std::uint64_t> pkt_mark_;
};

}  // namespace wormsim::sim
