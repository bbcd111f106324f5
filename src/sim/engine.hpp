// Flit-level wormhole simulation engine.
//
// The engine advances a Network cycle by cycle.  Within a cycle:
//
//   1. *Arrivals* — each active node draws Poisson message arrivals into
//      its FCFS source queue and, if idle, starts transmitting the queue
//      head (one-port architecture: one outgoing message at a time).
//   2. *Routing & allocation* — every header flit waiting in a switch
//      input buffer asks the Router for its legal output lanes, and claims
//      a free one (chosen uniformly at random among the free candidates,
//      matching the paper's random distribution over dilated channels and
//      forward BMIN channels).  The claimed lane stays allocated to the
//      worm until its tail flit crosses it.
//   3. *Advance* — flits move one hop.  Each physical channel carries at
//      most one flit per cycle; when several virtual-channel lanes of a
//      channel are ready, a round-robin pointer picks one (flit-level fair
//      multiplexing, Section 2.2).  Movement is resolved to a fixpoint so
//      an unblocked worm advances as a unit — every flit behind a moving
//      flit moves in the same cycle, giving the full one-flit-per-cycle
//      wormhole pipeline with single-flit buffers.
//
// Buffers default to exactly one flit (Section 5: "each input channel in
// a switch has a buffer the size of a single flit").  A buffer lives at
// the *downstream* end of its lane.  The flow-control subsystem
// (src/sim/flow_control/) generalizes this: SimConfig::buffer_depth deep
// FIFOs per lane, gated by credit-based, on/off, or virtual cut-through
// backpressure whose upstream signals take SimConfig::credit_delay
// cycles.  The paper's model is the credit scheme at depth 1 / delay 0 —
// a special case of the same code path, reproduced bitwise (pinned by
// tests/golden_test.cpp).
//
// The hot loop is event-driven (DESIGN.md "Engine hot loop"): each phase
// visits only the entities that can make progress — the bitmap of
// channels with a potential transmit source, the bitmap of switch input
// lanes holding an unrouted header, the calendar of pending arrival
// times — instead of scanning the whole network every cycle.  All hot
// state lives in flat structure-of-arrays form (DESIGN.md §12): per-lane
// arrays, per-channel arrays, per-node arrays, and dense bitsets whose
// ascending count-trailing-zeros scan reproduces the original sorted
// visitation order without any per-pass std::sort.  The schedule is
// provably equivalent to the original full scans (same moves, same
// round-robin picks, same RNG draw order), pinned bitwise by
// tests/golden_test.cpp.  One simulation runs on one thread; sweeps get
// their parallelism from the point pool (experiment/scheduler.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "routing/router.hpp"
#include "sim/config.hpp"
#include "sim/fault_injection/state.hpp"
#include "sim/flow_control/state.hpp"
#include "sim/metrics.hpp"
#include "sim/packet.hpp"
#include "sim/trace.hpp"
#include "sim/traffic_source.hpp"
#include "telemetry/sampler.hpp"
#include "topology/net_view.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace wormsim::telemetry {
class WormTracer;
}

namespace wormsim::sim {

class EngineValidator;
struct EngineTestPeer;

class Engine {
 public:
  /// `traffic` may be null for manually driven runs (tests inject messages
  /// with inject_message()).  All referenced objects must outlive the
  /// engine.
  Engine(const topology::NetView& network, const routing::Router& router,
         TrafficSource* traffic, SimConfig config);
  /// Out of line: EngineValidator is incomplete here.
  ~Engine();

  /// Runs warmup + measurement + drain and returns aggregated metrics.
  SimResult run();

  /// Advances one cycle (arrivals, routing, flit movement).
  void step();

  std::uint64_t cycle() const { return cycle_; }

  /// Queues a message at its source node, bypassing the traffic source.
  PacketId inject_message(topology::NodeId src, std::uint64_t dst,
                          std::uint32_t length);

  /// True when no flit is buffered anywhere and all source queues are
  /// empty and idle.  O(1): maintained from the occupancy counters.
  bool idle() const {
    return occupied_ == 0 && transmitting_nodes_ == 0 &&
           queued_messages_ == 0;
  }

  /// Steps until idle() or `max_cycles` elapse; returns true if idle.
  bool run_until_idle(std::uint64_t max_cycles);

  const PacketState& packet(PacketId id) const { return packets_.at(id); }
  std::size_t packet_count() const { return packets_.size(); }
  const topology::NetView& network() const { return network_; }

  /// Lane occupancy introspection for tests: packet in the lane's buffer,
  /// or kNoPacket.
  PacketId buffered_packet(topology::LaneId lane) const {
    return buf_packet_.at(lane);
  }

  std::uint64_t source_queue_length(topology::NodeId node) const {
    return node_queue_.at(node).size();
  }

  /// Total flits currently buffered in the network.
  std::int64_t flits_in_flight() const { return occupied_; }

  /// Attaches an event observer (null to detach).  The engine reports
  /// creations, routing grants, flit moves, and deliveries.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  /// Telemetry state for step()-driven runs (run() also copies both into
  /// the returned SimResult).  Counters cover the measurement window only.
  const telemetry::Counters& telemetry_counters() const {
    return result_.telemetry_counters;
  }
  const telemetry::IntervalSampler& sampler() const { return sampler_; }

  /// Marks a physical channel as failed: headers never route onto it and
  /// no flit crosses it.  Only adaptive networks (DMIN, VMIN with spare
  /// lanes, BMIN, extra-stage MINs) can route around interior faults; a
  /// worm whose every legal lane is faulty is terminated and counted as
  /// undelivered (DESIGN.md §14).  Must be called before the first
  /// step(); node links cannot be failed (a one-port node would be
  /// disconnected).  For mid-run kills use set_fault_plan / the
  /// SimConfig fault knobs instead.
  void fail_channel(topology::ChannelId channel);

  /// Installs an explicit fault plan (tests / drivers that pick exact
  /// channels instead of SimConfig::fault_fraction's seeded draw).  Must
  /// be called before the first step(); replaces any config-built plan.
  void set_fault_plan(fault_injection::FaultPlan plan);

  /// The active fault plan (empty when fault injection is off).
  const fault_injection::FaultPlan& fault_plan() const {
    return fault_state_.plan;
  }

  /// Non-null when invariant checking is on (SimConfig::validate or
  /// WORMSIM_VALIDATE=1); the validator sweeps at the end of every step().
  const EngineValidator* validator() const { return validator_.get(); }

  /// Non-null when per-worm tracing is on (SimConfig::telemetry.worm_trace
  /// or WORMSIM_TRACE=1); also shared into SimResult::worm_trace.
  const telemetry::WormTracer* worm_tracer() const { return wtrace_; }

  /// Non-null when streaming heartbeats are on
  /// (SimConfig::telemetry.heartbeat_cycles or WORMSIM_HEARTBEAT).
  const telemetry::RunMonitor* run_monitor() const { return monitor_; }

  /// Non-null when the phase self-profiler is on
  /// (SimConfig::telemetry.profile or WORMSIM_PROFILE=1).
  const telemetry::PhaseProfiler* profiler() const { return prof_; }

  /// Flow-control introspection for tests: per-lane FIFO occupancy,
  /// credits, stop bits, and the in-flight backpressure calendar.
  const FlowControlState& flow_control() const { return fc_; }

 private:
  /// Read-only invariant checker (src/sim/validate.hpp); fault-injection
  /// tests reach private state through EngineTestPeer.
  friend class EngineValidator;
  friend struct EngineTestPeer;

  void generate_arrivals();
  void start_transmissions();
  void route_and_allocate();
  void advance_flits();
  void advance_pass();
  /// Transmit decision for one channel against current state: gathers the
  /// ready lanes, advances the round-robin pointer, opens starvation
  /// intervals on gated lanes.  Returns the picked lane index or -1.
  int decide_channel(topology::ChannelId ch);
  /// Applies a granted decision: moves the flit, stamps the channel used,
  /// fires the telemetry hooks.
  void apply_move(topology::ChannelId ch, unsigned pick);
  bool try_channel(topology::ChannelId ch) {
    const int pick = decide_channel(ch);
    if (pick < 0) return false;
    apply_move(ch, static_cast<unsigned>(pick));
    return true;
  }
  void move_from_node(topology::NodeId node, topology::LaneId lane);
  void move_from_switch(topology::LaneId in_lane, topology::LaneId out_lane);
  void deliver_flit(PacketId pkt, std::uint32_t seq);
  void enqueue_packet(topology::NodeId src, PacketId id);
  bool in_measure_window() const {
    return cycle_ >= config_.warmup_cycles &&
           cycle_ < config_.warmup_cycles + config_.measure_cycles;
  }
  void record_sample();
  /// Builds the deterministic heartbeat snapshot for `cycle` completed
  /// cycles (telemetry/run_monitor.hpp); read-only over engine state.
  telemetry::HeartbeatSnapshot heartbeat_snapshot(std::uint64_t cycle) const;
  [[noreturn]] void report_deadlock() const;

  // ---- Runtime fault injection (src/sim/fault_injection/) -------------
  /// Kill transition: marks the plan's channels faulty and terminates
  /// every worm resident in, streaming through, or allocated onto a dead
  /// lane (DESIGN.md §14 — a dead channel takes its input buffers with
  /// it).  Runs at the top of step(), before arrivals.
  void apply_fault_plan();
  /// Repair transition: clears the plan's faulty bits.  Blocked headers
  /// re-arbitrate every cycle, so no explicit wake-up is needed.
  void repair_fault_plan();
  /// The worm currently streaming through input lane `u` (route held):
  /// the buffered head if the FIFO is nonempty, else the chain is walked
  /// upstream through alloc_owner_ to the worm's flits or its still-
  /// transmitting source.
  PacketId chain_worm(topology::LaneId u) const;
  /// Truncate-and-account kill of one in-flight worm: stops its source,
  /// releases its allocation chain, discards its buffered flits (with
  /// full per-flit credit/threshold accounting), and records the
  /// termination on the packet, the result counters, and the tracer.
  void terminate_worm(PacketId pid);
  /// Removes every flit of `pid` from `lane`'s FIFO, compacting the
  /// survivors and mirroring fc_pop's sender-side accounting per removed
  /// flit.  Returns the number of flits discarded.
  std::uint32_t fc_remove_packet(topology::LaneId lane, PacketId pid);

  // ---- Flow control (src/sim/flow_control/) ---------------------------
  /// Delivers every backpressure event due this cycle: credits return to
  /// their sender, on/off signals flip the stop bit, and a sender that
  /// becomes able to transmit again is re-seeded.  Called at the top of
  /// step(), before the phases, so a credit due at cycle T is usable at
  /// cycle T (consistent with the delay -> 0 limit).
  void drain_flow_control_events();
  /// Pushes one flit into `lane`'s input FIFO (head slot or extension)
  /// and runs the sender-side accounting (credit decrement / STOP
  /// emission).  Returns true when the flit landed at the head slot.
  bool fc_push(topology::LaneId lane, PacketId pkt, std::uint32_t seq);
  /// Pops `lane`'s head flit, promotes the next FIFO slot, and returns
  /// the freed slot upstream (inline when credit_delay is 0, as a
  /// calendar event otherwise).
  void fc_pop(topology::LaneId lane);
  /// On/off signal toward `lane`'s sender: applied inline at delay 0,
  /// queued on the calendar otherwise.
  void fc_deliver_or_queue(topology::LaneId lane, bool go);
  /// Opens `lane`'s credit-starvation interval: its sender is gated by
  /// flow control even though the FIFO has space (free slots whose
  /// credits are still in flight, or an on/off pause).  A full buffer is
  /// ordinary backpressure, never starvation — which also makes this a
  /// no-op in the legacy depth-1 / delay-0 configuration.
  void fc_open_starve(topology::LaneId lane) {
    if (fc_.count[lane] < fc_.depth && fc_.starve_since[lane] == kNoCycle) {
      fc_.starve_since[lane] = cycle_;
    }
  }
  /// Closes `lane`'s starvation interval (the sender can transmit again)
  /// and attributes the cycles to telemetry counters / the worm tracer.
  void fc_close_starve(topology::LaneId lane);
  /// True when `lane`'s sender is holding a flit it wants to push here.
  bool upstream_has_flit(topology::LaneId lane) const;

  /// Schedules a channel for pass one of the *next* advance_flits() (the
  /// upcoming one when called from the arrival/routing phases, the next
  /// cycle's when called mid-advance).  Every event that can newly make a
  /// channel ready calls this: a grant, a transmission start, a flit
  /// arriving onto a lane with a route, or a buffer freed behind a
  /// channel that already transmitted this cycle.  Setting a bit is the
  /// dedup (the old epoch-stamp array is gone).
  void schedule_channel(topology::ChannelId ch) { seed_bits_.set(ch); }

  /// Registers one more potential transmit source for a channel (a node
  /// that started transmitting, or an output-lane allocation).
  void activate_channel(topology::ChannelId ch) {
    ++channel_sources_[ch];
    schedule_channel(ch);
  }
  /// Drops one potential source; a source-less channel is never scheduled
  /// from unblock events.
  void deactivate_channel(topology::ChannelId ch) {
    WORMSIM_DCHECK(channel_sources_[ch] > 0);
    --channel_sources_[ch];
  }

  /// Adds a switch-input lane to the unrouted-header set.  Exactness
  /// invariant (validated): a lane enters exactly once per header arrival
  /// and leaves on grant, so the count stays in lockstep with the bits.
  void add_header_lane(topology::LaneId lane) {
    const std::uint32_t pos = lane_scan_pos_[lane];
    WORMSIM_DCHECK(pos != topology::kInvalidId);
    WORMSIM_DCHECK(!header_bits_.test(pos));
    header_bits_.set(pos);
    ++header_count_;
  }

  /// Marks a node as possibly able to start transmitting (queue head
  /// waiting while the port is idle); consumed by start_transmissions().
  void mark_tx_pending(topology::NodeId node) {
    if (!tx_pending_flag_[node]) {
      tx_pending_flag_[node] = 1;
      tx_pending_.push_back(node);
    }
  }

  void trace(TraceEvent::Kind kind, PacketId packet, std::uint32_t seq,
             topology::LaneId lane) {
    if (trace_ == nullptr) return;
    trace_->on_event(TraceEvent{kind, cycle_, packet, seq, lane});
  }

  const topology::NetView network_;
  const routing::Router& router_;
  TrafficSource* traffic_;
  SimConfig config_;
  util::Rng rng_;
  TraceSink* trace_ = nullptr;

  // Telemetry: null when counters are off, so the hot-loop hooks cost one
  // predictable-taken branch.  Points into result_.telemetry_counters.
  // `tel_window_` is the same pointer gated by in_measure_window(),
  // refreshed once per step() so the per-move hooks skip the window
  // comparison; `util_window_` caches the channel-utilization gate the
  // same way.
  telemetry::Counters* tel_ = nullptr;
  telemetry::Counters* tel_window_ = nullptr;
  bool util_window_ = false;
  telemetry::IntervalSampler sampler_{0};

  // Per-worm lifecycle tracer (telemetry/worm_trace.hpp); same null-gated
  // hook pattern as trace_/tel_.  The shared_ptr keeps the trace alive in
  // the returned SimResult; wtrace_ is the hot-loop alias.
  std::shared_ptr<telemetry::WormTracer> worm_tracer_;
  telemetry::WormTracer* wtrace_ = nullptr;

  // Streaming heartbeat monitor (telemetry/run_monitor.hpp, DESIGN.md
  // §15); same null-gated hook pattern.  hb_interval_ caches the cadence
  // so the per-cycle check is one compare; hb_stage_intervals_ holds the
  // per-stage lane ranges the occupancy summary scans.
  std::unique_ptr<telemetry::RunMonitor> run_monitor_;
  telemetry::RunMonitor* monitor_ = nullptr;
  std::uint64_t hb_interval_ = 0;
  std::vector<std::vector<std::pair<topology::LaneId, topology::LaneId>>>
      hb_stage_intervals_;

  // Phase self-profiler (telemetry/profiler.hpp); one predictable branch
  // per phase boundary when off.
  std::unique_ptr<telemetry::PhaseProfiler> profiler_;
  telemetry::PhaseProfiler* prof_ = nullptr;

  std::uint64_t cycle_ = 0;
  std::uint64_t last_move_cycle_ = 0;
  std::int64_t occupied_ = 0;
  std::int64_t worms_in_flight_ = 0;
  std::uint64_t delivered_flits_total_ = 0;
  std::uint64_t transmitting_nodes_ = 0;  ///< nodes with tx_packet set
  std::uint64_t queued_messages_ = 0;     ///< sum of source-queue lengths

  std::vector<PacketState> packets_;

  // Per-node state, structure-of-arrays (DESIGN.md §12).  The hot advance
  // loop touches only node_tx_packet_ (is the source streaming?); the
  // queue deques — by far the widest field — live in their own cold
  // array so a transmit-readiness probe never drags a deque header
  // through the cache.
  std::vector<std::deque<PacketId>> node_queue_;
  std::vector<PacketId> node_tx_packet_;
  std::vector<std::uint32_t> node_tx_sent_;
  std::vector<double> node_next_arrival_;

  // Per-lane state, indexed by LaneId.  buf_packet_/buf_seq_/
  // arrived_epoch_ are the *head slot* of each lane's input FIFO; the
  // slots behind it (buffer_depth > 1) and all sender-side gating live
  // in fc_ (itself lane-major structure-of-arrays).
  std::vector<PacketId> buf_packet_;
  std::vector<std::uint32_t> buf_seq_;
  std::vector<std::uint64_t> arrived_epoch_;   // epoch the buffer was filled
  std::vector<topology::LaneId> route_out_;    // input-unit worm route
  std::vector<topology::LaneId> alloc_owner_;  // output-lane allocation
  FlowControlState fc_;                        // buffers + backpressure

  // Per-physical-channel state, indexed by ChannelId.  The first five are
  // flattened copies of the topology fields the advance loop needs, so a
  // transmit decision never decodes a PhysChannel/Endpoint pair.
  std::vector<topology::LaneId> ch_first_lane_;
  std::vector<std::uint8_t> ch_num_lanes_;
  std::vector<std::uint32_t> ch_src_node_;  // source node id, kInvalidId
                                            // when the source is a switch
  util::DenseBitset ch_dst_is_switch_;  // bit-packed: 1 bit/channel keeps
                                        // the 2M-node footprint down
  std::vector<topology::ChannelId> lane_channel_;  // lane -> owning channel
  std::vector<std::uint64_t> channel_used_epoch_;  // epoch of last transmit
  std::vector<std::uint8_t> vc_rr_;                // round-robin lane pointer
  util::DenseBitset channel_faulty_;               // failed channels

  // Runtime fault plan and its transition bookkeeping; fault_any_ stays
  // true once any channel has ever faulted (fail_channel or a plan), so
  // the zero-fault hot paths and validator sweeps stay branch-cheap.
  fault_injection::FaultState fault_state_;
  bool fault_any_ = false;

  // Lanes whose buffer sits at a switch, in scan order for routing, and
  // the inverse map (lane -> scan position, kInvalidId for others).
  std::vector<topology::LaneId> switch_input_lanes_;
  std::vector<std::uint32_t> lane_scan_pos_;

  // lane -> id of the switch the lane feeds (undefined for ejection
  // lanes); flattens the lane->channel->dst chase in the telemetry hooks.
  std::vector<std::uint32_t> lane_dst_switch_;

  // Memoized routing candidates per switch-input lane, keyed by the
  // header packet occupying it.  Router::candidates is pure in
  // (packet, lane), and packet ids are unique per run, so a blocked
  // header re-arbitrating every cycle reuses its list instead of
  // re-walking the topology.  The per-lane slot width is the network's
  // maximum routing fan-out capped at kCandStrideMax — a TMIN needs one
  // slot per lane, not sixteen, and at 2M nodes that is the difference
  // between an 8 MB and a 1 GB memo table.  Lists longer than the
  // stride (possible only at extreme dilation*vcs) mark the lane
  // uncacheable.
  static constexpr std::uint32_t kCandStrideMax = 16;
  static constexpr std::uint8_t kCandOverflow = 0xFF;
  std::uint32_t cand_stride_ = kCandStrideMax;
  std::vector<PacketId> cand_pkt_;
  std::vector<std::uint8_t> cand_len_;
  std::vector<topology::LaneId> cand_store_;

  // ---- Active sets (see DESIGN.md "Engine hot loop" and §12) -----------
  // Epoch counter bumped once per advance_flits(); comparing a stamp to it
  // replaces the per-cycle std::fill over channel_used_ / arrived_.
  std::uint64_t epoch_ = 0;

  // Potential transmit sources per channel (allocated output lanes plus a
  // transmitting node); unblock events on source-less channels are noise
  // and are dropped.
  std::vector<std::uint32_t> channel_sources_;

  // Event frontier and fixpoint worklists as dense channel-id bitsets.
  // seed_bits_ collects channels scheduled for the next advance's first
  // pass; cur_pass_/next_pass_ are the fixpoint worklists.  The ascending
  // ctz scan replaces the per-pass std::sort (bit order == id order), and
  // bit idempotency replaces the seed/pass epoch-stamp dedup arrays.
  // `unblocked_` carries the channel whose downstream buffer the current
  // move freed.
  util::DenseBitset seed_bits_;
  util::DenseBitset cur_pass_;
  util::DenseBitset next_pass_;
  topology::ChannelId unblocked_ = topology::kInvalidId;

  // Switch input lanes holding an unrouted header (exact set: a header
  // enters on arrival and leaves on grant; blocked headers persist),
  // as a bitset over *scan positions* — walking it from the rotated
  // arbitration offset in two ascending ranges reproduces the old
  // rotated-comparator sort order with no sort.  header_count_ tracks the
  // popcount so the RNG-preserving early-out stays O(1).
  util::DenseBitset header_bits_;
  std::size_t header_count_ = 0;

  // Nodes whose idle port may start transmitting this cycle.
  std::vector<topology::NodeId> tx_pending_;
  std::vector<std::uint8_t> tx_pending_flag_;

  // Arrival calendar: (first cycle the node's next_arrival is due, node).
  // Due nodes are drained per cycle and processed in node-id order so the
  // RNG draw sequence matches the original full scan.
  std::priority_queue<std::pair<std::uint64_t, topology::NodeId>,
                      std::vector<std::pair<std::uint64_t, topology::NodeId>>,
                      std::greater<>>
      arrival_calendar_;
  std::vector<topology::NodeId> due_nodes_;

  std::unique_ptr<EngineValidator> validator_;

  SimResult result_;
};

}  // namespace wormsim::sim
