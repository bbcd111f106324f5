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
//      worm until its tail flit crosses it.  A header whose candidates
//      are all allocated or dead sleeps until its switch releases a lane
//      or a fault kill lands, instead of being denied again every cycle
//      (DESIGN.md §7).
//   3. *Advance* — flits move one hop.  Each physical channel carries at
//      most one flit per cycle; when several virtual-channel lanes of a
//      channel are ready, a round-robin pointer picks one (flit-level fair
//      multiplexing, Section 2.2).  Movement is resolved to a fixpoint so
//      an unblocked worm advances as a unit — every flit behind a moving
//      flit moves in the same cycle, giving the full one-flit-per-cycle
//      wormhole pipeline with single-flit buffers.  On single-lane
//      networks with the paper's buffers the fixpoint is one ascending
//      pass that chases each move up its worm's allocation chain
//      (DESIGN.md §7).
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
// channels an event scheduled, the bitmap of switch input lanes holding
// an unrouted header less those asleep, the wheel of pending arrival
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
#include <memory>
#include <utility>
#include <vector>

#include "routing/router.hpp"
#include "sim/config.hpp"
#include "sim/fault_injection/state.hpp"
#include "sim/flow_control/state.hpp"
#include "sim/metrics.hpp"
#include "sim/observers.hpp"
#include "sim/packet.hpp"
#include "sim/trace.hpp"
#include "sim/traffic_source.hpp"
#include "topology/net_view.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

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
  /// Returns its creation serial, the id its trace events and worm trace
  /// carry.  A message its full source queue drops gets a serial but no
  /// record.
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

  /// Packet records held: the most messages alive at once (queued,
  /// transmitting or in the network) so far, not the messages created.
  /// A delivered or fault-terminated message's record is reused, so its
  /// outcome is read from trace events (RecordingTraceSink::timeline).
  std::size_t packet_count() const { return packets_.size(); }

  /// Lane occupancy introspection for tests: the serial of the packet of
  /// the lane FIFO's oldest flit, or kNoPacket.
  PacketId buffered_packet(topology::LaneId lane) const {
    WORMSIM_CHECK(lane < fc_.lanes);
    return serial(fc_.front(lane));
  }

  std::uint64_t source_queue_length(topology::NodeId node) const {
    return queue_length_.at(node);
  }

  /// Total flits currently buffered in the network.
  std::int64_t flits_in_flight() const { return occupied_; }

  /// Attaches an event observer (null to detach).  The engine reports
  /// creations, routing grants, flit moves, and deliveries.
  void set_trace_sink(TraceSink* sink) { observers_.set_trace_sink(sink); }

  /// Telemetry state for step()-driven runs (run() also copies both into
  /// the returned SimResult).  Counters cover the measurement window only.
  /// A sleeping header's denials (lane_blocked, switch_denials, and its
  /// worm-trace blocked interval) are charged in bulk: when it is next
  /// served after waking, when its worm is fault-terminated, or when
  /// run() ends.  An idle() engine has no sleepers, so its counts are
  /// complete.
  const telemetry::Counters& telemetry_counters() const {
    return result_.telemetry_counters;
  }
  const telemetry::IntervalSampler& sampler() const {
    return observers_.sampler();
  }

  /// Installs an explicit fault plan (tests / drivers that pick exact
  /// channels with fault_injection::add_channel_kill instead of
  /// SimConfig::fault_fraction's seeded draw).  Dead channels take no
  /// header and carry no flit; only adaptive networks (DMIN, VMIN with
  /// spare lanes, BMIN, extra-stage MINs) can route around them, and a
  /// worm whose every legal lane is dead is terminated and counted as
  /// undelivered (DESIGN.md §14).  A plan at cycle 0 faults its channels
  /// before any flit moves.  Must be called before the first step();
  /// replaces any config-built plan.
  void set_fault_plan(fault_injection::FaultPlan plan);

  /// Non-null when invariant checking is on (SimConfig::validate); the
  /// validator sweeps at the end of every step().
  const EngineValidator* validator() const { return validator_.get(); }

  /// Non-null when per-worm tracing is on (SimConfig::telemetry.worm_trace);
  /// run() also shares it into SimResult::worm_trace.
  const telemetry::WormTracer* worm_tracer() const {
    return observers_.worm_tracer();
  }

  /// Non-null when the phase self-profiler is on
  /// (SimConfig::telemetry.profile).
  const telemetry::PhaseProfiler* profiler() const {
    return observers_.profiler();
  }

  /// Flow-control introspection for tests: per-lane FIFO occupancy,
  /// credits, stop bits, and the in-flight backpressure calendar.
  const FlowControlState& flow_control() const { return fc_; }

 private:
  /// Read-only invariant checker (src/sim/validate.hpp); fault-injection
  /// tests reach private state through EngineTestPeer.
  friend class EngineValidator;
  friend struct EngineTestPeer;

  void generate_arrivals();
  /// Links `node` into the arrival-wheel bucket of its next arrival's
  /// fire cycle.
  void wheel_insert(topology::NodeId node);
  /// Starts the queue head at every pending idle node; false when it
  /// started none.
  bool start_transmissions();
  /// Serves every awake unrouted header; false when none was awake (the
  /// phase had no work).
  bool route_and_allocate();
  void advance_flits();
  void advance_pass();
  /// Moves one flit across `ch` if it can transmit now: the one entry of
  /// the multi-pass scan and of the chase's scan and upstream walk.  A
  /// move that empties a switch-input lane leaves it in popped_.
  bool try_channel(topology::ChannelId ch) {
    if (chase_) return try_single_lane(ch);
    const int pick = decide_channel(ch);
    if (pick < 0) return false;
    apply_move(ch, static_cast<unsigned>(pick));
    return true;
  }
  /// Transmit decision for one channel against current state: gathers the
  /// ready lanes, advances the round-robin pointer, opens starvation
  /// intervals on gated lanes.  Returns the picked lane index or -1.
  int decide_channel(topology::ChannelId ch);
  /// Applies a granted decision: moves the flit and stamps the channel
  /// used.
  void apply_move(topology::ChannelId ch, unsigned pick);
  /// try_channel on a chase_ network: decide_channel's readiness test for
  /// one lane, then a body flit (neither header nor tail) moves by direct
  /// copy and every other flit through apply_move.
  bool try_single_lane(topology::ChannelId ch);
  void move_from_node(topology::NodeId node, topology::LaneId lane);
  void move_from_switch(topology::LaneId in_lane, topology::LaneId out_lane);
  /// Seeds the next hop of `lane`, whose FIFO front just filled, when its
  /// worm already holds one.  On a chase_ network a hop that moved this
  /// cycle is skipped: it refilled its own lane (ejection hops are reached
  /// only by the scan, which re-seeds them), so it cannot move again until
  /// its downstream channel moves, and that move chases it.
  void seed_next_hop(topology::LaneId lane) {
    const topology::LaneId next = route_out_[lane];
    if (next == topology::kInvalidId) return;
    const topology::ChannelId ch = lane_channel_[next];
    if (chase_ && channel_used_cycle_[ch] == cycle_) return;
    schedule_channel(ch);
  }
  void deliver_flit(PacketId pkt, std::uint32_t seq);
  /// Stores `record` in the free list's most recently freed slot (a new
  /// slot when the list is empty) and appends it to `src`'s source queue.
  void enqueue_packet(topology::NodeId src, const PacketRecord& record);
  /// Returns record `pid` of a delivered or fault-terminated message to
  /// the free list.
  void free_record(PacketId pid) {
    PacketRecord& rec = packets_[pid];
    rec.length = 0;
    rec.next = free_head_;
    free_head_ = pid;
  }
  /// What observers see of record `pid`: its creation serial.
  PacketId serial(PacketId pid) const {
    return pid == kNoPacket ? kNoPacket : packets_[pid].serial;
  }
  bool in_measure_window() const {
    return cycle_ >= config_.warmup_cycles &&
           cycle_ < config_.warmup_cycles + config_.measure_cycles;
  }
  /// Builds the deterministic snapshot labelled `cycle` that interval
  /// samples and heartbeats read (Observers::tick); read-only over engine
  /// state.
  telemetry::HeartbeatSnapshot heartbeat_snapshot(std::uint64_t cycle) const;
  [[noreturn]] void report_deadlock() const;

  // ---- Runtime fault injection (src/sim/fault_injection/) -------------
  /// The kill: marks the plan's channels faulty for good and terminates
  /// every worm resident in, streaming through, or allocated onto a dead
  /// lane (DESIGN.md §14 — a dead channel takes its input buffers with
  /// it).  Runs at the top of step(), before arrivals.
  void apply_fault_plan();
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
  /// survivors in place, and returns the freed slots upstream as fc_pop
  /// does.  Returns the number of flits discarded.
  std::uint32_t fc_remove_packet(topology::LaneId lane, PacketId pid);

  // ---- Worm transitions, shared by the moves and the kill path ---------
  /// A header reached the front of switch-input `lane`'s FIFO: it joins
  /// the unrouted-header set and the tracer records its arrival.
  void header_at_front(topology::LaneId lane);
  /// Frees the route held by input lane `in_lane` and its output lane
  /// (the worm's tail crossed it, or the worm was killed), waking the
  /// headers asleep on that output lane.
  void release_route(topology::LaneId in_lane);
  /// `node` stops transmitting (its message's tail left, or the message
  /// was killed); a queued message makes it pending again.
  void stop_source(topology::NodeId node);

  // ---- Flow control (src/sim/flow_control/) ---------------------------
  /// Delivers every backpressure event due this cycle: credits return to
  /// their sender, on/off signals flip the stop bit, and the channel of a
  /// sender that becomes able to transmit again is scheduled.  Called at
  /// the top of step(), before the phases, so a credit due at cycle T is
  /// usable at cycle T (consistent with the delay -> 0 limit).
  void drain_flow_control_events();
  /// Pushes one flit into `lane`'s input FIFO and runs the sender-side
  /// accounting (credit decrement / STOP emission).  Returns true when
  /// the flit is the FIFO's front (the FIFO was empty).
  bool fc_push(topology::LaneId lane, PacketId pkt, std::uint32_t seq);
  /// Pops `lane`'s front flit and returns the freed slot upstream.
  void fc_pop(topology::LaneId lane);
  /// Returns `freed` slots of `lane`'s FIFO, just removed, to its sender:
  /// credits (inline when credit_delay is 0, as calendar events
  /// otherwise) or the GO of an on/off FIFO drained to its resume level,
  /// then opens starvation if the sender stays gated with space
  /// downstream.
  void fc_return_slots(topology::LaneId lane, std::uint32_t freed);
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
  /// arriving onto a lane with a route, a credit or GO reaching a sender,
  /// or slots a kill freed.  Setting a bit is the dedup.  A scheduled
  /// channel with nothing to send costs one failed try (DESIGN.md §7).
  void schedule_channel(topology::ChannelId ch) { seed_bits_.set(ch); }

  // ---- Sleeping headers (DESIGN.md §7, §10) ----------------------------
  /// Puts the header at scan position `pos`, just denied with every
  /// candidate allocated or dead, to sleep: routing skips it until its
  /// switch releases an allocation or a fault kill wakes it.
  void sleep_header(std::uint32_t pos) {
    const std::uint32_t sw = pos_switch_[pos];
    sleep_bits_.set(pos);
    ++sleep_count_;
    sleep_next_[pos] = sleep_head_[sw];
    sleep_head_[sw] = pos;
    sleep_since_[pos] = cycle_ + 1;
  }
  /// Wakes the headers asleep at the switch `in_lane` feeds that have
  /// `out_lane`, just released, among their candidates.  The others
  /// would be denied again with the same culprit, so they sleep on.
  void wake_waiters(topology::LaneId in_lane, topology::LaneId out_lane);
  /// Wakes every sleeper (a fault kill changes which lanes are dead at
  /// any switch).
  void wake_all();
  /// Charges the denials the header at `pos` skipped while asleep, from
  /// sleep_since_[pos] through the previous cycle, to the observers.
  void charge_sleep(std::uint32_t pos);

  /// Marks a node as possibly able to start transmitting (queue head
  /// waiting while the port is idle); consumed by start_transmissions().
  void mark_tx_pending(topology::NodeId node) {
    if (!tx_pending_flag_[node]) {
      tx_pending_flag_[node] = 1;
      tx_pending_.push_back(node);
    }
  }

  const topology::NetView network_;
  const routing::Router& router_;
  TrafficSource* traffic_;
  SimConfig config_;
  util::Rng rng_;

  std::uint64_t cycle_ = 0;
  std::uint64_t last_move_cycle_ = 0;
  std::int64_t occupied_ = 0;
  std::int64_t worms_in_flight_ = 0;
  std::uint64_t delivered_flits_total_ = 0;
  std::uint64_t transmitting_nodes_ = 0;  ///< nodes with tx_packet set
  std::uint64_t queued_messages_ = 0;     ///< sum of source-queue lengths

  // Packet records, indexed by slot (DESIGN.md §12).  FIFO slots,
  // transmit registers and source queues hold slots; observers see
  // serials.  A delivered or fault-terminated message's slot goes on a
  // LIFO free list (free_head_, linked through next) and the next message
  // created takes it, so the table holds the most messages ever alive at
  // once, not every message created.
  std::vector<PacketRecord> packets_;
  PacketId free_head_ = kNoPacket;

  // Per-node state, structure-of-arrays (DESIGN.md §12).  The hot advance
  // loop touches only node_tx_packet_ (is the source streaming?).  Each
  // node's FCFS source queue is threaded through the records' next
  // links: head and tail slots (kNoPacket when empty) and length.
  std::vector<PacketId> queue_head_;
  std::vector<PacketId> queue_tail_;
  std::vector<std::uint32_t> queue_length_;
  std::vector<PacketId> node_tx_packet_;
  std::vector<std::uint32_t> node_tx_sent_;
  std::vector<double> node_next_arrival_;

  // Per-lane state, indexed by LaneId.  Each lane's input FIFO, its
  // arrival stamp and all sender-side gating live in fc_ (structure-of-
  // arrays, slot 0 of every lane one dense array).
  std::vector<topology::LaneId> route_out_;    // input-unit worm route
  std::vector<topology::LaneId> alloc_owner_;  // output-lane allocation
  FlowControlState fc_;                        // FIFOs + backpressure

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
  std::vector<std::uint64_t> channel_used_cycle_;  // cycle of last transmit
  std::vector<std::uint8_t> vc_rr_;                // round-robin lane pointer
  util::DenseBitset channel_faulty_;               // failed channels

  // Every channel has one lane and buffers are the paper's (credit,
  // depth 1, delay 0): advance_flits() runs one ascending pass with the
  // upstream chase and direct body moves (DESIGN.md §7).  Fixed at
  // construction; multi-lane networks and other buffers keep the
  // multi-pass scan.
  bool chase_ = false;

  // Runtime fault plan and its kill bookkeeping; applied stays true once
  // the kill has fired, so the zero-fault hot paths and validator sweeps
  // stay branch-cheap.
  fault_injection::FaultState fault_state_;

  // Lanes whose buffer sits at a switch, in scan order for routing, and
  // the inverse map (lane -> scan position, kInvalidId for others).
  std::vector<topology::LaneId> switch_input_lanes_;
  std::vector<std::uint32_t> lane_scan_pos_;

  // Memoized routing candidates per switch-input lane, keyed by the
  // record of the unrouted header occupying it.  Router::candidates is
  // pure in (packet, lane), so a blocked header re-arbitrating every
  // cycle reuses its list instead of re-walking the topology.  An entry
  // lives only while its header is unrouted: a grant or a kill of the
  // header clears it, so a record reused by a later message never meets
  // its predecessor's list.  The per-lane slot width is the network's
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
  // Event frontier and fixpoint worklists as dense channel-id bitsets.
  // seed_bits_ collects channels scheduled for the next advance's first
  // pass; cur_pass_/next_pass_ are the fixpoint worklists.  The ascending
  // ctz scan replaces the per-pass std::sort (bit order == id order), and
  // bit idempotency replaces per-channel dedup stamps.
  // `popped_` carries the switch-input lane the current move emptied; its
  // channel, lane_channel_[popped_], is the one that may move next.
  util::DenseBitset seed_bits_;
  util::DenseBitset cur_pass_;
  util::DenseBitset next_pass_;
  topology::LaneId popped_ = topology::kInvalidId;

  // Switch input lanes holding an unrouted header (exact set: a header
  // enters on arrival and leaves on grant; blocked headers persist),
  // as a bitset over *scan positions* — walking it from the rotated
  // arbitration offset in two ascending ranges reproduces the old
  // rotated-comparator sort order with no sort.  header_count_ tracks the
  // popcount so the RNG-preserving early-out stays O(1).
  util::DenseBitset header_bits_;
  std::size_t header_count_ = 0;

  // Sleeping headers, a subset of header_bits_ (DESIGN.md §7): denied
  // with every candidate allocated or dead, so only a release at their
  // switch or a fault kill can change their outcome.  sleep_bits_
  // masks them out of the routing walk; each switch's sleepers form a
  // singly linked list (sleep_head_ per switch, sleep_next_ per scan
  // position) that a release there wakes in one go.  sleep_since_ is the
  // first cycle a header's denials have not been charged for (kNoCycle
  // when none are owed); it outlives the wake until the next serve.
  // pos_switch_ maps a scan position to the switch its lane feeds.
  // sleep_count_ is the popcount, so a cycle whose headers all sleep
  // skips the walk in O(1).
  util::DenseBitset sleep_bits_;
  std::size_t sleep_count_ = 0;
  std::vector<std::uint32_t> pos_switch_;
  std::vector<std::uint32_t> sleep_head_;
  std::vector<std::uint32_t> sleep_next_;
  std::vector<std::uint64_t> sleep_since_;

  // Nodes whose idle port may start transmitting this cycle.
  std::vector<topology::NodeId> tx_pending_;
  std::vector<std::uint8_t> tx_pending_flag_;

  // Arrival calendar as a hashed wheel: every active node sits in
  // exactly one bucket, the one of the first cycle its next_arrival is
  // due (fire cycle mod kWheelSlots), linked through wheel_next_.  A
  // bucket also holds nodes due in later rounds; they stay put until
  // their cycle comes.  Due nodes are processed in node-id order so the
  // RNG draw sequence matches the original full scan.
  static constexpr std::size_t kWheelSlots = 1024;
  std::vector<topology::NodeId> wheel_head_;
  std::vector<topology::NodeId> wheel_next_;
  std::vector<topology::NodeId> due_nodes_;

  std::unique_ptr<EngineValidator> validator_;

  SimResult result_;
  // Messages created, and the drain verdict tallied as they resolve.
  DrainTally drain_;
  // Declared after result_: it accumulates into result_.telemetry_counters.
  Observers observers_;
};

}  // namespace wormsim::sim
