// Store-and-forward (packet-switching) reference engine.
//
// Section 1 of the paper contrasts wormhole switching with the
// packet-switched MINs of the earlier literature (refs [4], [5], [6]):
// under store-and-forward a packet is buffered *entirely* at every switch
// before moving on, so zero-load latency is path_length x packet_length
// cycles instead of wormhole's path_length + packet_length - 1 — latency
// is distance-SENSITIVE.  This engine makes that contrast measurable on
// the exact same Network/Router substrate.
//
// Model: event-driven at packet granularity.  Each virtual-channel lane
// owns a FIFO buffer of SimConfig::buffer_depth whole packets at its
// downstream end.  A transfer occupies the physical channel for `length` cycles and
// reserves one downstream slot; the packet continues to occupy its
// upstream slot until the transfer completes (classic store-and-forward).
// Output selection uses the same Router candidates and uniform random
// choice as the wormhole engine.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "routing/router.hpp"
#include "sim/config.hpp"
#include "sim/fault_injection/state.hpp"
#include "sim/metrics.hpp"
#include "sim/observers.hpp"
#include "sim/packet.hpp"
#include "sim/traffic_source.hpp"
#include "topology/net_view.hpp"
#include "util/rng.hpp"

namespace wormsim::sim {

class StoreForwardValidator;
struct StoreForwardTestPeer;

/// Takes the wormhole engine's SimConfig; `buffer_depth` counts whole
/// packets here.  Faults kill at packet granularity: a dead channel's
/// buffers discard their packets, transfers onto it terminate on arrival,
/// and a packet whose every next hop is dead is terminated.  Of the
/// telemetry knobs only `worm_trace` and the heartbeats apply (there are
/// no cycles to count, sample or profile; heartbeats merge the windows
/// no event landed in), and the flow-control, arbitration and
/// lane-selection knobs do not apply.
class StoreForwardEngine {
 public:
  StoreForwardEngine(const topology::NetView& network,
                     const routing::Router& router, TrafficSource* traffic,
                     SimConfig config);
  /// Out of line: StoreForwardValidator is incomplete here.
  ~StoreForwardEngine();

  /// A message and its outcome.  This engine keeps every message's record
  /// for the whole run.
  struct Packet : PacketState {
    std::uint64_t deliver_cycle = kNoCycle;  ///< arrived at its destination
    /// Cycle a fault kill discarded the packet (DESIGN.md §14); kNoCycle
    /// for every packet in a fault-free run.
    std::uint64_t terminate_cycle = kNoCycle;

    bool delivered() const { return deliver_cycle != kNoCycle; }
    bool terminated() const { return terminate_cycle != kNoCycle; }
  };

  /// Queues a message at its source at the given time (>= current time).
  PacketId inject_message(topology::NodeId src, std::uint64_t dst,
                          std::uint32_t length, std::uint64_t when = 0);

  /// Runs warmup + measurement + drain (with traffic), collecting metrics.
  SimResult run();

  /// Processes events until nothing is queued or in flight; returns true
  /// when fully drained before `max_time`.
  bool run_until_idle(std::uint64_t max_time);

  const Packet& packet(PacketId id) const { return packets_.at(id); }
  std::uint64_t now() const { return now_; }

  /// Non-null when per-packet tracing is on (telemetry.worm_trace); run()
  /// also shares it into SimResult::worm_trace.
  const telemetry::WormTracer* worm_tracer() const {
    return observers_.worm_tracer();
  }

  /// Replaces the fault plan before any event has been processed
  /// (tests / callers that need an exact channel set rather than a
  /// seeded fraction).  Must be called at time 0 with no faults applied.
  void set_fault_plan(fault_injection::FaultPlan plan);

 private:
  /// Read-only invariant checker (src/sim/validate.hpp); fault-injection
  /// tests reach private state through StoreForwardTestPeer.
  friend class StoreForwardValidator;
  friend struct StoreForwardTestPeer;
  struct Event {
    std::uint64_t time;
    enum class Kind : std::uint8_t {
      kArrivalGen,    ///< node draws its next message (payload = node)
      kTransferDone,  ///< a channel transfer completes (payload = transfer)
      kInject         ///< a manually injected packet enters its queue
    } kind;
    std::uint64_t payload;

    bool operator>(const Event& other) const { return time > other.time; }
  };

  struct Transfer {
    PacketId packet;
    topology::LaneId from;  ///< kInvalidId when leaving the source node
    topology::LaneId to;
  };

  struct LaneState {
    std::deque<PacketId> queue;  ///< fully received packets, FIFO
    std::uint32_t incoming = 0;  ///< slots reserved by in-flight transfers
    bool transmitting = false;   ///< head packet is being forwarded
  };

  struct NodeState {
    std::deque<PacketId> queue;
    bool transmitting = false;
    bool active = false;
  };

  bool in_measure_window() const {
    return now_ >= config_.warmup_cycles &&
           now_ < config_.warmup_cycles + config_.measure_cycles;
  }

  void schedule(std::uint64_t time, Event::Kind kind, std::uint64_t payload);
  void process(const Event& event);
  /// Tries to start transfers everywhere marked pending.  Within one pump
  /// a start only ever *disables* other starts (the channel becomes busy,
  /// a downstream slot is reserved, the sender turns busy), so a single
  /// pass over the pending sets — nodes ascending, then lanes ascending,
  /// the original full-scan order — reaches the fixpoint.
  void pump();
  /// Marks the entities a state change may have enabled; every gating
  /// condition flip re-marks, so the pending sets stay a superset of the
  /// startable entities (see DESIGN.md "Engine hot loop").
  void mark_node_pending(topology::NodeId node) {
    if (!node_pending_flag_[node]) {
      node_pending_flag_[node] = 1;
      pending_nodes_.push_back(node);
    }
  }
  void mark_lane_pending(topology::LaneId lane) {
    if (!lane_pending_flag_[lane]) {
      lane_pending_flag_[lane] = 1;
      pending_lanes_.push_back(lane);
    }
  }
  /// Marks everything that may transfer across `channel` (called when the
  /// channel frees up or its destination buffer gains a slot).
  void mark_channel_users(topology::ChannelId channel);
  bool try_start_from_node(topology::NodeId node);
  bool try_start_from_lane(topology::LaneId lane);
  bool start_transfer(PacketId pkt, topology::LaneId from,
                      topology::LaneId to);
  void finish_transfer(const Transfer& transfer);
  void deliver(PacketId pkt);
  /// Discards a packet killed by fault injection: stamps the terminate
  /// cycle, truncates every flit (packet granularity — the whole packet
  /// sat in the dead buffer) and accounts it.  Queue bookkeeping is the
  /// caller's job.
  void terminate_packet(PacketId pkt);
  void apply_fault_plan();
  bool lane_has_space(topology::LaneId lane) const;
  bool idle() const;
  /// Deterministic heartbeat snapshot at cadence boundary `cycle`
  /// (packet-granular counters; stage occupancy counts buffered packets).
  telemetry::HeartbeatSnapshot heartbeat_snapshot(std::uint64_t cycle) const;

  const topology::NetView network_;
  const routing::Router& router_;
  TrafficSource* traffic_;
  SimConfig config_;
  util::Rng rng_;

  std::uint64_t now_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  // Channel-free marks ordered by time.  "Free" is the time comparison
  // channel_free_at_ <= now_, so a channel becomes usable the moment now_
  // reaches its free time — possibly while its kTransferDone event is
  // still behind other same-timestamp events in the heap.  Draining this
  // calendar at the top of process() makes the mark visible to the first
  // pump at that timestamp, like the original every-event full scan.
  std::priority_queue<std::pair<std::uint64_t, topology::ChannelId>,
                      std::vector<std::pair<std::uint64_t,
                                            topology::ChannelId>>,
                      std::greater<>>
      free_calendar_;
  // Indexed by payload of kTransferDone.  A finished transfer's slot goes
  // on free_transfers_ and the next transfer started takes it, so the
  // table holds the most transfers ever in flight at once, not one entry
  // per hop of the run.  The heap orders events by time alone, so which
  // slot a transfer gets changes no event order.
  std::vector<Transfer> transfers_;
  std::vector<std::uint32_t> free_transfers_;

  std::vector<Packet> packets_;
  std::vector<NodeState> nodes_;
  std::vector<LaneState> lanes_;
  std::vector<std::uint64_t> channel_free_at_;
  /// Dead physical channels (fault injection); set at the top of
  /// process() once now_ reaches the plan's kill cycle.
  std::vector<std::uint8_t> channel_faulty_;
  /// applied stays true once the kill has fired, so the validator knows
  /// terminated packets may exist.
  fault_injection::FaultState fault_state_;
  std::int64_t in_flight_ = 0;
  std::int64_t queued_packets_ = 0;  ///< packets in node + lane queues

  // Active sets: entities whose gating conditions may have flipped since
  // the last pump, plus the static feeder map (input lanes per switch)
  // used to expand channel-freed / slot-freed events.
  std::vector<std::vector<topology::LaneId>> switch_feed_lanes_;
  std::vector<topology::NodeId> pending_nodes_;
  std::vector<topology::LaneId> pending_lanes_;
  std::vector<std::uint8_t> node_pending_flag_;
  std::vector<std::uint8_t> lane_pending_flag_;

  std::unique_ptr<StoreForwardValidator> validator_;
  std::uint64_t delivered_flits_total_ = 0;

  SimResult result_;
  // Messages created, and the drain verdict tallied as they resolve.
  DrainTally drain_;
  Observers observers_;
};

}  // namespace wormsim::sim
