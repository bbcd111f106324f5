// Per-lane buffer and backpressure state for the flow-control subsystem.
//
// FlowControlState owns every lane's input FIFO and the gates in front
// of it:
//
//   * the FIFO slots: a (packet, seq) store, slot-major, so slot 0 of
//     every lane is one dense per-lane array and a depth-1 run touches
//     nothing else.  slot() is the one place that says where slot s of
//     lane L lives; the engine, the validator and the test peers go
//     through front(), slot(), push(), pop() and erase();
//   * one arrival stamp per lane, the cycle of its newest push.  A lane's
//     channel moves at most one flit per cycle, so the oldest flit
//     arrived in the current cycle exactly when it is the lane's only
//     flit and the stamp equals that cycle (front_arrived);
//   * the sender-side gates: credit counters (kCredit /
//     kVirtualCutThrough) or stop bits (kOnOff);
//   * the in-flight backpressure events — credit returns or on/off
//     signals travelling upstream for `delay` cycles.  Events are pushed
//     with nondecreasing due cycles, so a FIFO is the calendar: a flat
//     power-of-two ring (EventCalendar) that grows when full;
//   * per-lane credit-starvation interval clocks (engine.cpp opens and
//     closes them, only when a reader is on: the window counters or the
//     worm tracer, telemetry/worm_trace.hpp, which consume the
//     attribution).
//
// The engine does the sender-side accounting around push and pop (it
// needs the cycle, the calendar and the observers); this struct only
// provides the storage and the small pure helpers, keeping the
// scheme-specific arithmetic in one place.
//
// Like the rest of the engine's hot state, everything here is flat
// structure-of-arrays (DESIGN.md §12): parallel vectors indexed by
// LaneId, and the slot store indexed by slot().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/flow_control/scheme.hpp"
#include "sim/packet.hpp"
#include "topology/network.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

/// One backpressure event in flight toward a sender.  For credit schemes
/// it returns one credit for `lane`; for on/off it delivers the latest
/// stop/go decision (`go` = resume sending).
struct FlowControlEvent {
  std::uint64_t due = 0;  ///< first cycle the sender can act on it
  topology::LaneId lane = topology::kInvalidId;
  bool go = false;  ///< on/off only; ignored by credit returns
};

/// The backpressure calendar: in-flight events in push order, which is
/// due order.  A flat power-of-two ring, so a push or a pop is one store
/// or load and a mask; a push that finds it full doubles it, keeping the
/// order, and a run stops growing it once it holds the run's peak.
class EventCalendar {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots allocated; size() never exceeds it.
  std::size_t capacity() const { return ring_.size(); }
  /// The earliest due event; the calendar must not be empty.
  const FlowControlEvent& front() const { return ring_[head_]; }
  /// The `i`-th earliest event, i < size().
  const FlowControlEvent& operator[](std::size_t i) const {
    return ring_[(head_ + i) & mask_];
  }
  void push_back(const FlowControlEvent& ev) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & mask_] = ev;
    ++size_;
  }
  void pop_front() {
    WORMSIM_DCHECK(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Doubles the ring, moving the events to its start in order.
  void grow();

  std::vector<FlowControlEvent> ring_;
  std::size_t mask_ = 0;  ///< capacity() - 1 once allocated
  std::size_t head_ = 0;  ///< slot of front()
  std::size_t size_ = 0;
};

struct FlowControlState {
  FlowControlScheme scheme = FlowControlScheme::kCredit;
  std::uint32_t depth = 1;  ///< input-buffer slots per lane, in flits
  std::uint32_t delay = 0;  ///< cycles a credit / on-off signal travels
  /// kOnOff: STOP is emitted when occupancy *rises to* off_threshold
  /// (depth - delay, so the flits already in flight still fit) and GO
  /// when it *drains to* on_threshold (half the stop level, the
  /// hysteresis band that keeps the signal wire quiet).
  std::uint32_t off_threshold = 1;
  std::uint32_t on_threshold = 0;

  /// Lanes in the network: the stride between two slots of one lane.
  std::size_t lanes = 0;
  /// Flits buffered per lane.  Slot 0 is occupied iff count[lane] > 0.
  std::vector<std::uint32_t> count;
  /// Cycle of each lane's newest push, kNoCycle before the first.
  std::vector<std::uint64_t> stamp;
  /// Sender-visible free slots per lane (kCredit / kVirtualCutThrough).
  std::vector<std::uint32_t> credits;
  /// Last delivered on/off signal per lane (kOnOff); 1 = STOP.
  std::vector<std::uint8_t> stopped;

  /// The FIFO slots, slot-major: slot s of lane L (its (s+1)-th oldest
  /// flit) lives at slot(L, s).  Slots at or past count[L] hold
  /// kNoPacket, so the validator can re-derive occupancy exactly.
  std::vector<PacketId> slot_packet;
  std::vector<std::uint32_t> slot_seq;

  /// Backpressure calendar; front() is always the earliest due event.
  EventCalendar events;

  /// Cycle each lane's open credit-starvation interval began, kNoCycle
  /// when closed.  Starvation = a sender gated by flow control while the
  /// downstream FIFO has space (credits still in flight, or an on/off
  /// GO pending / hysteresis pause) — distinct from a full buffer, which
  /// is ordinary wormhole backpressure.  Always zero for the legacy
  /// depth-1 / delay-0 credit configuration, and in a run whose window
  /// counters and worm tracer are both off (no interval ever opens).
  std::vector<std::uint64_t> starve_since;

  void configure(std::size_t lane_count, FlowControlScheme s,
                 std::uint32_t buffer_depth, std::uint32_t credit_delay);

  /// Sender gate for pushing one flit into `lane`'s input FIFO.  Only
  /// meaningful for switch-destined lanes (ejection consumes instantly).
  bool can_accept(topology::LaneId lane) const {
    return scheme == FlowControlScheme::kOnOff ? stopped[lane] == 0
                                               : credits[lane] > 0;
  }

  /// kVirtualCutThrough grant gate: room for the whole packet.
  bool can_accept_packet(topology::LaneId lane, std::uint32_t length) const {
    return credits[lane] >= length;
  }

  /// Index of slot `s` (0 = oldest flit) of `lane` in the slot store.
  std::size_t slot(topology::LaneId lane, std::uint32_t s) const {
    return std::size_t{s} * lanes + lane;
  }
  /// `lane`'s oldest flit's packet, kNoPacket when the FIFO is empty.
  PacketId front(topology::LaneId lane) const { return slot_packet[lane]; }
  /// `lane`'s oldest flit's seq; meaningful only when the FIFO is not
  /// empty.
  std::uint32_t front_seq(topology::LaneId lane) const {
    return slot_seq[lane];
  }
  /// True when `lane`'s oldest flit arrived in `cycle`, the current one:
  /// it is the lane's only flit, pushed in this cycle.  The stamp goes
  /// first: it is usually from an earlier cycle, so the count is rarely
  /// read.
  bool front_arrived(topology::LaneId lane, std::uint64_t cycle) const {
    return stamp[lane] == cycle && count[lane] == 1;
  }

  /// Appends one flit to `lane`'s FIFO (the caller checked the gate) and
  /// stamps the lane with `cycle`.
  void push(topology::LaneId lane, PacketId pkt, std::uint32_t seq,
            std::uint64_t cycle) {
    WORMSIM_DCHECK(count[lane] < depth);
    // Into an empty FIFO (every push at depth 1) the slot is the lane
    // itself: its address then does not wait on the count load and the
    // multiply, which the worm chase's body moves would feel.
    const std::uint32_t held = count[lane]++;
    const std::size_t at = held == 0 ? std::size_t{lane} : slot(lane, held);
    slot_packet[at] = pkt;
    slot_seq[at] = seq;
    stamp[lane] = cycle;
  }
  /// Removes `lane`'s oldest flit, shifting the others down one slot.
  void pop(topology::LaneId lane) {
    WORMSIM_DCHECK(count[lane] > 0);
    const std::uint32_t left = --count[lane];
    std::size_t at = lane;
    for (std::uint32_t s = 0; s < left; ++s, at += lanes) {
      slot_packet[at] = slot_packet[at + lanes];
      slot_seq[at] = slot_seq[at + lanes];
    }
    slot_packet[at] = kNoPacket;
  }
  /// Removes every flit of `pkt` from `lane`'s FIFO, compacting the
  /// others in place in their order; returns the number removed.  The
  /// stamp may then name an erased flit's cycle, so call it only before
  /// a cycle's advance (fault kills, routing terminations): every push
  /// was in an earlier cycle, and front_arrived stays exact.
  std::uint32_t erase(topology::LaneId lane, PacketId pkt);
};

}  // namespace wormsim::sim
