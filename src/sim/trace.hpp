// Flit-level event tracing.
//
// An optional observer the engine reports to: message creation, header
// routing decisions, per-channel flit transmissions, blocking retries,
// and delivery.  Used by tests to validate micro-behavior (e.g. that a
// worm's route is one of the enumerated static paths) and read delivery
// outcomes, by the multicast replay to time its rounds, and by the
// trace_route example to print a packet's journey.  Events carry a
// packet's creation serial, the id inject_message returns.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "topology/network.hpp"

namespace wormsim::sim {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kCreated,     ///< entered the source queue
    kRouted,      ///< header granted an output lane (lane = granted)
    kFlitMoved,   ///< one flit crossed a channel (lane = traversed)
    kDelivered,   ///< tail consumed at the destination
    kTerminated,  ///< worm killed by fault injection (DESIGN.md §14)
  };
  Kind kind{};
  std::uint64_t cycle = 0;
  PacketId packet = kNoPacket;
  std::uint32_t flit_seq = 0;
  topology::LaneId lane = topology::kInvalidId;
};

/// What one packet's events say about it: the cycle of its creation, of
/// its header's first move (injection), of its delivery and of its
/// termination, each kNoCycle when it never happened.
struct PacketTimeline {
  std::uint64_t created = kNoCycle;
  std::uint64_t injected = kNoCycle;
  std::uint64_t delivered = kNoCycle;
  std::uint64_t terminated = kNoCycle;

  bool was_delivered() const { return delivered != kNoCycle; }
  bool was_terminated() const { return terminated != kNoCycle; }
};

/// Receives engine events.  Implementations must be cheap; the engine
/// calls into the sink from its hot loop when tracing is enabled.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Stores everything; fine for tests and short runs.
class RecordingTraceSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    events_.push_back(event);
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Channel ids a packet's flits traversed, in first-traversal order.
  std::vector<topology::ChannelId> route_of(
      PacketId packet, const topology::Network& network) const;

  /// Events of one packet only.
  std::vector<TraceEvent> packet_events(PacketId packet) const;

  /// `packet`'s creation, injection, delivery and termination cycles:
  /// how a caller reads a message's outcome once the engine has reused
  /// its record.
  PacketTimeline timeline(PacketId packet) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace wormsim::sim
