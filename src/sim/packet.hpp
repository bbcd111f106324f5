// Packet bookkeeping for the wormhole engine.
#pragma once

#include <cstddef>
#include <cstdint>

#include "topology/network.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

using PacketId = std::uint32_t;
inline constexpr PacketId kNoPacket = topology::kInvalidId;
inline constexpr std::uint64_t kNoCycle = ~std::uint64_t{0};

/// Id of the packet appended to a run's packet table holding `count`
/// packets.  Ids are 32 bits and the last value is kNoPacket, so a run's
/// 2^32-th message aborts here instead of taking kNoPacket as its id and
/// the messages after it wrapping onto live ids.
inline PacketId next_packet_id(std::size_t count) {
  WORMSIM_CHECK_MSG(count < kNoPacket,
                    "packet id space exhausted: a run holds at most "
                    "2^32 - 1 packets");
  return static_cast<PacketId>(count);
}

/// Lifetime record of one message.  The paper treats packets and messages
/// interchangeably (no packetization), and so do we.
struct PacketState {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint32_t length = 0;  ///< flits
  /// BMIN: FirstDifference(src, dst), where the worm turns around.
  unsigned turn_stage = 0;
  std::uint64_t create_cycle = kNoCycle;   ///< entered the source queue
  std::uint64_t inject_cycle = kNoCycle;   ///< header flit entered network
  std::uint64_t deliver_cycle = kNoCycle;  ///< tail flit consumed
  /// Cycle the worm was killed by fault injection (DESIGN.md §14);
  /// kNoCycle for every packet in a fault-free run.
  std::uint64_t terminate_cycle = kNoCycle;
  /// Flits the source had sent when the kill landed (= length once the
  /// tail left the source).  Terminated packets only.
  std::uint32_t flits_sent_at_kill = 0;
  /// In-network flits discarded by the kill; flits_sent_at_kill minus
  /// flits already ejected.  Terminated packets only.
  std::uint32_t flits_truncated = 0;
  bool measured = false;  ///< created inside the measurement window

  bool delivered() const { return deliver_cycle != kNoCycle; }
  bool terminated() const { return terminate_cycle != kNoCycle; }
};

}  // namespace wormsim::sim
