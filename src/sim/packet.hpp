// Packet bookkeeping for both engines.
#pragma once

#include <cstddef>
#include <cstdint>

#include "topology/network.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

using PacketId = std::uint32_t;
inline constexpr PacketId kNoPacket = topology::kInvalidId;
inline constexpr std::uint64_t kNoCycle = ~std::uint64_t{0};

/// Id of a run's message created after `count` others: its creation
/// serial.  Ids are 32 bits and the last value is kNoPacket, so a run's
/// 2^32-th message aborts here instead of taking kNoPacket as its id and
/// the messages after it wrapping onto live ids.
inline PacketId next_packet_id(std::size_t count) {
  WORMSIM_CHECK_MSG(count < kNoPacket,
                    "packet id space exhausted: a run creates at most "
                    "2^32 - 1 packets");
  return static_cast<PacketId>(count);
}

/// What a message is and how far it got.  The paper treats packets and
/// messages interchangeably (no packetization), and so do we.
struct PacketState {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t create_cycle = kNoCycle;  ///< entered the source queue
  std::uint64_t inject_cycle = kNoCycle;  ///< header flit entered network
  std::uint32_t length = 0;  ///< flits
  /// BMIN: FirstDifference(src, dst), where the worm turns around (a
  /// stage index; networks stay under 2^32 nodes, so under 33 stages).
  std::uint8_t turn_stage = 0;
  bool measured = false;  ///< created inside the measurement window
};

/// The wormhole engine's record of one live message, held in a slot of
/// its record table from creation until the message is delivered or
/// fault-terminated; then the slot is free for the next message created
/// (DESIGN.md §12).  A free record has length 0.
struct PacketRecord : PacketState {
  /// The message's id outside the engine: trace events, the worm tracer
  /// and inject_message's return value.  A slot's serial changes with
  /// every reuse, its index does not.
  PacketId serial = kNoPacket;
  /// The next record in the same source queue, or in the free list.
  PacketId next = kNoPacket;
};

}  // namespace wormsim::sim
