#include "sim/validate.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/store_forward.hpp"

namespace wormsim::sim {

using topology::ChannelId;
using topology::ChannelRole;
using topology::kInvalidId;
using topology::LaneId;
using topology::NodeId;
using topology::PhysChannel;
using topology::Side;
using topology::Switch;

bool validate_enabled_from_env() {
  const char* value = std::getenv("WORMSIM_VALIDATE");
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

namespace {

/// Checks one hop (in_lane -> out_lane) against the routing rules both
/// engines must obey: destination-tag digits on unidirectional MINs
/// (Section 4), the three turnaround phases on BMINs (Fig. 7).  Returns
/// nullptr for a legal hop, else a static string naming the violation.
/// Pass in_lane == kInvalidId for the injection hop out of a node.
const char* illegal_hop_reason(const topology::NetView& net,
                               const PacketState& pkt, LaneId in_lane,
                               LaneId out_lane) {
  const PhysChannel out_ch = net.lane_channel(out_lane);
  if (in_lane == kInvalidId) {
    return out_ch.id == net.injection_channel(static_cast<NodeId>(pkt.src))
               ? nullptr
               : "injection onto a channel that is not the source's link";
  }
  const PhysChannel in_ch = net.lane_channel(in_lane);
  if (!in_ch.dst.is_switch()) return "input lane does not end at a switch";
  if (!out_ch.src.is_switch() || out_ch.src.id != in_ch.dst.id) {
    return "output lane does not leave the switch the input lane feeds";
  }
  if (out_ch.role == ChannelRole::kEjection &&
      out_ch.dst.id != static_cast<std::uint32_t>(pkt.dst)) {
    return "ejection channel of a node other than the destination";
  }
  const unsigned stage = net.switch_stage(in_ch.dst.id);
  if (!net.bidirectional()) {
    if (out_ch.src.side != Side::kRight) {
      return "unidirectional worm leaving through a left-side port";
    }
    if (stage >= net.extra_stages()) {
      const unsigned port = net.topology().output_port(
          stage - net.extra_stages(), pkt.dst);
      if (out_ch.src.port != port) {
        return "output port disagrees with the destination-tag digit";
      }
    }
    return nullptr;
  }
  // BMIN turnaround: forward freely below the turn stage, turn exactly
  // once at FirstDifference(src, dst), then descend on destination digits.
  const bool moving_up = in_ch.role == ChannelRole::kInjection ||
                         in_ch.role == ChannelRole::kForward;
  if (moving_up && stage < pkt.turn_stage) {
    return out_ch.src.side == Side::kRight
               ? nullptr
               : "forward-phase worm leaving through a left-side port";
  }
  if (moving_up && stage > pkt.turn_stage) {
    return "worm above its turnaround stage (skipped turn)";
  }
  if (!moving_up && stage >= pkt.turn_stage) {
    return "backward worm at or above its turnaround stage";
  }
  if (out_ch.src.side != Side::kLeft) {
    return "descending worm leaving through a right-side port (turned twice?)";
  }
  const unsigned port = net.address_spec().digit(pkt.dst, stage);
  if (out_ch.src.port != port) {
    return "left output port disagrees with the destination digit";
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// EngineValidator
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] __attribute__((format(printf, 4, 5))) void engine_fail(
    const char* invariant, std::uint64_t cycle, LaneId lane, const char* fmt,
    ...) {
  std::fprintf(stderr, "wormsim validate: invariant '%s' violated at cycle "
                       "%llu, ",
               invariant, static_cast<unsigned long long>(cycle));
  if (lane == kInvalidId) {
    std::fputs("lane -: ", stderr);
  } else {
    std::fprintf(stderr, "lane %u: ", lane);
  }
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace

EngineValidator::EngineValidator(const Engine& engine) : e_(engine) {
  lane_mark_.assign(e_.network_.lane_count(), 0);
  node_mark_.assign(e_.network_.node_count(), 0);
  chan_mark_.assign(e_.network_.channel_count(), 0);
}

void EngineValidator::check_cycle_end() {
  ++sweeps_;
  check_buffers_and_counters();
  check_flow_control();
  check_allocation();
  check_routing_legality();
  check_active_sets();
  check_fault_state();
  maybe_probe_deadlock();
}

void EngineValidator::check_buffers_and_counters() {
  const std::uint64_t cycle = e_.cycle_;
  std::int64_t occupied = 0;
  buffered_.clear();
  for (LaneId lane = 0; lane < e_.buf_packet_.size(); ++lane) {
    const PacketId pid = e_.buf_packet_[lane];
    if (pid == kNoPacket) continue;
    ++occupied;
    if (pid >= e_.packets_.size()) {
      engine_fail("flit-conservation", cycle, lane,
                  "buffer holds unknown packet id %u", pid);
    }
    const PacketState& pkt = e_.packets_[pid];
    if (e_.buf_seq_[lane] >= pkt.length) {
      engine_fail("worm-contiguity", cycle, lane,
                  "buffered seq %u beyond packet %u's length %u",
                  e_.buf_seq_[lane], pid, pkt.length);
    }
    if (pkt.delivered()) {
      engine_fail("flit-conservation", cycle, lane,
                  "packet %u delivered at cycle %llu but still buffered", pid,
                  static_cast<unsigned long long>(pkt.deliver_cycle));
    }
    if (pkt.terminated()) {
      engine_fail("fault-termination", cycle, lane,
                  "packet %u terminated at cycle %llu but still buffered",
                  pid,
                  static_cast<unsigned long long>(pkt.terminate_cycle));
    }
    if (e_.arrived_epoch_[lane] > e_.epoch_) {
      engine_fail("stale-epoch-stamp", cycle, lane,
                  "arrival stamp %llu is ahead of the engine epoch %llu",
                  static_cast<unsigned long long>(e_.arrived_epoch_[lane]),
                  static_cast<unsigned long long>(e_.epoch_));
    }
    buffered_.emplace_back(
        (static_cast<std::uint64_t>(pid) << 32) | e_.buf_seq_[lane], lane);
  }
  // Extension slots of deeper FIFOs hold flits too; fold them into the
  // same conservation and contiguity books as the head slots.
  if (e_.fc_.depth > 1) {
    for (LaneId lane = 0; lane < e_.buf_packet_.size(); ++lane) {
      const std::uint32_t count = e_.fc_.count[lane];
      for (std::uint32_t s = 0; s + 1 < count; ++s) {
        const std::size_t slot = e_.fc_.ext_base(lane) + s;
        const PacketId pid = e_.fc_.ext_packet[slot];
        if (pid == kNoPacket || pid >= e_.packets_.size()) {
          engine_fail("flit-conservation", cycle, lane,
                      "fifo slot %u holds %s packet id %u", s + 1,
                      pid == kNoPacket ? "no" : "unknown", pid);
        }
        const PacketState& pkt = e_.packets_[pid];
        if (e_.fc_.ext_seq[slot] >= pkt.length) {
          engine_fail("worm-contiguity", cycle, lane,
                      "fifo slot %u's seq %u beyond packet %u's length %u",
                      s + 1, e_.fc_.ext_seq[slot], pid, pkt.length);
        }
        if (pkt.delivered()) {
          engine_fail("flit-conservation", cycle, lane,
                      "packet %u delivered at cycle %llu but still in fifo "
                      "slot %u",
                      pid,
                      static_cast<unsigned long long>(pkt.deliver_cycle),
                      s + 1);
        }
        if (pkt.terminated()) {
          engine_fail("fault-termination", cycle, lane,
                      "packet %u terminated at cycle %llu but still in fifo "
                      "slot %u",
                      pid,
                      static_cast<unsigned long long>(pkt.terminate_cycle),
                      s + 1);
        }
        if (e_.fc_.ext_epoch[slot] > e_.epoch_) {
          engine_fail("stale-epoch-stamp", cycle, lane,
                      "fifo slot %u's arrival stamp %llu is ahead of the "
                      "engine epoch %llu",
                      s + 1,
                      static_cast<unsigned long long>(e_.fc_.ext_epoch[slot]),
                      static_cast<unsigned long long>(e_.epoch_));
        }
        ++occupied;
        buffered_.emplace_back(
            (static_cast<std::uint64_t>(pid) << 32) | e_.fc_.ext_seq[slot],
            lane);
      }
    }
  }
  if (occupied != e_.occupied_) {
    engine_fail("flit-conservation", cycle, kInvalidId,
                "%lld flits buffered but the occupancy counter says %lld",
                static_cast<long long>(occupied),
                static_cast<long long>(e_.occupied_));
  }

  // Worm continuity: a worm's buffered flits, sorted by seq, must form one
  // contiguous run whose newest flit is the last one its source
  // transmitted (single-flit buffers cannot reorder a worm, and the
  // freshest flit always sits in the injection lane while transmission is
  // under way).
  std::sort(buffered_.begin(), buffered_.end());
  std::int64_t worms = 0;
  for (std::size_t i = 0; i < buffered_.size();) {
    const auto pid = static_cast<PacketId>(buffered_[i].first >> 32);
    const PacketState& pkt = e_.packets_[pid];
    std::size_t j = i + 1;
    while (j < buffered_.size() &&
           static_cast<PacketId>(buffered_[j].first >> 32) == pid) {
      const auto prev = static_cast<std::uint32_t>(buffered_[j - 1].first);
      const auto cur = static_cast<std::uint32_t>(buffered_[j].first);
      if (cur != prev + 1) {
        engine_fail("worm-contiguity", cycle, buffered_[j].second,
                    "packet %u's buffered flits jump from seq %u to %u", pid,
                    prev, cur);
      }
      ++j;
    }
    const std::uint32_t sent = e_.node_tx_packet_[pkt.src] == pid
                                   ? e_.node_tx_sent_[pkt.src]
                                   : pkt.length;
    const auto newest = static_cast<std::uint32_t>(buffered_[j - 1].first);
    if (newest + 1 != sent) {
      engine_fail("worm-contiguity", cycle, buffered_[j - 1].second,
                  "packet %u's newest buffered flit is seq %u but %u flits "
                  "left the source",
                  pid, newest, sent);
    }
    ++worms;
    i = j;
  }
  // A worm whose every transmitted flit was already delivered while the
  // rest wait at the source for credits holds no buffer anywhere yet is
  // still in flight.  Impossible at depth 1 / delay 0 — a gated sender
  // implies a full (hence occupied) downstream buffer — but routine under
  // delayed credit returns.
  for (NodeId node = 0; node < e_.node_tx_packet_.size(); ++node) {
    const PacketId pid = e_.node_tx_packet_[node];
    if (pid == kNoPacket || e_.node_tx_sent_[node] == 0) continue;
    const auto probe =
        std::make_pair(static_cast<std::uint64_t>(pid) << 32, LaneId{0});
    const auto it =
        std::lower_bound(buffered_.begin(), buffered_.end(), probe);
    if (it == buffered_.end() ||
        static_cast<PacketId>(it->first >> 32) != pid) {
      ++worms;
    }
  }
  if (worms != e_.worms_in_flight_) {
    engine_fail("worm-conservation", cycle, kInvalidId,
                "%lld distinct worms are in flight but the counter says %lld",
                static_cast<long long>(worms),
                static_cast<long long>(e_.worms_in_flight_));
  }

  std::uint64_t transmitting = 0;
  std::uint64_t queued = 0;
  for (NodeId node = 0; node < e_.node_tx_packet_.size(); ++node) {
    const PacketId tx = e_.node_tx_packet_[node];
    queued += e_.node_queue_[node].size();
    if (tx == kNoPacket) continue;
    ++transmitting;
    if (tx >= e_.packets_.size() || e_.packets_[tx].delivered()) {
      engine_fail("flit-conservation", cycle, kInvalidId,
                  "node %u is transmitting packet %u which is %s", node, tx,
                  tx >= e_.packets_.size() ? "unknown" : "already delivered");
    }
    if (e_.packets_[tx].terminated()) {
      engine_fail("fault-termination", cycle, kInvalidId,
                  "node %u is still transmitting terminated packet %u", node,
                  tx);
    }
  }
  if (transmitting != e_.transmitting_nodes_) {
    engine_fail("flit-conservation", cycle, kInvalidId,
                "%llu nodes transmitting but the counter says %llu",
                static_cast<unsigned long long>(transmitting),
                static_cast<unsigned long long>(e_.transmitting_nodes_));
  }
  if (queued != e_.queued_messages_) {
    engine_fail("flit-conservation", cycle, kInvalidId,
                "%llu messages queued at sources but the counter says %llu",
                static_cast<unsigned long long>(queued),
                static_cast<unsigned long long>(e_.queued_messages_));
  }
}

void EngineValidator::check_flow_control() {
  const std::uint64_t cycle = e_.cycle_;
  const FlowControlState& fc = e_.fc_;

  // One pass over the backpressure calendar: due cycles must be
  // nondecreasing and strictly in the future (due events were drained at
  // the top of this cycle), credit runs carry no on/off payload, and the
  // per-lane aggregates feed the conservation checks below.
  if (pending_returns_.size() != fc.count.size()) {
    pending_returns_.resize(fc.count.size());
    last_signal_.resize(fc.count.size());
  }
  std::fill(pending_returns_.begin(), pending_returns_.end(), 0u);
  std::fill(last_signal_.begin(), last_signal_.end(), std::int8_t{-1});
  std::uint64_t prev_due = 0;
  for (const FlowControlEvent& ev : fc.events) {
    if (ev.lane >= fc.count.size()) {
      engine_fail("credit-conservation", cycle, kInvalidId,
                  "backpressure event carries bad lane id %u", ev.lane);
    }
    if (ev.due <= cycle || ev.due < prev_due) {
      engine_fail("credit-conservation", cycle, ev.lane,
                  "backpressure event due at cycle %llu is %s",
                  static_cast<unsigned long long>(ev.due),
                  ev.due <= cycle ? "already overdue" : "out of order");
    }
    prev_due = ev.due;
    if (fc.scheme == FlowControlScheme::kOnOff) {
      last_signal_[ev.lane] = ev.go ? 1 : 0;
    } else {
      if (ev.go) {
        engine_fail("credit-conservation", cycle, ev.lane,
                    "credit-scheme calendar carries an on/off signal");
      }
      ++pending_returns_[ev.lane];
    }
  }

  for (LaneId lane = 0; lane < fc.count.size(); ++lane) {
    const std::uint32_t count = fc.count[lane];
    if (count > fc.depth) {
      engine_fail("buffer-occupancy", cycle, lane,
                  "%u flits in a %u-deep fifo", count, fc.depth);
    }
    if ((count == 0) != (e_.buf_packet_[lane] == kNoPacket)) {
      engine_fail("buffer-occupancy", cycle, lane,
                  "occupancy %u disagrees with the head slot holding %s",
                  count,
                  e_.buf_packet_[lane] == kNoPacket ? "no flit" : "a flit");
    }
    if (fc.depth > 1) {
      // Slots beyond the occupancy must be cleared, and the occupied run
      // must be FIFO-ordered: each slot continues the worm ahead of it or
      // starts a new worm right behind the previous one's tail, with
      // nondecreasing arrival epochs.
      for (std::uint32_t s = count > 0 ? count - 1 : 0; s + 1 < fc.depth;
           ++s) {
        if (fc.ext_packet[fc.ext_base(lane) + s] != kNoPacket) {
          engine_fail("buffer-occupancy", cycle, lane,
                      "fifo slot %u beyond the %u-flit occupancy not cleared",
                      s + 1, count);
        }
      }
      PacketId prev_pid = e_.buf_packet_[lane];
      std::uint32_t prev_seq = e_.buf_seq_[lane];
      std::uint64_t prev_epoch = e_.arrived_epoch_[lane];
      for (std::uint32_t s = 0; s + 1 < count; ++s) {
        const std::size_t slot = fc.ext_base(lane) + s;
        const PacketId pid = fc.ext_packet[slot];
        const std::uint32_t seq = fc.ext_seq[slot];
        const bool continues = pid == prev_pid && seq == prev_seq + 1;
        const bool new_worm = pid != prev_pid && seq == 0 &&
                              prev_seq + 1 == e_.packets_[prev_pid].length;
        if (!continues && !new_worm) {
          engine_fail("fifo-order", cycle, lane,
                      "slot %u (packet %u seq %u) does not follow slot %u "
                      "(packet %u seq %u)",
                      s + 1, pid, seq, s, prev_pid, prev_seq);
        }
        if (fc.ext_epoch[slot] < prev_epoch) {
          engine_fail("fifo-order", cycle, lane,
                      "slot %u arrived at epoch %llu, before slot %u's %llu",
                      s + 1,
                      static_cast<unsigned long long>(fc.ext_epoch[slot]), s,
                      static_cast<unsigned long long>(prev_epoch));
        }
        prev_pid = pid;
        prev_seq = seq;
        prev_epoch = fc.ext_epoch[slot];
      }
    }

    if (fc.scheme == FlowControlScheme::kOnOff) {
      // The stop bit must be explainable by the calendar: a stopped
      // sender whose buffer already drained to the GO level must have
      // the GO in flight (else it would starve forever), and a running
      // sender facing a buffer at or above the STOP level must have the
      // STOP in flight (else it could overflow).
      if (fc.stopped[lane] != 0 && count <= fc.on_threshold &&
          last_signal_[lane] != 1) {
        engine_fail("onoff-liveness", cycle, lane,
                    "sender stopped with only %u/%u flits buffered and no "
                    "GO in flight",
                    count, fc.depth);
      }
      if (fc.stopped[lane] == 0 && count >= fc.off_threshold &&
          last_signal_[lane] != 0) {
        engine_fail("onoff-liveness", cycle, lane,
                    "sender running with %u flits at/above the stop level "
                    "%u and no STOP in flight",
                    count, fc.off_threshold);
      }
    } else {
      if (fc.credits[lane] > fc.depth) {
        engine_fail("credit-conservation", cycle, lane,
                    "%u credits exceed the %u-deep fifo (overflowed "
                    "counter?)",
                    fc.credits[lane], fc.depth);
      }
      // Every buffer slot is exactly one of: holding a flit, spendable by
      // the sender, or travelling home as a credit return.
      if (fc.credits[lane] + count + pending_returns_[lane] != fc.depth) {
        engine_fail("credit-conservation", cycle, lane,
                    "%u credits + %u buffered + %u in flight != depth %u",
                    fc.credits[lane], count, pending_returns_[lane],
                    fc.depth);
      }
    }

    // An open starvation interval promises the sender is gated while the
    // fifo has space; both halves must still hold when it is open.
    if (fc.starve_since[lane] != kNoCycle) {
      if (fc.starve_since[lane] > cycle) {
        engine_fail("starvation-accounting", cycle, lane,
                    "starvation interval opened in the future (cycle %llu)",
                    static_cast<unsigned long long>(fc.starve_since[lane]));
      }
      if (fc.can_accept(lane) || count >= fc.depth) {
        engine_fail("starvation-accounting", cycle, lane,
                    "open starvation interval but the lane %s",
                    fc.can_accept(lane) ? "can accept a flit"
                                        : "has a full fifo");
      }
    }
  }
}

void EngineValidator::check_allocation() {
  const std::uint64_t cycle = e_.cycle_;
  for (LaneId lane = 0; lane < e_.alloc_owner_.size(); ++lane) {
    const LaneId owner = e_.alloc_owner_[lane];
    if (owner == kInvalidId) continue;
    if (owner >= e_.route_out_.size() || e_.route_out_[owner] != lane) {
      engine_fail("lane-exclusivity", cycle, lane,
                  "allocated to input lane %u whose route is %s%u", owner,
                  owner >= e_.route_out_.size() ? "(bad id) " : "",
                  owner < e_.route_out_.size() ? e_.route_out_[owner] : 0u);
    }
  }
  for (LaneId in = 0; in < e_.route_out_.size(); ++in) {
    const LaneId out = e_.route_out_[in];
    if (out == kInvalidId) continue;
    if (out >= e_.alloc_owner_.size() || e_.alloc_owner_[out] != in) {
      engine_fail("lane-exclusivity", cycle, in,
                  "route points at output lane %u owned by input %u "
                  "(double-granted output)",
                  out, out < e_.alloc_owner_.size() ? e_.alloc_owner_[out]
                                                    : kInvalidId);
    }
    // When both ends of an allocation hold flits of the SAME worm, the
    // downstream one crossed the hop earlier, so its seq is smaller.  A
    // different packet downstream is legal: the previous worm's tail may
    // still occupy the buffer after releasing the allocation.
    if (e_.buf_packet_[in] != kNoPacket &&
        e_.buf_packet_[in] == e_.buf_packet_[out] &&
        e_.buf_seq_[out] >= e_.buf_seq_[in]) {
      engine_fail("worm-contiguity", cycle, in,
                  "packet %u's seq %u sits behind seq %u on the same hop",
                  e_.buf_packet_[in], e_.buf_seq_[out], e_.buf_seq_[in]);
    }
  }
}

void EngineValidator::check_routing_legality() {
  const std::uint64_t cycle = e_.cycle_;
  for (LaneId in = 0; in < e_.route_out_.size(); ++in) {
    const LaneId out = e_.route_out_[in];
    if (out == kInvalidId) continue;
    // Identify the worm holding the route: either buffer end works; both
    // empty means the worm is streaming elsewhere along its path (it will
    // be checked whenever a flit is present).
    PacketId pid = e_.buf_packet_[in];
    if (pid == kNoPacket) pid = e_.buf_packet_[out];
    if (pid == kNoPacket) continue;
    const char* reason =
        illegal_hop_reason(e_.network_, e_.packets_[pid], in, out);
    if (reason != nullptr) {
      const PacketState& pkt = e_.packets_[pid];
      engine_fail("routing-legality", cycle, in,
                  "route to output lane %u is illegal for packet %u "
                  "(src %llu dst %llu turn %u): %s",
                  out, pid, static_cast<unsigned long long>(pkt.src),
                  static_cast<unsigned long long>(pkt.dst), pkt.turn_stage,
                  reason);
    }
  }
}

void EngineValidator::check_active_sets() {
  const std::uint64_t cycle = e_.cycle_;

  // header_bits_ must be EXACTLY the set of switch-input lanes holding a
  // buffered, unrouted header flit, and header_count_ its popcount.  The
  // bitmap cannot hold duplicates, so exactness is a direct per-position
  // biconditional.
  std::size_t header_bits_set = 0;
  for (std::size_t pos = 0; pos < e_.switch_input_lanes_.size(); ++pos) {
    const LaneId lane = e_.switch_input_lanes_[pos];
    const bool is_header = e_.buf_packet_[lane] != kNoPacket &&
                           e_.buf_seq_[lane] == 0 &&
                           e_.route_out_[lane] == kInvalidId;
    const bool listed = e_.header_bits_.test(pos);
    header_bits_set += listed ? 1 : 0;
    if (listed && !is_header) {
      engine_fail("header-set", cycle, lane,
                  "listed as an unrouted header but holds %s",
                  e_.buf_packet_[lane] == kNoPacket
                      ? "no flit"
                      : (e_.buf_seq_[lane] != 0 ? "a body flit"
                                                : "an already-routed header"));
    }
    if (!listed && is_header) {
      engine_fail("header-set", cycle, lane,
                  "unrouted header of packet %u missing from header_lanes_",
                  e_.buf_packet_[lane]);
    }
  }
  if (header_bits_set != e_.header_count_) {
    engine_fail("header-set", cycle, kInvalidId,
                "%zu header bits set but the count says %zu", header_bits_set,
                e_.header_count_);
  }

  // tx_pending_ entries and flags must agree exactly.
  for (const NodeId node : e_.tx_pending_) {
    if (node >= node_mark_.size() || node_mark_[node] == sweeps_ ||
        !e_.tx_pending_flag_[node]) {
      engine_fail("tx-pending", cycle, kInvalidId,
                  "node %u listed %s", node,
                  node < node_mark_.size() && node_mark_[node] == sweeps_
                      ? "twice"
                      : "without its pending flag");
    }
    node_mark_[node] = sweeps_;
  }
  for (NodeId node = 0; node < e_.tx_pending_flag_.size(); ++node) {
    if (e_.tx_pending_flag_[node] && node_mark_[node] != sweeps_) {
      engine_fail("tx-pending", cycle, kInvalidId,
                  "node %u flagged pending but not listed", node);
    }
  }

  // The advance-phase worklists are empty between cycles; a leftover bit
  // would replay a move next advance.
  if (e_.cur_pass_.any() || e_.next_pass_.any()) {
    engine_fail("event-frontier", cycle, kInvalidId,
                "advance worklist bits survived past the fixpoint");
  }

  for (ChannelId ch_id = 0; ch_id < e_.network_.channel_count(); ++ch_id) {
    const PhysChannel ch = e_.network_.channel(ch_id);
    if (e_.channel_used_epoch_[ch_id] > e_.epoch_) {
      engine_fail("stale-epoch-stamp", cycle, kInvalidId,
                  "channel %u's transmit stamp %llu is ahead of epoch %llu",
                  ch_id,
                  static_cast<unsigned long long>(
                      e_.channel_used_epoch_[ch_id]),
                  static_cast<unsigned long long>(e_.epoch_));
    }

    // Recount the channel's potential transmit sources: allocated output
    // lanes plus a transmitting node on an injection channel.
    std::uint32_t sources = 0;
    if (ch.src.is_node() &&
        e_.node_tx_packet_[ch.src.id] != kNoPacket) {
      ++sources;
    }
    bool ready = false;
    for (unsigned v = 0; v < ch.num_lanes; ++v) {
      const LaneId lane = ch.first_lane + v;
      if (ch.src.is_node()) {
        if (e_.node_tx_packet_[ch.src.id] != kNoPacket &&
            e_.fc_.can_accept(lane)) {
          ready = true;
        }
        continue;
      }
      const LaneId owner = e_.alloc_owner_[lane];
      if (owner == kInvalidId) continue;
      ++sources;
      if (e_.buf_packet_[owner] != kNoPacket &&
          (!ch.dst.is_switch() || e_.fc_.can_accept(lane))) {
        ready = true;
      }
    }
    if (sources != e_.channel_sources_[ch_id]) {
      engine_fail("channel-sources", cycle, kInvalidId,
                  "channel %u has %u transmit sources but the counter says %u",
                  ch_id, sources, e_.channel_sources_[ch_id]);
    }
    // Active-set completeness: a channel that can transmit next cycle
    // must already sit in the seed_bits_ event frontier, else the engine
    // would skip its move (the bug class golden digests cannot localize).
    if (ready && !e_.channel_faulty_.test(ch_id) &&
        !e_.seed_bits_.test(ch_id)) {
      engine_fail("event-frontier", cycle, ch.first_lane,
                  "channel %u can transmit next cycle but is not scheduled",
                  ch_id);
    }
  }
}

void EngineValidator::check_fault_state() {
  if (!e_.fault_any_) {
    return;  // no channel has ever faulted; nothing to sweep
  }
  const std::uint64_t cycle = e_.cycle_;

  // Fault quiescence: a dead channel takes its input buffers with it
  // (DESIGN.md §14), so between cycles its lanes must be fully drained —
  // no buffered flits, no allocation, no held route.  Anything left
  // behind is leaked kill state that a later repair would resurrect.
  for (ChannelId ch_id = 0; ch_id < e_.network_.channel_count(); ++ch_id) {
    if (!e_.channel_faulty_.test(ch_id)) continue;
    const PhysChannel ch = e_.network_.channel(ch_id);
    for (unsigned v = 0; v < ch.num_lanes; ++v) {
      const LaneId lane = ch.first_lane + v;
      if (e_.fc_.count[lane] != 0) {
        engine_fail("fault-quiescence", cycle, lane,
                    "dead channel %u's lane still buffers %u flits", ch_id,
                    e_.fc_.count[lane]);
      }
      if (e_.alloc_owner_[lane] != kInvalidId) {
        engine_fail("fault-quiescence", cycle, lane,
                    "dead channel %u's lane is still allocated to input "
                    "lane %u",
                    ch_id, e_.alloc_owner_[lane]);
      }
      if (e_.route_out_[lane] != kInvalidId) {
        engine_fail("fault-quiescence", cycle, lane,
                    "dead channel %u's lane still holds a route to lane %u",
                    ch_id, e_.route_out_[lane]);
      }
    }
  }

  // Fault routability: an unrouted header whose every legal candidate is
  // faulty must be terminated by serve(), never parked.  A header
  // promoted by a kill drain after this cycle's routing pass has
  // legitimately not been served yet, so a starved (lane, packet) pair is
  // only flagged here and fails if still starved one sweep later.
  std::vector<std::pair<topology::LaneId, PacketId>> starved;
  routing::CandidateList candidates;
  for (std::size_t pos = 0; pos < e_.switch_input_lanes_.size(); ++pos) {
    if (!e_.header_bits_.test(pos)) continue;
    const LaneId lane = e_.switch_input_lanes_[pos];
    const PacketId pid = e_.buf_packet_[lane];
    const PacketState& pkt = e_.packets_[pid];
    routing::RouteQuery query;
    query.src = pkt.src;
    query.dst = pkt.dst;
    query.turn_stage = pkt.turn_stage;
    candidates.clear();
    e_.router_.candidates(query, lane, candidates);
    if (candidates.empty()) continue;  // router misconfiguration, not faults
    bool alive = false;
    for (const LaneId c : candidates) {
      if (!e_.channel_faulty_.test(e_.lane_channel_[c])) {
        alive = true;
        break;
      }
    }
    if (alive) continue;
    const auto key = std::make_pair(lane, pid);
    if (std::find(fault_blocked_prev_.begin(), fault_blocked_prev_.end(),
                  key) != fault_blocked_prev_.end()) {
      engine_fail("fault-routability", cycle, lane,
                  "packet %u's header sat two sweeps with every legal "
                  "candidate faulty — fault-starved worms must be "
                  "terminated, not stalled",
                  pid);
    }
    starved.push_back(key);
  }
  fault_blocked_prev_.swap(starved);
}

WaitForAnalysis EngineValidator::analyze_waiting() const {
  WaitForAnalysis analysis;
  const std::size_t lane_count = e_.buf_packet_.size();
  std::vector<std::uint8_t> can(lane_count, 0);
  std::vector<LaneId> occupied;
  for (LaneId lane = 0; lane < lane_count; ++lane) {
    if (e_.buf_packet_[lane] != kNoPacket) occupied.push_back(lane);
  }

  routing::CandidateList candidates;
  const auto query_for = [&](LaneId lane) {
    const PacketState& pkt = e_.packets_[e_.buf_packet_[lane]];
    routing::RouteQuery query;
    query.src = pkt.src;
    query.dst = pkt.dst;
    query.turn_stage = pkt.turn_stage;
    return query;
  };
  // The lane whose progress releases an allocated candidate: the flit on
  // the candidate's buffer if any, else the flit still waiting at the
  // owning input.  Both empty means the blocking worm is streaming — it
  // has space to advance into, so it is treated as progressing (an
  // optimistic approximation; such worms re-enter the analysis as soon as
  // a flit of theirs is buffered again).
  const auto blocker_of = [&](LaneId candidate) -> LaneId {
    if (e_.buf_packet_[candidate] != kNoPacket) return candidate;
    const LaneId owner = e_.alloc_owner_[candidate];
    if (owner != kInvalidId && e_.buf_packet_[owner] != kNoPacket) {
      return owner;
    }
    return kInvalidId;
  };

  // Greatest fixpoint of "this buffered flit can eventually advance".
  bool changed = true;
  while (changed) {
    changed = false;
    for (const LaneId lane : occupied) {
      if (can[lane]) continue;
      bool progress = false;
      const LaneId out = e_.route_out_[lane];
      if (out != kInvalidId) {
        // A routed flit eventually advances if the downstream fifo has
        // room it can still use.  Credits merely in flight will arrive by
        // themselves, so only true fullness blocks; a stopped on/off
        // sender additionally needs the GO already earned (count at or
        // below the on threshold) — otherwise it waits on the downstream
        // flit draining, i.e. on can[out].
        const bool stopped = e_.fc_.scheme == FlowControlScheme::kOnOff &&
                             e_.fc_.stopped[out] != 0;
        const bool space = stopped ? e_.fc_.count[out] <= e_.fc_.on_threshold
                                   : e_.fc_.count[out] < e_.fc_.depth;
        progress = e_.network_.lane_channel(out).dst.is_node() || space ||
                   can[out];
      } else {
        candidates.clear();
        e_.router_.candidates(query_for(lane), lane, candidates);
        for (const LaneId c : candidates) {
          if (e_.channel_faulty_.test(e_.network_.lane(c).channel)) continue;
          if (e_.alloc_owner_[c] == kInvalidId) {
            progress = true;
            break;
          }
          const LaneId blocker = blocker_of(c);
          if (blocker == kInvalidId || can[blocker]) {
            progress = true;
            break;
          }
        }
      }
      if (progress) {
        can[lane] = 1;
        changed = true;
      }
    }
  }

  for (const LaneId lane : occupied) {
    if (!can[lane]) analysis.stuck_lanes.push_back(lane);
  }
  if (analysis.stuck_lanes.empty()) return analysis;

  // Witness cycle: follow one wait-for edge per stuck lane; any walk that
  // does not dead-end (a fault-starved header has no live successor) must
  // revisit a lane, closing the cycle.
  const auto successor = [&](LaneId lane) -> LaneId {
    const LaneId out = e_.route_out_[lane];
    if (out != kInvalidId) return e_.buf_packet_[out] != kNoPacket ? out
                                                                  : kInvalidId;
    candidates.clear();
    e_.router_.candidates(query_for(lane), lane, candidates);
    for (const LaneId c : candidates) {
      if (e_.channel_faulty_.test(e_.network_.lane(c).channel)) continue;
      const LaneId blocker = blocker_of(c);
      if (blocker != kInvalidId && !can[blocker]) return blocker;
    }
    return kInvalidId;
  };
  std::vector<std::uint32_t> visit(lane_count, 0);
  std::uint32_t walk = 0;
  for (const LaneId start : analysis.stuck_lanes) {
    if (visit[start] != 0) continue;
    ++walk;
    std::vector<LaneId> path;
    LaneId cur = start;
    while (cur != kInvalidId && visit[cur] == 0) {
      visit[cur] = walk;
      path.push_back(cur);
      cur = successor(cur);
    }
    if (cur != kInvalidId && visit[cur] == walk) {
      const auto it = std::find(path.begin(), path.end(), cur);
      analysis.cycle.assign(it, path.end());
      analysis.cycle.push_back(cur);
      break;
    }
  }
  return analysis;
}

void EngineValidator::describe_stall() const {
  const WaitForAnalysis analysis = analyze_waiting();
  if (!analysis.deadlocked()) {
    std::fprintf(stderr,
                 "wormsim validate: stall is congestion — every blocked worm "
                 "still has a live escape path\n");
    return;
  }
  std::fprintf(stderr,
               "wormsim validate: %zu lanes can never advance",
               analysis.stuck_lanes.size());
  if (analysis.cycle.empty()) {
    std::fputs(" (acyclic blockage: every legal lane faulty)\n", stderr);
  } else {
    std::fputs("; wait-for cycle:", stderr);
    for (const LaneId lane : analysis.cycle) {
      std::fprintf(stderr, " %u", lane);
    }
    std::fputc('\n', stderr);
  }
}

void EngineValidator::maybe_probe_deadlock() {
  if (e_.occupied_ == 0 || e_.config_.deadlock_watchdog_cycles == 0) return;
  const std::uint64_t stall = e_.cycle_ - e_.last_move_cycle_;
  const std::uint64_t threshold =
      std::max<std::uint64_t>(1, e_.config_.deadlock_watchdog_cycles / 2);
  if (stall < threshold || e_.last_move_cycle_ == probed_stall_cycle_) return;
  probed_stall_cycle_ = e_.last_move_cycle_;  // one probe per stall episode
  const WaitForAnalysis analysis = analyze_waiting();
  if (!analysis.deadlocked()) {
    std::fprintf(stderr,
                 "wormsim validate: %llu-cycle stall at cycle %llu is "
                 "congestion, not deadlock (%lld blocked flits all have a "
                 "live escape path)\n",
                 static_cast<unsigned long long>(stall),
                 static_cast<unsigned long long>(e_.cycle_),
                 static_cast<long long>(e_.occupied_));
    return;
  }
  if (e_.fault_any_) {
    // Never report a deadlock that is really a fault-handling bug: an
    // acyclic permanent blockage means a fault-starved worm survived
    // serve(), and a wait-for cycle through a dead lane means the kill
    // drain left allocation state behind.
    if (analysis.cycle.empty()) {
      engine_fail("fault-routability", e_.cycle_,
                  analysis.stuck_lanes.front(),
                  "%zu lanes permanently blocked with every legal lane "
                  "faulty after a %llu-cycle stall — fault-starved worms "
                  "must be terminated, not stalled",
                  analysis.stuck_lanes.size(),
                  static_cast<unsigned long long>(stall));
    }
    for (const LaneId lane : analysis.cycle) {
      if (e_.channel_faulty_.test(e_.lane_channel_[lane])) {
        engine_fail("fault-quiescence", e_.cycle_, lane,
                    "wait-for cycle runs through dead channel %u — faulted "
                    "lanes must drain, never deadlock",
                    e_.lane_channel_[lane]);
      }
    }
  }
  char detail[256];
  if (analysis.cycle.empty()) {
    std::snprintf(detail, sizeof detail,
                  "%zu lanes permanently blocked with no wait-for cycle "
                  "(every legal lane faulty)",
                  analysis.stuck_lanes.size());
  } else {
    int used = std::snprintf(detail, sizeof detail, "wait-for cycle:");
    for (const LaneId lane : analysis.cycle) {
      const int n = std::snprintf(detail + used, sizeof detail - used, " %u",
                                  lane);
      if (n < 0 || used + n >= static_cast<int>(sizeof detail)) break;
      used += n;
    }
  }
  engine_fail("deadlock", e_.cycle_, analysis.stuck_lanes.front(),
              "true deadlock after a %llu-cycle stall: %s",
              static_cast<unsigned long long>(stall), detail);
}

void EngineValidator::check_final(const SimResult& result) {
  const std::uint64_t cycle = e_.cycle_;
  std::vector<std::uint32_t> buffered_flits(e_.packets_.size(), 0);
  for (LaneId lane = 0; lane < e_.buf_packet_.size(); ++lane) {
    if (e_.buf_packet_[lane] != kNoPacket) ++buffered_flits[e_.buf_packet_[lane]];
    for (std::uint32_t s = 0; s + 1 < e_.fc_.count[lane]; ++s) {
      ++buffered_flits[e_.fc_.ext_packet[e_.fc_.ext_base(lane) + s]];
    }
  }
  std::vector<std::uint8_t> queued(e_.packets_.size(), 0);
  for (const std::deque<PacketId>& queue : e_.node_queue_) {
    for (const PacketId pid : queue) queued[pid] = 1;
  }

  // Message and flit conservation over every packet ever generated:
  // generated = delivered + dropped + still queued + in flight.
  std::uint64_t delivered_messages = 0;
  std::uint64_t delivered_flits = 0;
  std::uint64_t dropped = 0;
  std::uint64_t unfinished_measured = 0;
  std::uint64_t measured_delivered = 0;
  std::uint64_t terminated_messages = 0;
  std::uint64_t terminated_flits = 0;
  for (PacketId pid = 0; pid < e_.packets_.size(); ++pid) {
    const PacketState& pkt = e_.packets_[pid];
    if (pkt.delivered()) {
      ++delivered_messages;
      delivered_flits += pkt.length;
      if (pkt.measured) ++measured_delivered;
      if (buffered_flits[pid] != 0) {
        engine_fail("flit-conservation", cycle, kInvalidId,
                    "delivered packet %u still has %u buffered flits", pid,
                    buffered_flits[pid]);
      }
      continue;
    }
    if (pkt.measured) ++unfinished_measured;
    if (pkt.terminated()) {
      // Conservation generalizes under faults: generated = delivered +
      // terminated + queued + in flight, and a terminated worm's flits
      // split exactly into delivered-before-the-kill plus truncated.
      ++terminated_messages;
      terminated_flits += pkt.flits_truncated;
      if (buffered_flits[pid] != 0) {
        engine_fail("fault-termination", cycle, kInvalidId,
                    "terminated packet %u still has %u buffered flits", pid,
                    buffered_flits[pid]);
      }
      if (pkt.flits_truncated > pkt.flits_sent_at_kill ||
          pkt.flits_sent_at_kill > pkt.length) {
        engine_fail("fault-termination", cycle, kInvalidId,
                    "packet %u truncated %u of %u sent flits (length %u)",
                    pid, pkt.flits_truncated, pkt.flits_sent_at_kill,
                    pkt.length);
      }
      delivered_flits += pkt.flits_sent_at_kill - pkt.flits_truncated;
      continue;
    }
    std::uint32_t sent = 0;
    if (e_.node_tx_packet_[pkt.src] == pid) {
      sent = e_.node_tx_sent_[pkt.src];
    } else if (pkt.inject_cycle != kNoCycle) {
      sent = pkt.length;  // fully injected, partially delivered
    } else if (!queued[pid]) {
      ++dropped;
    }
    if (buffered_flits[pid] > sent) {
      engine_fail("flit-conservation", cycle, kInvalidId,
                  "packet %u has %u buffered flits but only %u were sent",
                  pid, buffered_flits[pid], sent);
    }
    delivered_flits += sent - buffered_flits[pid];
  }
  if (delivered_flits != e_.delivered_flits_total_) {
    engine_fail("flit-conservation", cycle, kInvalidId,
                "per-packet recount delivers %llu flits but the engine "
                "counted %llu",
                static_cast<unsigned long long>(delivered_flits),
                static_cast<unsigned long long>(e_.delivered_flits_total_));
  }
  if (delivered_messages != result.delivered_messages_total) {
    engine_fail("result-reconcile", cycle, kInvalidId,
                "%llu packets delivered but the result says %llu",
                static_cast<unsigned long long>(delivered_messages),
                static_cast<unsigned long long>(
                    result.delivered_messages_total));
  }
  if (dropped != result.dropped_messages) {
    engine_fail("result-reconcile", cycle, kInvalidId,
                "%llu packets dropped but the result says %llu",
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(result.dropped_messages));
  }
  if (terminated_messages != result.terminated_messages ||
      terminated_flits != result.terminated_flits) {
    engine_fail("fault-termination", cycle, kInvalidId,
                "per-packet recount finds %llu terminated worms / %llu "
                "truncated flits but the result says %llu / %llu",
                static_cast<unsigned long long>(terminated_messages),
                static_cast<unsigned long long>(terminated_flits),
                static_cast<unsigned long long>(result.terminated_messages),
                static_cast<unsigned long long>(result.terminated_flits));
  }
  if (unfinished_measured != result.measured_messages_unfinished) {
    engine_fail("result-reconcile", cycle, kInvalidId,
                "%llu measured packets unfinished but the result says %llu",
                static_cast<unsigned long long>(unfinished_measured),
                static_cast<unsigned long long>(
                    result.measured_messages_unfinished));
  }
  if (result.latency_cycles.count() != measured_delivered ||
      result.latency_histogram.total() != measured_delivered ||
      result.network_latency_cycles.count() != measured_delivered ||
      result.queueing_cycles.count() != measured_delivered) {
    engine_fail("result-reconcile", cycle, kInvalidId,
                "latency accumulators hold %llu/%llu/%llu/%llu samples but "
                "%llu measured packets were delivered",
                static_cast<unsigned long long>(result.latency_cycles.count()),
                static_cast<unsigned long long>(
                    result.latency_histogram.total()),
                static_cast<unsigned long long>(
                    result.network_latency_cycles.count()),
                static_cast<unsigned long long>(
                    result.queueing_cycles.count()),
                static_cast<unsigned long long>(measured_delivered));
  }
  if (result.delivered_flits_in_window > delivered_flits) {
    engine_fail("result-reconcile", cycle, kInvalidId,
                "window delivered %llu flits, more than the run total %llu",
                static_cast<unsigned long long>(
                    result.delivered_flits_in_window),
                static_cast<unsigned long long>(delivered_flits));
  }
  // Telemetry reconcile: every window delivery crossed an ejection lane
  // under the same gate, so the two counts must agree exactly.
  if (result.telemetry_counters.enabled()) {
    std::uint64_t ejection_flits = 0;
    for (LaneId lane = 0; lane < e_.network_.lane_count(); ++lane) {
      if (e_.network_.lane_channel(lane).dst.is_node()) {
        ejection_flits += result.telemetry_counters.lane_flits[lane];
      }
    }
    if (ejection_flits != result.delivered_flits_in_window) {
      engine_fail("telemetry-reconcile", cycle, kInvalidId,
                  "ejection lanes counted %llu flit crossings but the window "
                  "delivered %llu flits",
                  static_cast<unsigned long long>(ejection_flits),
                  static_cast<unsigned long long>(
                      result.delivered_flits_in_window));
    }
  }
}

// ---------------------------------------------------------------------------
// StoreForwardValidator
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] __attribute__((format(printf, 4, 5))) void sf_fail(
    const char* invariant, std::uint64_t time, LaneId lane, const char* fmt,
    ...) {
  std::fprintf(stderr, "wormsim validate: invariant '%s' violated at time "
                       "%llu, ",
               invariant, static_cast<unsigned long long>(time));
  if (lane == kInvalidId) {
    std::fputs("lane -: ", stderr);
  } else {
    std::fprintf(stderr, "lane %u: ", lane);
  }
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace

StoreForwardValidator::StoreForwardValidator(const StoreForwardEngine& engine)
    : e_(engine) {
  shadow_.resize(e_.network_.channel_count());
  lane_mark_.assign(e_.network_.lane_count(), 0);
  node_mark_.assign(e_.network_.node_count(), 0);
}

void StoreForwardValidator::on_transfer_start(PacketId pkt, LaneId from,
                                              LaneId to) {
  const std::uint64_t now = e_.now_;
  const PhysChannel ch = e_.network_.lane_channel(to);
  if (e_.channel_free_at_[ch.id] > now) {
    sf_fail("sf-channel-exclusivity", now, to,
            "transfer started on channel %u which is busy until %llu", ch.id,
            static_cast<unsigned long long>(e_.channel_free_at_[ch.id]));
  }
  // A predecessor whose completion event is still queued at exactly now_
  // is fine (the channel frees by time comparison); anything ending later
  // means two transfers share the wires.
  for (const ShadowTransfer& prior : shadow_[ch.id]) {
    if (prior.end > now) {
      sf_fail("sf-channel-exclusivity", now, to,
              "transfer started on channel %u which carries packet %u until "
              "%llu",
              ch.id, prior.packet,
              static_cast<unsigned long long>(prior.end));
    }
  }
  if (ch.dst.is_switch() &&
      e_.lanes_[to].queue.size() + e_.lanes_[to].incoming >=
          e_.config_.buffer_packets) {
    sf_fail("sf-buffer-overflow", now, to,
            "transfer reserves a slot in a full buffer (%zu queued + %u "
            "incoming of %u)",
            e_.lanes_[to].queue.size(), e_.lanes_[to].incoming,
            e_.config_.buffer_packets);
  }
  if (from == kInvalidId) {
    const auto src = static_cast<NodeId>(e_.packets_[pkt].src);
    if (e_.nodes_[src].transmitting || e_.nodes_[src].queue.empty() ||
        e_.nodes_[src].queue.front() != pkt) {
      sf_fail("sf-queue-order", now, to,
              "node %u starts forwarding packet %u which is not its idle "
              "queue head",
              src, pkt);
    }
  } else if (e_.lanes_[from].transmitting || e_.lanes_[from].queue.empty() ||
             e_.lanes_[from].queue.front() != pkt) {
    sf_fail("sf-queue-order", now, from,
            "lane starts forwarding packet %u which is not its idle queue "
            "head",
            pkt);
  }
  const char* reason =
      illegal_hop_reason(e_.network_, e_.packets_[pkt], from, to);
  if (reason != nullptr) {
    const PacketState& state = e_.packets_[pkt];
    sf_fail("sf-routing-legality", now, from,
            "transfer to lane %u is illegal for packet %u (src %llu dst %llu "
            "turn %u): %s",
            to, pkt, static_cast<unsigned long long>(state.src),
            static_cast<unsigned long long>(state.dst), state.turn_stage,
            reason);
  }
  shadow_[ch.id].push_back(
      ShadowTransfer{pkt, from, to, now + e_.packets_[pkt].length});
  ++active_transfers_;
}

void StoreForwardValidator::on_transfer_finish(PacketId pkt, LaneId from,
                                               LaneId to) {
  const std::uint64_t now = e_.now_;
  const PhysChannel ch = e_.network_.lane_channel(to);
  std::vector<ShadowTransfer>& shadows = shadow_[ch.id];
  for (std::size_t i = 0; i < shadows.size(); ++i) {
    const ShadowTransfer& shadow = shadows[i];
    if (shadow.packet == pkt && shadow.from == from && shadow.to == to &&
        shadow.end == now) {
      shadows.erase(shadows.begin() + static_cast<std::ptrdiff_t>(i));
      --active_transfers_;
      return;
    }
  }
  sf_fail("sf-transfer-accounting", now, to,
          "finished transfer (packet %u) does not match any transfer the "
          "channel started",
          pkt);
}

void StoreForwardValidator::check_event_end() {
  ++sweeps_;
  const std::uint64_t now = e_.now_;

  // Transmit flags must mirror the active shadow transfers exactly.
  for (const std::vector<ShadowTransfer>& shadows : shadow_) {
    for (const ShadowTransfer& shadow : shadows) {
      if (shadow.from == kInvalidId) {
        node_mark_[e_.packets_[shadow.packet].src] = sweeps_;
      } else {
        lane_mark_[shadow.from] = sweeps_;
      }
    }
  }
  if (active_transfers_ != e_.in_flight_) {
    sf_fail("sf-transfer-accounting", now, kInvalidId,
            "%lld transfers active but the counter says %lld",
            static_cast<long long>(active_transfers_),
            static_cast<long long>(e_.in_flight_));
  }

  if (pkt_mark_.size() < e_.packets_.size()) {
    pkt_mark_.resize(e_.packets_.size(), 0);
  }
  std::int64_t queued = 0;
  for (NodeId node = 0; node < e_.nodes_.size(); ++node) {
    const auto& state = e_.nodes_[node];
    queued += static_cast<std::int64_t>(state.queue.size());
    if (state.transmitting != (node_mark_[node] == sweeps_)) {
      sf_fail("sf-transfer-accounting", now, kInvalidId,
              "node %u transmit flag is %d but %s transfer is active", node,
              state.transmitting ? 1 : 0,
              state.transmitting ? "no matching" : "a");
    }
    for (const PacketId pid : state.queue) {
      if (pkt_mark_[pid] == sweeps_ || e_.packets_[pid].delivered()) {
        sf_fail("sf-conservation", now, kInvalidId,
                "packet %u is %s", pid,
                pkt_mark_[pid] == sweeps_ ? "queued in two places"
                                          : "delivered but still queued");
      }
      if (e_.packets_[pid].terminated()) {
        sf_fail("fault-termination", now, kInvalidId,
                "packet %u terminated at %llu but still queued at node %u",
                pid,
                static_cast<unsigned long long>(
                    e_.packets_[pid].terminate_cycle),
                node);
      }
      pkt_mark_[pid] = sweeps_;
    }
  }
  for (LaneId lane = 0; lane < e_.lanes_.size(); ++lane) {
    const auto& state = e_.lanes_[lane];
    queued += static_cast<std::int64_t>(state.queue.size());
    if (state.queue.size() + state.incoming > e_.config_.buffer_packets) {
      sf_fail("sf-buffer-overflow", now, lane,
              "%zu queued + %u incoming exceed the %u-packet buffer",
              state.queue.size(), state.incoming, e_.config_.buffer_packets);
    }
    if (state.transmitting != (lane_mark_[lane] == sweeps_)) {
      sf_fail("sf-transfer-accounting", now, lane,
              "transmit flag is %d but %s transfer is active",
              state.transmitting ? 1 : 0,
              state.transmitting ? "no matching" : "a");
    }
    // Fault quiescence, packet-granular: a dead channel's lane buffer
    // holds at most the head whose pre-kill transfer is still in flight.
    if (e_.fault_any_ &&
        e_.channel_faulty_[e_.network_.lane(lane).channel] != 0 &&
        state.queue.size() > (state.transmitting ? 1u : 0u)) {
      sf_fail("fault-quiescence", now, lane,
              "dead channel %u's lane still queues %zu packets",
              e_.network_.lane(lane).channel, state.queue.size());
    }
    for (const PacketId pid : state.queue) {
      if (pkt_mark_[pid] == sweeps_ || e_.packets_[pid].delivered()) {
        sf_fail("sf-conservation", now, lane,
                "packet %u is %s", pid,
                pkt_mark_[pid] == sweeps_ ? "queued in two places"
                                          : "delivered but still queued");
      }
      if (e_.packets_[pid].terminated()) {
        sf_fail("fault-termination", now, lane,
                "packet %u terminated at %llu but still queued", pid,
                static_cast<unsigned long long>(
                    e_.packets_[pid].terminate_cycle));
      }
      pkt_mark_[pid] = sweeps_;
    }
  }
  if (queued != e_.queued_packets_) {
    sf_fail("sf-conservation", now, kInvalidId,
            "%lld packets queued but the counter says %lld",
            static_cast<long long>(queued),
            static_cast<long long>(e_.queued_packets_));
  }

  for (ChannelId ch = 0; ch < shadow_.size(); ++ch) {
    std::uint64_t latest_end = 0;
    for (const ShadowTransfer& shadow : shadow_[ch]) {
      if (shadow.end < now) {
        sf_fail("sf-transfer-accounting", now, shadow.to,
                "channel %u's transfer of packet %u should have finished at "
                "%llu",
                ch, shadow.packet,
                static_cast<unsigned long long>(shadow.end));
      }
      latest_end = std::max(latest_end, shadow.end);
    }
    if (latest_end > now) {
      // An in-flight transfer ending in the future must own the channel's
      // free time exactly.
      if (e_.channel_free_at_[ch] != latest_end) {
        sf_fail("sf-channel-accounting", now, kInvalidId,
                "channel %u frees at %llu but its active transfer ends at "
                "%llu",
                ch, static_cast<unsigned long long>(e_.channel_free_at_[ch]),
                static_cast<unsigned long long>(latest_end));
      }
    } else if (e_.channel_free_at_[ch] > now) {
      sf_fail("sf-channel-accounting", now, kInvalidId,
              "channel %u is marked busy until %llu with no active transfer",
              ch, static_cast<unsigned long long>(e_.channel_free_at_[ch]));
    }
  }
}

void StoreForwardValidator::check_final(const SimResult& result) {
  const std::uint64_t now = e_.now_;
  std::uint64_t delivered_messages = 0;
  std::uint64_t measured_delivered = 0;
  std::uint64_t unfinished_measured = 0;
  std::uint64_t terminated_messages = 0;
  std::uint64_t terminated_flits = 0;
  for (const PacketState& pkt : e_.packets_) {
    if (pkt.delivered()) {
      ++delivered_messages;
      if (pkt.measured) ++measured_delivered;
    } else if (pkt.measured) {
      ++unfinished_measured;
    }
    if (pkt.terminated()) {
      if (pkt.delivered()) {
        sf_fail("fault-termination", now, kInvalidId,
                "a packet is both delivered and terminated");
      }
      ++terminated_messages;
      terminated_flits += pkt.flits_truncated;
      // Packet granularity: a terminated packet loses every flit.
      if (pkt.flits_truncated != pkt.length ||
          pkt.flits_sent_at_kill != pkt.length) {
        sf_fail("fault-termination", now, kInvalidId,
                "terminated packet truncated %u / sent %u of its %u flits",
                pkt.flits_truncated, pkt.flits_sent_at_kill, pkt.length);
      }
    }
  }
  if (terminated_messages != result.terminated_messages ||
      terminated_flits != result.terminated_flits) {
    sf_fail("fault-termination", now, kInvalidId,
            "per-packet recount finds %llu terminated packets / %llu "
            "truncated flits but the result says %llu / %llu",
            static_cast<unsigned long long>(terminated_messages),
            static_cast<unsigned long long>(terminated_flits),
            static_cast<unsigned long long>(result.terminated_messages),
            static_cast<unsigned long long>(result.terminated_flits));
  }
  if (delivered_messages != result.delivered_messages_total) {
    sf_fail("result-reconcile", now, kInvalidId,
            "%llu packets delivered but the result says %llu",
            static_cast<unsigned long long>(delivered_messages),
            static_cast<unsigned long long>(result.delivered_messages_total));
  }
  if (unfinished_measured != result.measured_messages_unfinished) {
    sf_fail("result-reconcile", now, kInvalidId,
            "%llu measured packets unfinished but the result says %llu",
            static_cast<unsigned long long>(unfinished_measured),
            static_cast<unsigned long long>(
                result.measured_messages_unfinished));
  }
  if (result.latency_cycles.count() != measured_delivered ||
      result.latency_histogram.total() != measured_delivered) {
    sf_fail("result-reconcile", now, kInvalidId,
            "latency accumulators hold %llu/%llu samples but %llu measured "
            "packets were delivered",
            static_cast<unsigned long long>(result.latency_cycles.count()),
            static_cast<unsigned long long>(result.latency_histogram.total()),
            static_cast<unsigned long long>(measured_delivered));
  }
}

}  // namespace wormsim::sim
