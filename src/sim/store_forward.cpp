#include "sim/store_forward.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "sim/fault_injection/plan.hpp"
#include "sim/validate.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

using topology::ChannelId;
using topology::kInvalidId;
using topology::LaneId;
using topology::NodeId;
using topology::PhysChannel;

StoreForwardEngine::StoreForwardEngine(const topology::NetView& network,
                                       const routing::Router& router,
                                       TrafficSource* traffic,
                                       SimConfig config)
    : network_(network),
      router_(router),
      traffic_(traffic),
      config_(config),
      rng_(config.seed),
      drain_(config_),
      observers_(network_, config_, "store_forward", nullptr) {
  WORMSIM_CHECK(config_.buffer_depth >= 1);
  nodes_.resize(network_.node_count());
  lanes_.resize(network_.lane_count());
  channel_free_at_.assign(network_.channel_count(), 0);
  channel_faulty_.assign(network_.channel_count(), 0);
  if (config_.fault_fraction > 0.0) {
    fault_state_.plan = fault_injection::build_fault_plan(
        network_, config_.fault_fraction, config_.fault_seed,
        config_.fault_at_cycle);
    fault_injection::validate_plan(network_, fault_state_.plan);
  }
  node_pending_flag_.assign(network_.node_count(), 0);
  lane_pending_flag_.assign(network_.lane_count(), 0);
  switch_feed_lanes_.resize(network_.switch_count());
  network_.for_each_channel([&](const PhysChannel& ch) {
    if (!ch.dst.is_switch()) return;
    for (unsigned v = 0; v < ch.num_lanes; ++v) {
      switch_feed_lanes_[ch.dst.id].push_back(ch.first_lane + v);
    }
  });

  result_.measure_cycles = config_.measure_cycles;
  result_.node_count = network_.node_count();

  for (NodeId node = 0; node < network_.node_count(); ++node) {
    nodes_[node].active = traffic_ != nullptr && traffic_->node_active(node);
    if (nodes_[node].active) {
      const double gap = traffic_->next_gap(node, rng_);
      schedule(static_cast<std::uint64_t>(std::llround(std::max(1.0, gap))),
               Event::Kind::kArrivalGen, node);
    }
  }

  if (config_.validate) {
    validator_ = std::make_unique<StoreForwardValidator>(*this);
  }
}

StoreForwardEngine::~StoreForwardEngine() = default;

void StoreForwardEngine::set_fault_plan(fault_injection::FaultPlan plan) {
  WORMSIM_CHECK_MSG(now_ == 0 && !fault_state_.applied,
                    "fault plan must be set before any event is processed");
  fault_injection::validate_plan(network_, plan);
  fault_state_ = fault_injection::FaultState{};
  fault_state_.plan = std::move(plan);
}

void StoreForwardEngine::schedule(std::uint64_t time, Event::Kind kind,
                                  std::uint64_t payload) {
  WORMSIM_DCHECK(time >= now_);
  events_.push(Event{time, kind, payload});
}

PacketId StoreForwardEngine::inject_message(NodeId src, std::uint64_t dst,
                                            std::uint32_t length,
                                            std::uint64_t when) {
  WORMSIM_CHECK_MSG(dst != src, "self-addressed message");
  WORMSIM_CHECK(length >= 1);
  WORMSIM_CHECK(when >= now_);
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.length = length;
  pkt.create_cycle = when;
  pkt.turn_stage = static_cast<std::uint8_t>(
      routing::make_query(network_, src, dst).turn_stage);
  const PacketId id = next_packet_id(packets_.size());
  packets_.push_back(pkt);
  drain_.created(when);
  observers_.created(id, when, src, dst, length, false);
  if (when == now_) {
    packets_[id].measured = in_measure_window();
    if (packets_[id].measured) drain_.measured();
    if (telemetry::WormTracer* tracer = observers_.worm_tracer()) {
      tracer->set_measured(id, packets_[id].measured);
    }
    nodes_[src].queue.push_back(id);
    ++queued_packets_;
    mark_node_pending(src);
    pump();
  } else {
    schedule(when, Event::Kind::kInject, id);
  }
  return id;
}

bool StoreForwardEngine::lane_has_space(LaneId lane) const {
  const LaneState& state = lanes_[lane];
  return state.queue.size() + state.incoming < config_.buffer_depth;
}

bool StoreForwardEngine::start_transfer(PacketId pkt, LaneId from,
                                        LaneId to) {
  if (validator_ != nullptr) validator_->on_transfer_start(pkt, from, to);
  const PhysChannel& ch = network_.lane_channel(to);
  WORMSIM_DCHECK(channel_free_at_[ch.id] <= now_);
  if (from == kInvalidId) {
    Packet& state = packets_[pkt];
    nodes_[state.src].transmitting = true;
    state.inject_cycle = now_;
  } else {
    lanes_[from].transmitting = true;
  }
  if (ch.dst.is_switch()) {
    ++lanes_[to].incoming;
  }
  if (telemetry::WormTracer* tracer = observers_.worm_tracer()) {
    tracer->on_sf_transfer_start(pkt, from, to, ch.id, now_);
  }
  const std::uint32_t length = packets_[pkt].length;
  channel_free_at_[ch.id] = now_ + length;
  free_calendar_.emplace(now_ + length, ch.id);
  std::uint64_t slot = transfers_.size();
  if (free_transfers_.empty()) {
    transfers_.push_back(Transfer{pkt, from, to});
  } else {
    slot = free_transfers_.back();
    free_transfers_.pop_back();
    transfers_[slot] = Transfer{pkt, from, to};
  }
  schedule(now_ + length, Event::Kind::kTransferDone, slot);
  ++in_flight_;
  return true;
}

bool StoreForwardEngine::try_start_from_node(NodeId node) {
  NodeState& state = nodes_[node];
  if (state.transmitting || state.queue.empty()) return false;
  const ChannelId inj = network_.injection_channel(node);
  const PhysChannel& ch = network_.channel(inj);
  if (channel_free_at_[ch.id] > now_) return false;
  const LaneId lane = ch.first_lane;
  if (!lane_has_space(lane)) return false;
  return start_transfer(state.queue.front(), kInvalidId, lane);
}

bool StoreForwardEngine::try_start_from_lane(LaneId lane) {
  LaneState& state = lanes_[lane];
  // Loop so that terminating a fault-starved head exposes the next queued
  // packet in the same pump; fault-free runs take at most one iteration.
  while (!state.transmitting && !state.queue.empty()) {
    const PacketId pkt = state.queue.front();
    const PacketState& packet = packets_[pkt];
    routing::RouteQuery query;
    query.src = packet.src;
    query.dst = packet.dst;
    query.turn_stage = packet.turn_stage;
    routing::CandidateList candidates;
    router_.candidates(query, lane, candidates);
    routing::CandidateList usable;
    bool any_alive = false;
    for (LaneId next : candidates) {
      const PhysChannel& ch = network_.lane_channel(next);
      if (channel_faulty_[ch.id] != 0) continue;
      any_alive = true;
      if (channel_free_at_[ch.id] > now_) continue;
      if (ch.dst.is_switch() && !lane_has_space(next)) continue;
      // Dedupe lanes of the same channel: one transfer occupies the wires.
      bool duplicate = false;
      for (LaneId seen : usable) {
        if (network_.lane(seen).channel == ch.id) duplicate = true;
      }
      if (!duplicate) usable.push_back(next);
    }
    if (!candidates.empty() && !any_alive) {
      // Every legal next hop is dead: the packet can never leave this
      // switch.  Terminate it (truncate-and-account) and free the slot
      // for upstream senders.
      state.queue.pop_front();
      --queued_packets_;
      terminate_packet(pkt);
      mark_channel_users(network_.lane(lane).channel);
      continue;
    }
    if (usable.empty()) return false;
    const LaneId chosen =
        usable[static_cast<std::size_t>(rng_.below(usable.size()))];
    return start_transfer(pkt, lane, chosen);
  }
  return false;
}

void StoreForwardEngine::mark_channel_users(ChannelId channel) {
  const PhysChannel& ch = network_.channel(channel);
  if (ch.src.is_node()) {
    mark_node_pending(ch.src.id);
  } else {
    for (LaneId lane : switch_feed_lanes_[ch.src.id]) {
      mark_lane_pending(lane);
    }
  }
}

void StoreForwardEngine::pump() {
  // Failed tries have no side effects and draw no randomness, so trying a
  // sorted superset of the startable entities reproduces the original
  // full scan's start sequence (and hence its RNG draw order) exactly.
  if (!pending_nodes_.empty()) {
    std::sort(pending_nodes_.begin(), pending_nodes_.end());
    for (NodeId node : pending_nodes_) {
      node_pending_flag_[node] = 0;
      try_start_from_node(node);
    }
    pending_nodes_.clear();
  }
  if (!pending_lanes_.empty()) {
    std::sort(pending_lanes_.begin(), pending_lanes_.end());
    for (LaneId lane : pending_lanes_) {
      lane_pending_flag_[lane] = 0;
      try_start_from_lane(lane);
    }
    pending_lanes_.clear();
  }
}

void StoreForwardEngine::deliver(PacketId pkt_id) {
  Packet& pkt = packets_[pkt_id];
  pkt.deliver_cycle = now_;
  drain_.delivered(pkt.create_cycle, pkt.measured, now_);
  if (telemetry::WormTracer* tracer = observers_.worm_tracer()) {
    tracer->on_sf_delivered(pkt_id, now_);
  }
  ++result_.delivered_messages_total;
  delivered_flits_total_ += pkt.length;
  if (in_measure_window()) {
    result_.delivered_flits_in_window += pkt.length;
  }
  if (pkt.measured) {
    const auto latency = static_cast<double>(now_ - pkt.create_cycle);
    result_.latency_cycles.add(latency);
    result_.latency_histogram.add(latency);
    result_.network_latency_cycles.add(
        static_cast<double>(now_ - pkt.inject_cycle));
    result_.queueing_cycles.add(
        static_cast<double>(pkt.inject_cycle - pkt.create_cycle));
  }
}

void StoreForwardEngine::finish_transfer(const Transfer& transfer) {
  if (validator_ != nullptr) {
    validator_->on_transfer_finish(transfer.packet, transfer.from,
                                   transfer.to);
  }
  --in_flight_;
  if (transfer.from == kInvalidId) {
    NodeState& node = nodes_[packets_[transfer.packet].src];
    WORMSIM_DCHECK(!node.queue.empty() &&
                   node.queue.front() == transfer.packet);
    node.queue.pop_front();
    --queued_packets_;
    node.transmitting = false;
    mark_node_pending(packets_[transfer.packet].src);
  } else {
    LaneState& from = lanes_[transfer.from];
    WORMSIM_DCHECK(!from.queue.empty() &&
                   from.queue.front() == transfer.packet);
    from.queue.pop_front();
    --queued_packets_;
    from.transmitting = false;
    // The next queued packet may leave, and the freed slot lets upstream
    // senders transfer in.
    mark_lane_pending(transfer.from);
    mark_channel_users(network_.lane(transfer.from).channel);
  }
  const PhysChannel& ch = network_.lane_channel(transfer.to);
  if (ch.dst.is_node()) {
    deliver(transfer.packet);
  } else if (channel_faulty_[ch.id] != 0) {
    // The kill landed while this transfer was in flight: the packet
    // arrives into a buffer that no longer exists and is discarded
    // (terminated), releasing its reservation.
    LaneState& to = lanes_[transfer.to];
    WORMSIM_DCHECK(to.incoming > 0);
    --to.incoming;
    terminate_packet(transfer.packet);
  } else {
    LaneState& to = lanes_[transfer.to];
    WORMSIM_DCHECK(to.incoming > 0);
    --to.incoming;
    to.queue.push_back(transfer.packet);
    ++queued_packets_;
    mark_lane_pending(transfer.to);
    if (telemetry::WormTracer* tracer = observers_.worm_tracer()) {
      tracer->on_sf_hop_arrival(transfer.packet, transfer.to, now_);
    }
  }
}

void StoreForwardEngine::terminate_packet(PacketId pkt_id) {
  Packet& pkt = packets_[pkt_id];
  WORMSIM_DCHECK(!pkt.delivered() && !pkt.terminated());
  pkt.terminate_cycle = now_;
  drain_.terminated(pkt.create_cycle, now_);
  // Packet granularity: the whole packet sat in (or was headed for) the
  // dead buffer, so every flit that left the source is truncated.
  ++result_.terminated_messages;
  result_.terminated_flits += pkt.length;
  observers_.terminated(pkt_id, pkt.length, now_);
}

void StoreForwardEngine::apply_fault_plan() {
  fault_state_.applied = true;
  observers_.fault(now_, fault_state_.plan.channels.size());
  for (const ChannelId ch_id : fault_state_.plan.channels) {
    channel_faulty_[ch_id] = 1;
    const PhysChannel ch = network_.channel(ch_id);
    for (unsigned v = 0; v < ch.num_lanes; ++v) {
      LaneState& state = lanes_[ch.first_lane + v];
      // A transmitting head's data already left the dead buffer — its
      // in-flight transfer across a live output channel completes
      // normally.  Everything queued behind it dies with the buffer.
      const std::size_t keep = state.transmitting ? 1 : 0;
      while (state.queue.size() > keep) {
        terminate_packet(state.queue.back());
        state.queue.pop_back();
        --queued_packets_;
      }
    }
    // Wake the dead channel's feeders: a head whose every legal hop just
    // died must be terminated now, not parked waiting for a free event
    // that will never come.
    mark_channel_users(ch_id);
  }
}

telemetry::HeartbeatSnapshot StoreForwardEngine::heartbeat_snapshot(
    std::uint64_t cycle) const {
  telemetry::HeartbeatSnapshot snap;
  snap.cycle = cycle;
  snap.messages_created = drain_.created_count();
  snap.messages_delivered = result_.delivered_messages_total;
  snap.messages_terminated = result_.terminated_messages;
  snap.flits_delivered = delivered_flits_total_;
  snap.flits_terminated = result_.terminated_flits;
  // Packet granularity: "worms in flight" are the active channel
  // transfers, and the occupancy summary counts whole buffered packets.
  snap.flits_in_flight = in_flight_;
  snap.worms_in_flight = in_flight_;
  snap.queued_messages = static_cast<std::uint64_t>(queued_packets_);
  snap.dropped_messages = result_.dropped_messages;
  std::uint64_t faulty = 0;
  for (const std::uint8_t dead : channel_faulty_) faulty += dead;
  snap.faulty_channels = faulty;
  snap.stage_occupancy = observers_.stage_occupancy(
      [this](LaneId lane) { return lanes_[lane].queue.size(); });
  return snap;
}

void StoreForwardEngine::process(const Event& event) {
  WORMSIM_DCHECK(event.time >= now_);
  now_ = event.time;
  observers_.heartbeat(now_, [this](std::uint64_t boundary) {
    return heartbeat_snapshot(boundary);
  });
  if (fault_state_.kill_due(now_)) apply_fault_plan();
  while (!free_calendar_.empty() && free_calendar_.top().first <= now_) {
    mark_channel_users(free_calendar_.top().second);
    free_calendar_.pop();
  }
  switch (event.kind) {
    case Event::Kind::kArrivalGen: {
      const auto node = static_cast<NodeId>(event.payload);
      const std::uint64_t dst = traffic_->next_destination(node, rng_);
      const std::uint32_t length = traffic_->next_length(node, rng_);
      if (nodes_[node].queue.size() >= config_.queue_capacity) {
        ++result_.dropped_messages;
      } else {
        const PacketId id = inject_message(node, dst, length, now_);
        if (in_measure_window()) {
          ++result_.generated_messages_in_window;
          result_.generated_flits_in_window += packets_[id].length;
          result_.max_source_queue = std::max<std::uint64_t>(
              result_.max_source_queue, nodes_[node].queue.size());
        }
      }
      const double gap = traffic_->next_gap(node, rng_);
      schedule(now_ + static_cast<std::uint64_t>(
                          std::llround(std::max(1.0, gap))),
               Event::Kind::kArrivalGen, node);
      break;
    }
    case Event::Kind::kTransferDone: {
      const Transfer transfer = transfers_[event.payload];
      free_transfers_.push_back(static_cast<std::uint32_t>(event.payload));
      finish_transfer(transfer);
      break;
    }
    case Event::Kind::kInject: {
      Packet& pkt = packets_[event.payload];
      pkt.measured = in_measure_window();
      if (pkt.measured) drain_.measured();
      if (telemetry::WormTracer* tracer = observers_.worm_tracer()) {
        tracer->set_measured(static_cast<PacketId>(event.payload),
                             pkt.measured);
      }
      nodes_[pkt.src].queue.push_back(
          static_cast<PacketId>(event.payload));
      ++queued_packets_;
      mark_node_pending(static_cast<NodeId>(pkt.src));
      break;
    }
  }
  pump();
  if (validator_ != nullptr) validator_->check_event_end();
}

bool StoreForwardEngine::idle() const {
  return in_flight_ == 0 && queued_packets_ == 0;
}

bool StoreForwardEngine::run_until_idle(std::uint64_t max_time) {
  while (!events_.empty() && events_.top().time <= max_time) {
    const Event event = events_.top();
    events_.pop();
    process(event);
    if (idle() && events_.empty()) return true;
  }
  return idle();
}

SimResult StoreForwardEngine::run() {
  const std::uint64_t total = config_.total_cycles();
  while (!events_.empty() && events_.top().time < total) {
    const Event event = events_.top();
    events_.pop();
    process(event);
  }
  now_ = total;
  drain_.finish(result_);
  observers_.finish(result_, heartbeat_snapshot(total), 0.0);
  if (validator_ != nullptr) validator_->check_final(result_);
  return result_;
}

}  // namespace wormsim::sim
