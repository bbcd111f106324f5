#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "sim/fault_injection/plan.hpp"
#include "sim/validate.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

using topology::ChannelId;
using topology::kInvalidId;
using topology::LaneId;
using topology::NodeId;
using topology::PhysChannel;

namespace {

/// First integer cycle at which `next_arrival <= cycle` holds.
std::uint64_t fire_cycle(double next_arrival) {
  return static_cast<std::uint64_t>(std::ceil(next_arrival));
}

}  // namespace

Engine::Engine(const topology::NetView& network,
               const routing::Router& router, TrafficSource* traffic,
               SimConfig config)
    : network_(network),
      router_(router),
      traffic_(traffic),
      config_(config),
      rng_(config.seed),
      drain_(config_),
      observers_(network_, config_, "wormhole",
                 &result_.telemetry_counters) {
  const std::size_t lanes = network_.lane_count();
  const std::size_t channels = network_.channel_count();
  route_out_.assign(lanes, kInvalidId);
  alloc_owner_.assign(lanes, kInvalidId);
  channel_used_cycle_.assign(channels, kNoCycle);
  vc_rr_.assign(channels, 0);
  channel_faulty_.resize(channels);
  seed_bits_.resize(channels);
  cur_pass_.resize(channels);
  next_pass_.resize(channels);
  fc_.configure(lanes, config_.flow_control, config_.buffer_depth,
                config_.credit_delay);

  // Flatten the per-channel topology fields the advance loop reads, so a
  // transmit decision never decodes a PhysChannel/Endpoint pair.  One
  // pass over the channel records also collects the switch-input lane
  // scan order — with an implicit backend each record is recomputed on
  // the fly, so visiting it twice would double the construction cost.
  // Lane ids are allocated contiguously per channel in ascending channel
  // order by both backends, so the channel-major walk pushes
  // switch_input_lanes_ in the same ascending lane order the old
  // lane-major walk produced.
  ch_first_lane_.assign(channels, kInvalidId);
  ch_num_lanes_.assign(channels, 0);
  ch_src_node_.assign(channels, kInvalidId);
  ch_dst_is_switch_.resize(channels);
  lane_channel_.assign(lanes, kInvalidId);
  lane_scan_pos_.assign(lanes, kInvalidId);
  bool single_lane = true;
  network_.for_each_channel([&](const PhysChannel& ch) {
    ch_first_lane_[ch.id] = ch.first_lane;
    ch_num_lanes_[ch.id] = static_cast<std::uint8_t>(ch.num_lanes);
    single_lane = single_lane && ch.num_lanes == 1;
    if (ch.src.is_node()) {
      ch_src_node_[ch.id] = static_cast<std::uint32_t>(ch.src.id);
    }
    const bool dst_switch = ch.dst.is_switch();
    if (dst_switch) ch_dst_is_switch_.set(ch.id);
    for (unsigned v = 0; v < ch.num_lanes; ++v) {
      const LaneId lane = ch.first_lane + v;
      lane_channel_[lane] = ch.id;
      if (dst_switch) {
        lane_scan_pos_[lane] =
            static_cast<std::uint32_t>(switch_input_lanes_.size());
        switch_input_lanes_.push_back(lane);
        pos_switch_.push_back(static_cast<std::uint32_t>(ch.dst.id));
      }
    }
  });
  const std::size_t scan_lanes = switch_input_lanes_.size();
  pos_switch_.shrink_to_fit();
  header_bits_.resize(scan_lanes);
  sleep_bits_.resize(scan_lanes);
  sleep_head_.assign(network_.switch_count(), kInvalidId);
  sleep_next_.assign(scan_lanes, kInvalidId);
  sleep_since_.assign(scan_lanes, kNoCycle);
  chase_ = single_lane && fc_.scheme == FlowControlScheme::kCredit &&
           fc_.depth == 1 && fc_.delay == 0;

  const std::size_t node_count = network_.node_count();
  queue_head_.assign(node_count, kNoPacket);
  queue_tail_.assign(node_count, kNoPacket);
  queue_length_.assign(node_count, 0);
  node_tx_packet_.assign(node_count, kNoPacket);
  node_tx_sent_.assign(node_count, 0);
  node_next_arrival_.assign(node_count, 0.0);
  tx_pending_flag_.assign(node_count, 0);
  wheel_head_.assign(kWheelSlots, kInvalidId);
  wheel_next_.assign(node_count, kInvalidId);
  for (NodeId node = 0; node < node_count; ++node) {
    if (traffic_ != nullptr && traffic_->node_active(node)) {
      node_next_arrival_[node] = traffic_->next_gap(node, rng_);
      wheel_insert(node);
    }
  }

  cand_stride_ =
      std::min<std::uint32_t>(kCandStrideMax, network_.max_route_fanout());
  cand_pkt_.assign(lanes, kNoPacket);
  cand_len_.assign(lanes, 0);
  cand_store_.assign(lanes * cand_stride_, kInvalidId);

  result_.measure_cycles = config_.measure_cycles;
  result_.node_count = network_.node_count();
  if (config_.fault_fraction > 0.0) {
    fault_state_.plan = fault_injection::build_fault_plan(
        network_, config_.fault_fraction, config_.fault_seed,
        config_.fault_at_cycle);
    fault_injection::validate_plan(network_, fault_state_.plan);
  }
  if (config_.validate) validator_ = std::make_unique<EngineValidator>(*this);
}

Engine::~Engine() = default;

PacketId Engine::inject_message(NodeId src, std::uint64_t dst,
                                std::uint32_t length) {
  WORMSIM_CHECK_MSG(dst != src, "self-addressed message");
  WORMSIM_CHECK(length >= 1);
  if (config_.flow_control == FlowControlScheme::kVirtualCutThrough) {
    // Cut-through only grants a lane that can hold the whole packet, so a
    // packet longer than the buffer could never route at all.
    WORMSIM_CHECK_MSG(length <= config_.buffer_depth,
                      "virtual cut-through needs buffer_depth >= packet "
                      "length");
  }
  const PacketId serial = next_packet_id(drain_.created_count());
  const bool measured = in_measure_window();
  drain_.created(cycle_);
  if (measured) drain_.measured();
  if (validator_ != nullptr) validator_->on_created(measured);
  if (queue_length_[src] >= config_.queue_capacity) {
    ++result_.dropped_messages;
  } else {
    PacketState pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.length = length;
    pkt.create_cycle = cycle_;
    pkt.measured = measured;
    pkt.turn_stage = static_cast<std::uint8_t>(
        routing::make_query(network_, src, dst).turn_stage);
    enqueue_packet(src, PacketRecord{pkt, serial});
  }
  observers_.created(serial, cycle_, src, dst, length, measured);
  return serial;
}

void Engine::enqueue_packet(NodeId src, const PacketRecord& record) {
  PacketId pid = free_head_;
  if (pid != kNoPacket) {
    free_head_ = packets_[pid].next;
    packets_[pid] = record;
  } else {
    pid = static_cast<PacketId>(packets_.size());
    packets_.push_back(record);
  }
  if (queue_tail_[src] == kNoPacket) {
    queue_head_[src] = pid;
  } else {
    packets_[queue_tail_[src]].next = pid;
  }
  queue_tail_[src] = pid;
  ++queue_length_[src];
  ++queued_messages_;
  if (node_tx_packet_[src] == kNoPacket) mark_tx_pending(src);
  if (in_measure_window()) {
    result_.max_source_queue = std::max<std::uint64_t>(
        result_.max_source_queue, queue_length_[src]);
  }
}

void Engine::wheel_insert(NodeId node) {
  const std::size_t slot =
      fire_cycle(node_next_arrival_[node]) & (kWheelSlots - 1);
  wheel_next_[node] = wheel_head_[slot];
  wheel_head_[slot] = node;
}

void Engine::generate_arrivals() {
  if (traffic_ == nullptr) return;
  const auto now = static_cast<double>(cycle_);
  // Unlink every due node of this cycle's bucket (fire_cycle(next) <=
  // cycle_, i.e. next <= now; the others are due in a later round), then
  // process the due nodes in id order: the RNG draw sequence must match
  // the original all-nodes scan.
  due_nodes_.clear();
  NodeId* link = &wheel_head_[cycle_ & (kWheelSlots - 1)];
  while (*link != kInvalidId) {
    const NodeId node = *link;
    if (node_next_arrival_[node] <= now) {
      *link = wheel_next_[node];
      due_nodes_.push_back(node);
    } else {
      link = &wheel_next_[node];
    }
  }
  if (due_nodes_.empty()) return;
  std::sort(due_nodes_.begin(), due_nodes_.end());
  for (NodeId node : due_nodes_) {
    double next = node_next_arrival_[node];
    while (next <= now) {
      const std::uint64_t dst = traffic_->next_destination(node, rng_);
      WORMSIM_DCHECK(dst != node);
      const std::uint32_t length = traffic_->next_length(node, rng_);
      inject_message(node, dst, length);
      if (in_measure_window()) {
        ++result_.generated_messages_in_window;
        result_.generated_flits_in_window += length;
      }
      next += std::max(traffic_->next_gap(node, rng_), 1e-9);
    }
    node_next_arrival_[node] = next;
    wheel_insert(node);
  }
}

bool Engine::start_transmissions() {
  // One-port source: start transmitting the queue head when idle.  Only
  // nodes marked pending (new queue head, or a transmission that just
  // finished with more queued) can change state.
  if (tx_pending_.empty()) return false;
  bool started = false;
  for (NodeId node : tx_pending_) {
    tx_pending_flag_[node] = 0;
    const PacketId head = queue_head_[node];
    if (node_tx_packet_[node] == kNoPacket && head != kNoPacket) {
      started = true;
      node_tx_packet_[node] = head;
      queue_head_[node] = packets_[head].next;
      if (queue_head_[node] == kNoPacket) queue_tail_[node] = kNoPacket;
      --queue_length_[node];
      --queued_messages_;
      node_tx_sent_[node] = 0;
      ++transmitting_nodes_;
      schedule_channel(network_.injection_channel(node));
    }
  }
  tx_pending_.clear();
  return started;
}

bool Engine::route_and_allocate() {
  // Headers are served in a configurable order; the default rotation
  // keeps any single switch or lane from a systematic priority advantage.
  const std::size_t count = switch_input_lanes_.size();
  if (count == 0) return false;
  std::size_t offset = 0;
  if (config_.arbitration == ArbitrationOrder::kRandom) {
    // Drawn every cycle — even with no awake header — to keep the RNG
    // stream identical to the original full scan (golden tests).
    offset = static_cast<std::size_t>(rng_.below(count));
  }
  if (header_count_ == sleep_count_) return false;  // every header asleep
  if (config_.arbitration == ArbitrationOrder::kRotating) {
    offset = static_cast<std::size_t>(cycle_ % count);
  }
  const bool vct =
      config_.flow_control == FlowControlScheme::kVirtualCutThrough;
  routing::CandidateList fresh;
  routing::CandidateList free_lanes;
  // Visit exactly the awake set positions, rotated: [offset, count) then
  // [0, offset) — the same order the old rotated sort produced.  A grant
  // clears its own bit; blocked headers keep theirs for next cycle.
  const auto serve = [&](std::uint32_t pos) {
    const LaneId u = switch_input_lanes_[pos];
    const PacketId pid = fc_.front(u);
    WORMSIM_DCHECK(pid != kNoPacket);
    WORMSIM_DCHECK(fc_.front_seq(u) == 0);
    WORMSIM_DCHECK(route_out_[u] == kInvalidId);
    if (sleep_since_[pos] != kNoCycle) charge_sleep(pos);
    const PacketRecord& pkt = packets_[pid];
    // Router::candidates is pure in (packet, lane), so a blocked header
    // re-arbitrating every cycle reuses its memoized list instead of
    // re-walking the topology.
    const LaneId* cand = nullptr;
    std::size_t cand_count = 0;
    if (cand_pkt_[u] == pid && cand_len_[u] != kCandOverflow) {
      cand = &cand_store_[std::size_t{u} * cand_stride_];
      cand_count = cand_len_[u];
    } else {
      routing::RouteQuery query;
      query.src = pkt.src;
      query.dst = pkt.dst;
      query.turn_stage = pkt.turn_stage;
      fresh.clear();
      router_.candidates(query, u, fresh);
      cand_pkt_[u] = pid;
      if (fresh.size() <= cand_stride_) {
        cand_len_[u] = static_cast<std::uint8_t>(fresh.size());
        std::copy(fresh.begin(), fresh.end(),
                  &cand_store_[std::size_t{u} * cand_stride_]);
      } else {
        cand_len_[u] = kCandOverflow;
      }
      cand = fresh.begin();
      cand_count = fresh.size();
    }
    free_lanes.clear();
    // Virtual cut-through only grants a switch-destined lane whose buffer
    // can absorb the whole packet (ejection lanes consume instantly and
    // are exempt); the first such credit-gated lane is remembered for
    // starvation attribution.
    LaneId credit_gated = kInvalidId;
    bool any_alive = false;  // some candidate is not faulty
    for (std::size_t i = 0; i < cand_count; ++i) {
      const LaneId lane = cand[i];
      if (alloc_owner_[lane] != kInvalidId) {
        any_alive = true;  // allocations never survive on dead channels
        continue;
      }
      if (channel_faulty_.test(lane_channel_[lane])) continue;
      any_alive = true;
      if (vct && lane_scan_pos_[lane] != kInvalidId &&
          !fc_.can_accept_packet(lane, pkt.length)) {
        if (credit_gated == kInvalidId) credit_gated = lane;
        continue;
      }
      free_lanes.push_back(lane);
    }
    if (cand_count > 0 && !any_alive) {
      // Every legal lane is dead: the worm can never progress (kills are
      // permanent, and waiting would either trip the deadlock watchdog or
      // hold buffers hostage indefinitely).  Terminate it —
      // truncate-and-account, DESIGN.md §14.  Non-adaptive TMIN worms
      // whose unique path died land here; adaptive networks only when
      // the fault fraction disconnects the pair outright.
      terminate_worm(pid);
      return;
    }
    const std::uint32_t sw = pos_switch_[pos];
    if (free_lanes.empty()) {  // blocked; the bit stays for next cycle
      const bool credit_short = credit_gated != kInvalidId;
      observers_.blocked(pkt.serial, u, sw, credit_short, cycle_, [&] {
        // Culprit: the first *allocated* candidate in candidate order (the
        // tracer resolves its holder worm).  A header whose only obstacle
        // is a credit-dry lane is credit-starved, not contending; with
        // every candidate faulty, the first faulty lane — there is no
        // worm to blame.
        for (std::size_t i = 0; i < cand_count; ++i) {
          if (alloc_owner_[cand[i]] != kInvalidId) {
            return std::pair{cand[i], false};
          }
        }
        if (credit_gated != kInvalidId) return std::pair{credit_gated, true};
        return std::pair{cand_count == 0 ? kInvalidId : cand[0], false};
      });
      // With every candidate allocated or dead, only a release at this
      // switch or a fault kill can change the outcome: sleep until one
      // does.  A credit-short lane can refill without either, so a
      // header that met one stays awake.
      if (credit_gated == kInvalidId && cand_count > 0) sleep_header(pos);
      return;
    }
    const LaneId chosen =
        config_.lane_selection == LaneSelection::kFirstFree
            ? free_lanes[0]
            : free_lanes[static_cast<std::size_t>(
                  rng_.below(free_lanes.size()))];
    header_bits_.clear(pos);
    --header_count_;
    cand_pkt_[u] = kNoPacket;  // the memo dies with the unrouted header
    route_out_[u] = chosen;
    alloc_owner_[chosen] = u;
    schedule_channel(lane_channel_[chosen]);
    observers_.granted(pkt.serial, u, sw, chosen, cycle_);
  };
  // Sleepers are masked out word by word; the sleep word is re-read after
  // every serve, so a header woken mid-walk (a termination released a
  // lane at its switch) is served if the walk has not yet passed it —
  // exactly where serving every header would have served it.
  header_bits_.for_each_in_except(offset, count, sleep_bits_, serve);
  header_bits_.for_each_in_except(0, offset, sleep_bits_, serve);
  return true;
}

void Engine::wake_waiters(LaneId in_lane, LaneId out_lane) {
  // A sleeper's candidate list is memoized (it was served before it
  // slept); one too long for the memo wakes on any release.
  std::uint32_t* link = &sleep_head_[pos_switch_[lane_scan_pos_[in_lane]]];
  while (*link != kInvalidId) {
    const std::uint32_t pos = *link;
    const LaneId u = switch_input_lanes_[pos];
    WORMSIM_DCHECK(cand_pkt_[u] == fc_.front(u));
    bool waits = cand_len_[u] == kCandOverflow;
    if (!waits) {
      const LaneId* cand = &cand_store_[std::size_t{u} * cand_stride_];
      waits = std::find(cand, cand + cand_len_[u], out_lane) !=
              cand + cand_len_[u];
    }
    if (waits) {
      sleep_bits_.clear(pos);
      --sleep_count_;
      *link = sleep_next_[pos];
    } else {
      link = &sleep_next_[pos];
    }
  }
}

void Engine::wake_all() {
  sleep_bits_.for_each(
      [&](std::uint32_t pos) { sleep_head_[pos_switch_[pos]] = kInvalidId; });
  sleep_bits_.reset();
  sleep_count_ = 0;
}

void Engine::charge_sleep(std::uint32_t pos) {
  // A sleeper's denials all name the culprit of its last serve: nothing
  // at its switch was released meanwhile, so the serves it skipped would
  // each have extended that one blocked interval.
  const std::uint64_t first = sleep_since_[pos];
  sleep_since_[pos] = sleep_bits_.test(pos) ? cycle_ : kNoCycle;
  if (first >= cycle_) return;
  const LaneId u = switch_input_lanes_[pos];
  observers_.slept(packets_[fc_.front(u)].serial, u, pos_switch_[pos], first,
                   cycle_ - 1);
}

void Engine::set_fault_plan(fault_injection::FaultPlan plan) {
  WORMSIM_CHECK_MSG(cycle_ == 0, "install fault plans before the first step");
  fault_injection::validate_plan(network_, plan);
  fault_state_ = fault_injection::FaultState{};
  fault_state_.plan = std::move(plan);
}

PacketId Engine::chain_worm(LaneId u) const {
  // The worm streaming through input lane `u` (its route is held): the
  // FIFO front is the oldest un-crossed flit and belongs to the route
  // holder; an empty FIFO means the tail is strictly upstream, so follow
  // the allocation chain until flits — or the still-transmitting
  // source — are found.
  while (true) {
    if (fc_.count[u] > 0) return fc_.front(u);
    const ChannelId ch = lane_channel_[u];
    const std::uint32_t src_node = ch_src_node_[ch];
    if (src_node != kInvalidId) return node_tx_packet_[src_node];
    const LaneId up = alloc_owner_[u];
    if (up == kInvalidId) return kNoPacket;  // released chain, no worm
    u = up;
  }
}

std::uint32_t Engine::fc_remove_packet(LaneId lane, PacketId pid) {
  const std::uint32_t count = fc_.count[lane];
  if (count == 0) return 0;
  const bool front_removed = fc_.front(lane) == pid;
  // Unregister the worm's unrouted header if it sits at the front (the
  // bit state is authoritative: set iff an unrouted header is registered
  // — a granted header already cleared it).  No header sleeps here (a
  // kill wakes them all first, and routing terminates only the header it
  // serves), but one may still owe the denials it slept through.
  const std::uint32_t pos = lane_scan_pos_[lane];
  if (front_removed && fc_.front_seq(lane) == 0 && pos != kInvalidId &&
      header_bits_.test(pos)) {
    WORMSIM_DCHECK(!sleep_bits_.test(pos));
    if (sleep_since_[pos] != kNoCycle) charge_sleep(pos);
    header_bits_.clear(pos);
    --header_count_;
    cand_pkt_[lane] = kNoPacket;
  }
  const std::uint32_t removed = fc_.erase(lane, pid);
  if (removed == 0) return 0;
  occupied_ -= removed;

  // A survivor moved up to the front can only be a header: a worm queued
  // behind the removed one has popped nothing yet, so its oldest present
  // flit is seq 0.  Register it.
  if (front_removed && removed < count && fc_.front_seq(lane) == 0 &&
      pos != kInvalidId) {
    WORMSIM_DCHECK(route_out_[lane] == kInvalidId);
    header_at_front(lane);
  }

  // The credit-conservation invariant needs every discarded flit's slot
  // back, even on a dead lane.
  fc_return_slots(lane, removed);
  // Freed slots may unblock a sender of a surviving worm on this lane.
  const ChannelId lane_ch = lane_channel_[lane];
  if (!channel_faulty_.test(lane_ch)) schedule_channel(lane_ch);
  observers_.discarded(lane, removed);
  return removed;
}

void Engine::terminate_worm(PacketId pid) {
  const PacketRecord& pkt = packets_[pid];
  WORMSIM_DCHECK(pkt.length != 0);
  // (1) Collect the routes the worm holds, before anything changes:
  // releasing mutates the alloc_owner_ links chain_worm() walks, and a
  // chain of empty lanes (credit bubbles between flits) is traced back
  // through node_tx_packet_, so the source must still name the worm.
  std::vector<LaneId> held;
  const auto lanes = static_cast<LaneId>(fc_.lanes);
  for (LaneId u = 0; u < lanes; ++u) {
    if (route_out_[u] != kInvalidId && chain_worm(u) == pid) {
      held.push_back(u);
    }
  }
  // (2) Stop the source mid-message: the un-sent tail never enters.
  const auto src = static_cast<NodeId>(pkt.src);
  std::uint32_t sent = pkt.length;
  if (node_tx_packet_[src] == pid) {
    sent = node_tx_sent_[src];
    stop_source(src);
  }
  // (3) Release the allocation chain.
  for (const LaneId u : held) release_route(u);
  // (4) Discard the worm's buffered flits everywhere it has any.
  std::uint32_t truncated = 0;
  for (LaneId lane = 0; lane < lanes; ++lane) {
    truncated += fc_remove_packet(lane, pid);
  }
  // (5) Account: delivered + terminated is the generalized conservation
  // the validator reconciles (flits ejected before the kill stay
  // delivered; sent - truncated of them were), then free the record.
  ++result_.terminated_messages;
  result_.terminated_flits += truncated;
  --worms_in_flight_;
  // Termination is progress: state changed, nothing is stuck.
  last_move_cycle_ = cycle_;
  drain_.terminated(pkt.create_cycle, cycle_);
  observers_.terminated(pkt.serial, sent, cycle_);
  if (validator_ != nullptr) validator_->on_terminated(pid, sent, truncated);
  free_record(pid);
}

void Engine::apply_fault_plan() {
  fault_state_.applied = true;
  observers_.fault(cycle_, fault_state_.plan.channels.size());
  const std::vector<ChannelId>& channels = fault_state_.plan.channels;
  for (const ChannelId ch : channels) channel_faulty_.set(ch);
  // A sleeper may have just lost its last live candidate (routing must
  // terminate it) or be about to lose its worm.
  wake_all();
  // Victims: every worm resident in, streaming through, or allocated
  // onto a dead lane (a dead channel takes its input buffers with it).
  // Worms whose only *future* paths died are caught by the next
  // route_and_allocate instead.
  std::vector<PacketId> victims;
  for (const ChannelId ch : channels) {
    const LaneId first = ch_first_lane_[ch];
    for (unsigned v = 0; v < ch_num_lanes_[ch]; ++v) {
      const LaneId lane = first + v;
      for (std::uint32_t s = 0; s < fc_.count[lane]; ++s) {
        victims.push_back(fc_.slot_packet[fc_.slot(lane, s)]);
      }
      if (route_out_[lane] != kInvalidId) {
        victims.push_back(chain_worm(lane));
      }
      if (alloc_owner_[lane] != kInvalidId) {
        victims.push_back(chain_worm(alloc_owner_[lane]));
      }
    }
  }
  // Terminate in creation order: records are reused, so slot order is
  // not it.
  victims.erase(std::remove(victims.begin(), victims.end(), kNoPacket),
                victims.end());
  std::sort(victims.begin(), victims.end(), [&](PacketId a, PacketId b) {
    return packets_[a].serial < packets_[b].serial;
  });
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  for (const PacketId pid : victims) terminate_worm(pid);
}

int Engine::decide_channel(ChannelId ch_id) {
  if (channel_used_cycle_[ch_id] == cycle_ || channel_faulty_.test(ch_id)) {
    return -1;
  }
  const LaneId first = ch_first_lane_[ch_id];
  const unsigned num = ch_num_lanes_[ch_id];
  const std::uint32_t src_node = ch_src_node_[ch_id];

  // Gather the lanes of this physical channel that could transmit a flit
  // right now, then let the round-robin pointer pick among them.
  std::uint32_t ready_mask = 0;
  if (src_node != kInvalidId) {
    // Injection channel: the node pushes flits of its active message.
    if (node_tx_packet_[src_node] != kNoPacket) {
      for (unsigned v = 0; v < num; ++v) {
        const LaneId lane = first + v;
        if (!fc_.can_accept(lane)) {  // no credit / stopped / buffer full
          fc_open_starve(lane);
          continue;
        }
        ready_mask |= 1u << v;
      }
    }
  } else {
    const bool dst_switch = ch_dst_is_switch_.test(ch_id);
    for (unsigned v = 0; v < num; ++v) {
      const LaneId lane = first + v;
      const LaneId u = alloc_owner_[lane];
      if (u == kInvalidId) continue;
      if (fc_.count[u] == 0 || fc_.front_arrived(u, cycle_)) continue;
      WORMSIM_DCHECK(route_out_[u] == lane);
      if (dst_switch && !fc_.can_accept(lane)) {
        fc_open_starve(lane);
        continue;
      }
      ready_mask |= 1u << v;
    }
  }
  if (ready_mask == 0) return -1;

  unsigned pick = vc_rr_[ch_id] % num;
  while ((ready_mask & (1u << pick)) == 0) pick = (pick + 1) % num;
  vc_rr_[ch_id] = static_cast<std::uint8_t>((pick + 1) % num);
  return static_cast<int>(pick);
}

void Engine::apply_move(ChannelId ch_id, unsigned pick) {
  const LaneId lane = ch_first_lane_[ch_id] + pick;
  const std::uint32_t src_node = ch_src_node_[ch_id];
  if (src_node != kInvalidId) {
    move_from_node(src_node, lane);
  } else {
    move_from_switch(alloc_owner_[lane], lane);
  }
  channel_used_cycle_[ch_id] = cycle_;
  last_move_cycle_ = cycle_;
}

bool Engine::try_single_lane(ChannelId ch) {
  // decide_channel with one lane: vc_rr_ stays 0, and fc_open_starve is a
  // no-op because at depth 1 a sender without credit faces a full buffer.
  // Single-flit buffers keep each worm contiguous (the validator's worm
  // continuity), so a body flit only moves into a lane the flit ahead of
  // it just left: the lane's next hop moved this cycle and seed_next_hop
  // would skip it.
  if (channel_used_cycle_[ch] == cycle_ ||
      (fault_state_.applied && channel_faulty_.test(ch))) {
    return false;
  }
  const LaneId lane = ch_first_lane_[ch];
  const std::uint32_t src_node = ch_src_node_[ch];
  PacketId pid = kNoPacket;
  std::uint32_t seq = 0;
  if (src_node != kInvalidId) {
    pid = node_tx_packet_[src_node];
    if (pid == kNoPacket || fc_.credits[lane] == 0) return false;
    seq = node_tx_sent_[src_node];
    if (seq == 0 || seq + 1 == packets_[pid].length) {
      apply_move(ch, 0);
      return true;
    }
    // Body injection: the fc_push of move_from_node at depth 1.
    fc_.push(lane, pid, seq, cycle_);
    fc_.credits[lane] = 0;
    ++occupied_;
    node_tx_sent_[src_node] = seq + 1;
  } else {
    const LaneId u = alloc_owner_[lane];
    if (u == kInvalidId) return false;
    pid = fc_.front(u);
    if (pid == kNoPacket || fc_.front_arrived(u, cycle_)) return false;
    const bool eject = !ch_dst_is_switch_.test(ch);
    if (!eject && fc_.credits[lane] == 0) return false;
    seq = fc_.front_seq(u);
    if (seq == 0 || seq + 1 == packets_[pid].length) {
      apply_move(ch, 0);
      return true;
    }
    // Body flit: fc_pop(u), then either deliver_flit's flit count or
    // fc_push(lane).  At depth 1 the pop and the push exchange the two
    // lanes' count and credit, so occupied_ is unchanged by a shift.
    fc_.pop(u);
    fc_.credits[u] = 1;
    popped_ = u;
    if (eject) {
      --occupied_;
      if (in_measure_window()) ++result_.delivered_flits_in_window;
      ++delivered_flits_total_;
    } else {
      fc_.push(lane, pid, seq, cycle_);
      fc_.credits[lane] = 0;
    }
  }
  observers_.moved(packets_[pid].serial, seq, lane, cycle_);
  channel_used_cycle_[ch] = cycle_;
  last_move_cycle_ = cycle_;
  return true;
}

void Engine::move_from_node(NodeId node_id, LaneId lane) {
  const PacketId tx = node_tx_packet_[node_id];
  const std::uint32_t sent = node_tx_sent_[node_id];
  PacketRecord& pkt = packets_[tx];
  const bool at_front = fc_push(lane, tx, sent);
  // The arrived flit can cross its (already routed) next hop next cycle.
  // A flit landing behind the front changes nothing about readiness.
  if (at_front) seed_next_hop(lane);
  if (sent == 0) {
    pkt.inject_cycle = cycle_;
    ++worms_in_flight_;
    if (telemetry::WormTracer* tracer = observers_.worm_tracer()) {
      tracer->on_injected(pkt.serial, cycle_);
    }
    // A header behind an earlier worm's flits becomes routable only when
    // it reaches the front (move_from_switch registers it after the tail
    // ahead of it pops).  Injection channels end at switches.
    if (at_front) header_at_front(lane);
  }
  observers_.moved(pkt.serial, sent, lane, cycle_);
  node_tx_sent_[node_id] = sent + 1;
  if (sent + 1 == pkt.length) stop_source(node_id);
}

void Engine::move_from_switch(LaneId in_lane, LaneId out_lane) {
  const PacketId pkt_id = fc_.front(in_lane);
  const std::uint32_t seq = fc_.front_seq(in_lane);
  const bool tail = seq + 1 == packets_[pkt_id].length;

  fc_pop(in_lane);
  // The channel feeding in_lane's buffer may now transmit its next flit:
  // the scan re-tries it, the chase tries it at once.
  popped_ = in_lane;
  observers_.moved(packets_[pkt_id].serial, seq, out_lane, cycle_);
  if (!ch_dst_is_switch_.test(lane_channel_[out_lane])) {
    deliver_flit(pkt_id, seq);
  } else {
    const bool at_front = fc_push(out_lane, pkt_id, seq);
    if (at_front && seq == 0) header_at_front(out_lane);
    // The arrived flit can cross its (already routed) next hop next cycle.
    if (at_front) seed_next_hop(out_lane);
  }
  if (tail) {
    // The worm's tail has crossed this hop: release both the input unit's
    // route and the output lane for the next worm.
    release_route(in_lane);
    // A deeper FIFO can already hold the next worm's header; it becomes
    // routable the moment the previous tail leaves the front.
    if (fc_.count[in_lane] > 0 && fc_.front_seq(in_lane) == 0) {
      header_at_front(in_lane);
    }
  }
}

void Engine::header_at_front(LaneId lane) {
  // Exactness invariant (validated): a lane enters the unrouted-header
  // set exactly once per header arrival and leaves on grant, so the
  // count stays in lockstep with the bits.
  const std::uint32_t pos = lane_scan_pos_[lane];
  WORMSIM_DCHECK(pos != kInvalidId);
  WORMSIM_DCHECK(!header_bits_.test(pos));
  header_bits_.set(pos);
  ++header_count_;
  if (telemetry::WormTracer* tracer = observers_.worm_tracer()) {
    tracer->on_header_arrival(packets_[fc_.front(lane)].serial, lane, cycle_);
  }
}

void Engine::release_route(LaneId in_lane) {
  const LaneId out_lane = route_out_[in_lane];
  route_out_[in_lane] = kInvalidId;
  alloc_owner_[out_lane] = kInvalidId;
  wake_waiters(in_lane, out_lane);
  if (telemetry::WormTracer* tracer = observers_.worm_tracer()) {
    tracer->on_lane_released(out_lane);
  }
}

void Engine::stop_source(NodeId node) {
  node_tx_packet_[node] = kNoPacket;
  node_tx_sent_[node] = 0;
  --transmitting_nodes_;
  if (queue_head_[node] != kNoPacket) mark_tx_pending(node);
}

bool Engine::fc_push(LaneId lane, PacketId pkt, std::uint32_t seq) {
  fc_.push(lane, pkt, seq, cycle_);
  ++occupied_;
  if (fc_.scheme == FlowControlScheme::kOnOff) {
    // Occupancy rose to the stop level: tell the sender to pause.  The
    // threshold leaves room for the flits still sendable while the signal
    // travels, so the FIFO can never overflow.
    if (fc_.count[lane] == fc_.off_threshold) {
      fc_deliver_or_queue(lane, /*go=*/false);
    }
  } else {
    WORMSIM_DCHECK(fc_.credits[lane] > 0);
    --fc_.credits[lane];
  }
  return fc_.count[lane] == 1;
}

void Engine::fc_pop(LaneId lane) {
  // A flit pushed this very cycle and now at the front still waits a
  // cycle before crossing the next channel: it is the lane's only flit
  // and carries the lane's stamp (FlowControlState::front_arrived).
  fc_.pop(lane);
  --occupied_;
  fc_return_slots(lane, 1);
}

void Engine::fc_return_slots(LaneId lane, std::uint32_t freed) {
  if (fc_.scheme == FlowControlScheme::kOnOff) {
    // GO is emitted when occupancy drains *to* the threshold; a removal
    // of several flits crosses it at most once.
    const std::uint32_t kept = fc_.count[lane];
    if (kept <= fc_.on_threshold && fc_.on_threshold < kept + freed) {
      fc_deliver_or_queue(lane, /*go=*/true);
    }
  } else if (fc_.delay == 0) {
    // Instant credit return: the sender sees the free slot this cycle —
    // at depth 1 exactly the legacy "downstream buffer is empty" check.
    fc_.credits[lane] += freed;
    fc_close_starve(lane);
  } else {
    for (std::uint32_t r = 0; r < freed; ++r) {
      fc_.events.push_back({cycle_ + fc_.delay, lane, /*go=*/false});
    }
  }
  if (fc_.scheme != FlowControlScheme::kCredit || fc_.delay > 0) {
    // The freed slot may leave the sender gated with space downstream
    // (credit in flight, or an on/off pause): starvation begins now, and
    // no try_channel attempt will observe it — the sender is not seeded
    // until the gate lifts.  Only a kill empties a dead lane, and its
    // sender is a victim of the same kill: no interval opens there.
    if (!fc_.can_accept(lane) && upstream_has_flit(lane) &&
        !channel_faulty_.test(lane_channel_[lane])) {
      fc_open_starve(lane);
    }
  }
}

void Engine::fc_deliver_or_queue(LaneId lane, bool go) {
  if (fc_.delay == 0) {
    const bool was_stopped = fc_.stopped[lane] != 0;
    fc_.stopped[lane] = go ? 0 : 1;
    // The pop-site unblock retry re-seeds the sender, so an inline GO
    // needs no explicit wake.
    if (go && was_stopped) fc_close_starve(lane);
  } else {
    fc_.events.push_back({cycle_ + fc_.delay, lane, go});
  }
}

void Engine::drain_flow_control_events() {
  while (!fc_.events.empty() && fc_.events.front().due <= cycle_) {
    const FlowControlEvent ev = fc_.events.front();
    fc_.events.pop_front();
    bool now_sendable = false;
    if (fc_.scheme == FlowControlScheme::kOnOff) {
      now_sendable = ev.go && fc_.stopped[ev.lane] != 0;
      fc_.stopped[ev.lane] = ev.go ? 0 : 1;
    } else {
      now_sendable = fc_.credits[ev.lane] == 0;
      ++fc_.credits[ev.lane];
    }
    if (now_sendable) {
      fc_close_starve(ev.lane);
      // Wake the sender: schedule its channel for this cycle's advance
      // (the drain runs before the phases).
      schedule_channel(lane_channel_[ev.lane]);
    }
  }
}

void Engine::fc_close_starve(LaneId lane) {
  if (fc_.starve_since[lane] == kNoCycle) return;
  const std::uint64_t cycles = cycle_ - fc_.starve_since[lane];
  fc_.starve_since[lane] = kNoCycle;
  if (cycles == 0) return;
  observers_.credit_starved(lane, cycles, [&] {
    // Blame the worm whose flit sat waiting for the gate to lift: the
    // transmitting node's packet on an injection lane, the upstream
    // FIFO's head worm otherwise.
    const std::uint32_t src_node = ch_src_node_[lane_channel_[lane]];
    if (src_node != kInvalidId) return serial(node_tx_packet_[src_node]);
    const LaneId owner = alloc_owner_[lane];
    return owner != kInvalidId ? serial(fc_.front(owner)) : kNoPacket;
  });
}

bool Engine::upstream_has_flit(LaneId lane) const {
  const std::uint32_t src_node = ch_src_node_[lane_channel_[lane]];
  if (src_node != kInvalidId) {
    return node_tx_packet_[src_node] != kNoPacket;
  }
  const LaneId owner = alloc_owner_[lane];
  return owner != kInvalidId && fc_.count[owner] > 0;
}

void Engine::deliver_flit(PacketId pkt_id, std::uint32_t seq) {
  const PacketRecord& pkt = packets_[pkt_id];
  WORMSIM_DCHECK(network_
                     .channel(network_.ejection_channel(
                         static_cast<NodeId>(pkt.dst)))
                     .dst.id == pkt.dst);
  if (in_measure_window()) {
    ++result_.delivered_flits_in_window;
  }
  ++delivered_flits_total_;
  if (seq + 1 == pkt.length) {
    --worms_in_flight_;
    observers_.delivered(pkt.serial, seq, cycle_);
    ++result_.delivered_messages_total;
    drain_.delivered(pkt.create_cycle, pkt.measured, cycle_);
    if (pkt.measured) {
      const auto latency =
          static_cast<double>(cycle_ - pkt.create_cycle);
      result_.latency_cycles.add(latency);
      result_.latency_histogram.add(latency);
      result_.network_latency_cycles.add(
          static_cast<double>(cycle_ - pkt.inject_cycle));
      result_.queueing_cycles.add(
          static_cast<double>(pkt.inject_cycle - pkt.create_cycle));
    }
    if (validator_ != nullptr) validator_->on_delivered(pkt_id);
    free_record(pkt_id);
  }
}

void Engine::advance_flits() {
  // Consume the event frontier: every channel scheduled since the previous
  // advance — by a grant, a transmission start, a flit arrival onto a
  // routed lane, or its own move last cycle.  This is a superset of the
  // channels that can move at pass one (see DESIGN.md for the induction),
  // and the ascending bit scan visits them exactly like pass one of the
  // original full scan.
  cur_pass_.swap(seed_bits_);

  if (chase_) {
    // One ascending pass.  A single-lane channel's readiness depends only
    // on its lane's credit, which only its downstream channel's move
    // returns, and on a source flit whose age is fixed at cycle start, so
    // the cycle's move set does not depend on visiting order.  Each move
    // that empties a lane tries the lane's channel at once and keeps
    // walking upstream while tries succeed, so a worm moves as one unit.
    // Ejections, the one order-sensitive step (floating-point latency
    // sums), are never chased (ejection lanes have no buffer) and so
    // still happen in ascending channel order.  Only a scan-reached mover
    // is re-seeded: a chased one refilled its own lane.
    cur_pass_.consume([&](std::uint32_t ch) {
      popped_ = kInvalidId;
      if (!try_channel(ch)) return;
      schedule_channel(ch);
      while (popped_ != kInvalidId) {
        const ChannelId up = lane_channel_[popped_];
        popped_ = kInvalidId;
        if (!try_channel(up)) break;
      }
    });
    return;
  }

  // Resolve movement to a fixpoint: a move can free a buffer that enables
  // another move in the same cycle, which is exactly how an unblocked worm
  // slides forward one hop as a unit.  Invariant reproducing the original
  // scan order: a move at channel c re-tries the channel u it unblocked in
  // the *current* pass when u > c (the ascending scan has not reached it
  // yet) and in the *next* pass otherwise.  Readiness only ever arises
  // from such unblocks — every other state change during advance removes
  // readiness — so skipping never-seeded channels drops no move.
  while (cur_pass_.any()) advance_pass();
}

void Engine::advance_pass() {
  cur_pass_.consume([&](std::uint32_t ch) {
    popped_ = kInvalidId;
    if (!try_channel(ch)) return;
    // A multi-lane channel may still hold another ready lane, and a
    // streaming channel wants its next flit: a mover is always a
    // candidate again next cycle.
    schedule_channel(ch);
    // Nothing upstream, or credits are delayed: then the freed slot
    // reaches its sender in a later cycle, so a re-try could only repeat
    // a failure and the fixpoint is one pass.  A sender that already
    // moved this cycle, or has nothing to send, fails its re-try at once.
    if (popped_ == kInvalidId || fc_.delay > 0) return;
    const ChannelId u = lane_channel_[popped_];
    if (u > ch) {
      cur_pass_.set(u);  // the ascending scan has not reached u yet
    } else {
      next_pass_.set(u);
    }
  });
  cur_pass_.swap(next_pass_);
}

void Engine::step() {
  using telemetry::EnginePhase;
  observers_.begin_cycle(in_measure_window());
  // A phase with nothing to do takes no lap: its one test is charged to
  // the next lapped phase, so the profiler does not time its own clock
  // reads as flow-control, fault, start-tx, routing, telemetry or
  // validate work.
  if (!fc_.events.empty()) {
    drain_flow_control_events();
    observers_.lap(EnginePhase::kFlowControl);
  }
  if (fault_state_.kill_due(cycle_)) {
    apply_fault_plan();
    observers_.lap(EnginePhase::kFault);
  }
  generate_arrivals();
  observers_.lap(EnginePhase::kArrivals);
  if (start_transmissions()) observers_.lap(EnginePhase::kStartTx);
  if (route_and_allocate()) observers_.lap(EnginePhase::kRouting);
  advance_flits();
  observers_.lap(EnginePhase::kAdvance);

  bool telemetry = false;
  if (observers_.sample_due(cycle_)) {
    telemetry = true;
    telemetry::Sample sample;
    sample.cycle = cycle_;
    sample.delivered_flits = delivered_flits_total_;
    sample.flits_in_flight = occupied_;
    sample.worms_in_flight = worms_in_flight_;
    sample.mean_queue_depth = static_cast<double>(queued_messages_) /
                              static_cast<double>(queue_length_.size());
    observers_.sample(sample);
  }
  // `cycle_ + 1` cycles are complete once this step ends.
  telemetry |= observers_.heartbeat(cycle_ + 1, [this](std::uint64_t cycle) {
    return heartbeat_snapshot(cycle);
  });
  if (telemetry) observers_.lap(EnginePhase::kTelemetry);

  if (validator_ != nullptr) {
    validator_->on_cycle_end();
    observers_.lap(EnginePhase::kValidate);
  }

  if (occupied_ > 0 &&
      cycle_ - last_move_cycle_ > config_.deadlock_watchdog_cycles) {
    report_deadlock();
  }
  ++cycle_;
}

telemetry::HeartbeatSnapshot Engine::heartbeat_snapshot(
    std::uint64_t cycle) const {
  telemetry::HeartbeatSnapshot snap;
  snap.cycle = cycle;
  snap.messages_created = drain_.created_count();
  snap.messages_delivered = result_.delivered_messages_total;
  snap.messages_terminated = result_.terminated_messages;
  snap.flits_delivered = delivered_flits_total_;
  snap.flits_terminated = result_.terminated_flits;
  snap.flits_in_flight = occupied_;
  snap.worms_in_flight = worms_in_flight_;
  snap.queued_messages = queued_messages_;
  snap.dropped_messages = result_.dropped_messages;
  snap.faulty_channels = channel_faulty_.count();
  snap.stage_occupancy = observers_.stage_occupancy(
      [this](LaneId lane) { return fc_.count[lane]; });
  return snap;
}

void Engine::report_deadlock() const {
  std::fprintf(stderr,
               "wormsim: deadlock watchdog fired at cycle %llu "
               "(%lld flits stuck)\n",
               static_cast<unsigned long long>(cycle_),
               static_cast<long long>(occupied_));
  std::size_t calendar = 0;
  for (NodeId head : wheel_head_) {
    for (NodeId node = head; node != kInvalidId; node = wheel_next_[node]) {
      ++calendar;
    }
  }
  std::fprintf(stderr,
               "  active sets: %zu channels seeded for next cycle, %zu "
               "unrouted headers (%zu asleep), %zu tx-pending nodes, %zu "
               "calendar entries\n",
               seed_bits_.count(), header_count_, sleep_count_,
               tx_pending_.size(), calendar);
  for (LaneId lane = 0; lane < fc_.lanes; ++lane) {
    if (fc_.count[lane] == 0) continue;
    const PhysChannel ch = network_.lane_channel(lane);
    std::fprintf(stderr, "  lane %u (channel %u role %d) holds %u flits\n",
                 lane, ch.id, static_cast<int>(ch.role), fc_.count[lane]);
    for (std::uint32_t s = 0; s < fc_.count[lane]; ++s) {
      const std::size_t at = fc_.slot(lane, s);
      const PacketRecord& pkt = packets_[fc_.slot_packet[at]];
      std::fprintf(stderr,
                   "    slot %u: packet %u seq %u (src %llu dst %llu len %u)\n",
                   s, pkt.serial, fc_.slot_seq[at],
                   static_cast<unsigned long long>(pkt.src),
                   static_cast<unsigned long long>(pkt.dst), pkt.length);
    }
  }
  if (!fc_.events.empty()) {
    std::fprintf(stderr, "  %zu backpressure events in flight (next due "
                 "cycle %llu)\n",
                 fc_.events.size(),
                 static_cast<unsigned long long>(fc_.events.front().due));
  }
  if (validator_ != nullptr) validator_->describe_stall();
  WORMSIM_CHECK_MSG(false, "deadlock detected (should be impossible)");
}

bool Engine::run_until_idle(std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    if (idle()) return true;
    step();
  }
  return idle();
}

SimResult Engine::run() {
  const std::uint64_t total = config_.total_cycles();
  const auto run_start = std::chrono::steady_clock::now();
  while (cycle_ < total) {
    step();
  }
  // Charge every sleeper's denials through the last cycle, so counters
  // and worm traces read as if each header had been served every cycle.
  header_bits_.for_each([&](std::uint32_t pos) {
    if (sleep_since_[pos] != kNoCycle) charge_sleep(pos);
  });
  const double run_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - run_start)
                                 .count();
  drain_.finish(result_);
  observers_.finish(result_, heartbeat_snapshot(cycle_), run_seconds);
  if (validator_ != nullptr) validator_->check_final(result_);
  return result_;
}

}  // namespace wormsim::sim
