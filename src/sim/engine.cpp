#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "sim/fault_injection/plan.hpp"
#include "sim/validate.hpp"
#include "telemetry/worm_trace.hpp"
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
      rng_(config.seed) {
  const std::size_t lanes = network_.lane_count();
  const std::size_t channels = network_.channel_count();
  buf_packet_.assign(lanes, kNoPacket);
  buf_seq_.assign(lanes, 0);
  arrived_epoch_.assign(lanes, 0);
  route_out_.assign(lanes, kInvalidId);
  alloc_owner_.assign(lanes, kInvalidId);
  channel_used_epoch_.assign(channels, 0);
  vc_rr_.assign(channels, 0);
  channel_faulty_.resize(channels);
  channel_sources_.assign(channels, 0);
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
  lane_dst_switch_.assign(lanes, 0);
  network_.for_each_channel([&](const PhysChannel& ch) {
    ch_first_lane_[ch.id] = ch.first_lane;
    ch_num_lanes_[ch.id] = static_cast<std::uint8_t>(ch.num_lanes);
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
        lane_dst_switch_[lane] = static_cast<std::uint32_t>(ch.dst.id);
      }
    }
  });
  header_bits_.resize(switch_input_lanes_.size());

  const std::size_t node_count = network_.node_count();
  node_queue_.resize(node_count);
  node_tx_packet_.assign(node_count, kNoPacket);
  node_tx_sent_.assign(node_count, 0);
  node_next_arrival_.assign(node_count, 0.0);
  tx_pending_flag_.assign(node_count, 0);
  for (NodeId node = 0; node < node_count; ++node) {
    if (traffic_ != nullptr && traffic_->node_active(node)) {
      node_next_arrival_[node] = traffic_->next_gap(node, rng_);
      arrival_calendar_.emplace(fire_cycle(node_next_arrival_[node]), node);
    }
  }

  cand_stride_ =
      std::min<std::uint32_t>(kCandStrideMax, network_.max_route_fanout());
  cand_pkt_.assign(lanes, kNoPacket);
  cand_len_.assign(lanes, 0);
  cand_store_.assign(lanes * cand_stride_, kInvalidId);

  result_.measure_cycles = config_.measure_cycles;
  result_.node_count = network_.node_count();
  result_.flits_per_microsecond = config_.flits_per_microsecond;
  if (config_.record_channel_utilization) {
    result_.channel_busy_cycles.assign(network_.channel_count(), 0);
  }
  if (config_.telemetry.counters) {
    result_.telemetry_counters.resize_for(network_.lane_count(),
                                          network_.switch_count());
    tel_ = &result_.telemetry_counters;
  }
  if (config_.telemetry.sampling) {
    WORMSIM_CHECK(config_.telemetry.sample_interval_cycles > 0);
    sampler_ = telemetry::IntervalSampler(config_.telemetry.sample_capacity);
  }
  if (config_.telemetry.worm_trace ||
      telemetry::worm_trace_enabled_from_env()) {
    worm_tracer_ = std::make_shared<telemetry::WormTracer>(lanes, channels);
    wtrace_ = worm_tracer_.get();
    result_.worm_trace = worm_tracer_;
  }
  if (config_.fault_fraction > 0.0) {
    fault_state_.plan = fault_injection::build_fault_plan(
        network_, config_.fault_fraction, config_.fault_seed,
        config_.fault_at_cycle, config_.fault_repair_cycle);
    fault_injection::validate_plan(network_, fault_state_.plan);
  }
  if (config_.validate || validate_enabled_from_env()) {
    validator_ = std::make_unique<EngineValidator>(*this);
  }
  const std::uint64_t heartbeat =
      telemetry::heartbeat_cycles_from_env(config_.telemetry);
  if (heartbeat > 0) {
    telemetry::RunMonitor::RunInfo info;
    info.dir = telemetry::heartbeat_dir_from_env(config_.telemetry);
    info.tag = config_.telemetry.heartbeat_tag;
    info.heartbeat_cycles = heartbeat;
    info.warmup_cycles = config_.warmup_cycles;
    info.measure_cycles = config_.measure_cycles;
    info.drain_cycles = config_.drain_cycles;
    info.node_count = network_.node_count();
    info.engine = "wormhole";
    run_monitor_ = std::make_unique<telemetry::RunMonitor>(std::move(info));
    monitor_ = run_monitor_.get();
    hb_interval_ = heartbeat;
    hb_stage_intervals_ = telemetry::build_stage_lane_intervals(network_);
  }
  if (config_.telemetry.profile || telemetry::profile_enabled_from_env()) {
    profiler_ = std::make_unique<telemetry::PhaseProfiler>();
    prof_ = profiler_.get();
  }
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
  PacketState pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.length = length;
  pkt.create_cycle = cycle_;
  pkt.measured = in_measure_window();
  pkt.turn_stage = routing::make_query(network_, src, dst).turn_stage;
  const auto id = static_cast<PacketId>(packets_.size());
  packets_.push_back(pkt);
  enqueue_packet(src, id);
  trace(TraceEvent::Kind::kCreated, id, 0, topology::kInvalidId);
  if (wtrace_ != nullptr) {
    wtrace_->on_created(id, cycle_, src, dst, length, pkt.measured);
  }
  return id;
}

void Engine::enqueue_packet(NodeId src, PacketId id) {
  std::deque<PacketId>& queue = node_queue_[src];
  if (queue.size() >= config_.queue_capacity) {
    ++result_.dropped_messages;
    packets_[id].deliver_cycle = kNoCycle;
    return;
  }
  queue.push_back(id);
  ++queued_messages_;
  if (node_tx_packet_[src] == kNoPacket) mark_tx_pending(src);
  if (in_measure_window()) {
    result_.max_source_queue =
        std::max<std::uint64_t>(result_.max_source_queue, queue.size());
  }
}

void Engine::generate_arrivals() {
  if (traffic_ == nullptr) return;
  const auto now = static_cast<double>(cycle_);
  // Drain every due calendar entry, then process the due nodes in id
  // order: the RNG draw sequence must match the original all-nodes scan.
  due_nodes_.clear();
  while (!arrival_calendar_.empty() &&
         arrival_calendar_.top().first <= cycle_) {
    due_nodes_.push_back(arrival_calendar_.top().second);
    arrival_calendar_.pop();
  }
  if (due_nodes_.empty()) return;
  std::sort(due_nodes_.begin(), due_nodes_.end());
  for (NodeId node : due_nodes_) {
    double next = node_next_arrival_[node];
    while (next <= now) {
      const std::uint64_t dst = traffic_->next_destination(node, rng_);
      WORMSIM_DCHECK(dst != node);
      const std::uint32_t length = traffic_->next_length(node, rng_);
      const PacketId id = inject_message(node, dst, length);
      if (in_measure_window()) {
        ++result_.generated_messages_in_window;
        result_.generated_flits_in_window += packets_[id].length;
      }
      next += std::max(traffic_->next_gap(node, rng_), 1e-9);
    }
    node_next_arrival_[node] = next;
    arrival_calendar_.emplace(fire_cycle(next), node);
  }
}

void Engine::start_transmissions() {
  // One-port source: start transmitting the queue head when idle.  Only
  // nodes marked pending (new queue head, or a transmission that just
  // finished with more queued) can change state.
  if (tx_pending_.empty()) return;
  for (NodeId node : tx_pending_) {
    tx_pending_flag_[node] = 0;
    std::deque<PacketId>& queue = node_queue_[node];
    if (node_tx_packet_[node] == kNoPacket && !queue.empty()) {
      node_tx_packet_[node] = queue.front();
      queue.pop_front();
      --queued_messages_;
      node_tx_sent_[node] = 0;
      ++transmitting_nodes_;
      activate_channel(network_.injection_channel(node));
    }
  }
  tx_pending_.clear();
}

void Engine::route_and_allocate() {
  // Headers are served in a configurable order; the default rotation
  // keeps any single switch or lane from a systematic priority advantage.
  const std::size_t count = switch_input_lanes_.size();
  if (count == 0) return;
  std::size_t offset = 0;
  switch (config_.arbitration) {
    case ArbitrationOrder::kRotating:
      offset = static_cast<std::size_t>(cycle_ % count);
      break;
    case ArbitrationOrder::kRandom:
      // Drawn every cycle — even with no waiting header — to keep the RNG
      // stream identical to the original full scan (golden tests).
      offset = static_cast<std::size_t>(rng_.below(count));
      break;
    case ArbitrationOrder::kFixed:
      break;
  }
  if (header_count_ == 0) return;
  const bool vct =
      config_.flow_control == FlowControlScheme::kVirtualCutThrough;
  routing::CandidateList fresh;
  routing::CandidateList free_lanes;
  // Visit exactly the set positions, rotated: [offset, count) then
  // [0, offset) — the same order the old rotated sort produced.  A grant
  // clears its own bit; blocked headers keep theirs for next cycle.
  const auto serve = [&](std::uint32_t pos) {
    const LaneId u = switch_input_lanes_[pos];
    WORMSIM_DCHECK(buf_packet_[u] != kNoPacket);
    WORMSIM_DCHECK(buf_seq_[u] == 0);
    WORMSIM_DCHECK(route_out_[u] == kInvalidId);
    const PacketId pid = buf_packet_[u];
    const PacketState& pkt = packets_[pid];
    // Router::candidates is pure in (packet, lane) and packet ids are
    // unique per run, so a blocked header re-arbitrating every cycle
    // reuses its memoized list instead of re-walking the topology.
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
      // Every legal lane is dead: the worm can never progress (only a
      // repair could save it, and waiting would either trip the deadlock
      // watchdog or hold buffers hostage indefinitely).  Terminate it —
      // truncate-and-account, DESIGN.md §14.  Non-adaptive TMIN worms
      // whose unique path died land here; adaptive networks only when
      // the fault fraction disconnects the pair outright.
      terminate_worm(pid);
      return;
    }
    if (free_lanes.empty()) {  // blocked; the bit stays for next cycle
      if (tel_window_ != nullptr) {
        ++tel_window_->lane_blocked[u];
        ++tel_window_->switch_denials[lane_dst_switch_[u]];
      }
      if (wtrace_ != nullptr ||
          (tel_window_ != nullptr && credit_gated != kInvalidId)) {
        // Culprit: the first *allocated* candidate in candidate order (the
        // tracer resolves its holder worm).  A header whose only obstacle
        // is a credit-dry lane is credit-starved, not contending; with
        // every candidate faulty, the first faulty lane — there is no
        // worm to blame.
        LaneId culprit = cand_count == 0 ? kInvalidId : cand[0];
        bool busy = false;
        for (std::size_t i = 0; i < cand_count; ++i) {
          if (alloc_owner_[cand[i]] != kInvalidId) {
            culprit = cand[i];
            busy = true;
            break;
          }
        }
        const bool starved = !busy && credit_gated != kInvalidId;
        if (starved) {
          culprit = credit_gated;
          if (tel_window_ != nullptr) {
            ++tel_window_->lane_credit_starved[culprit];
          }
        }
        if (wtrace_ != nullptr) {
          wtrace_->on_blocked(pid, u, culprit, cycle_, starved);
        }
      }
      return;
    }
    const LaneId chosen =
        config_.lane_selection == LaneSelection::kFirstFree
            ? free_lanes[0]
            : free_lanes[static_cast<std::size_t>(
                  rng_.below(free_lanes.size()))];
    header_bits_.clear(pos);
    --header_count_;
    route_out_[u] = chosen;
    alloc_owner_[chosen] = u;
    activate_channel(lane_channel_[chosen]);
    if (tel_window_ != nullptr) {
      ++tel_window_->switch_grants[lane_dst_switch_[u]];
    }
    if (wtrace_ != nullptr) {
      wtrace_->on_granted(pid, u, chosen, cycle_);
    }
    trace(TraceEvent::Kind::kRouted, pid, 0, chosen);
  };
  header_bits_.for_each_in(offset, count, serve);
  header_bits_.for_each_in(0, offset, serve);
}

void Engine::fail_channel(ChannelId channel) {
  WORMSIM_CHECK_MSG(cycle_ == 0, "fail channels before the first step");
  const PhysChannel ch = network_.channel(channel);
  WORMSIM_CHECK_MSG(ch.src.is_switch() && ch.dst.is_switch(),
                    "failing a node link disconnects a one-port node");
  channel_faulty_.set(channel);
  fault_any_ = true;
}

void Engine::set_fault_plan(fault_injection::FaultPlan plan) {
  WORMSIM_CHECK_MSG(cycle_ == 0, "install fault plans before the first step");
  fault_injection::validate_plan(network_, plan);
  fault_state_ = fault_injection::FaultState{};
  fault_state_.plan = std::move(plan);
}

PacketId Engine::chain_worm(LaneId u) const {
  // The worm streaming through input lane `u` (its route is held): the
  // FIFO head is the oldest un-crossed flit and belongs to the route
  // holder; an empty FIFO means the tail is strictly upstream, so follow
  // the allocation chain until flits — or the still-transmitting
  // source — are found.
  while (true) {
    if (fc_.count[u] > 0) return buf_packet_[u];
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
  const std::size_t base = fc_.ext_base(lane);
  // Gather the survivors in FIFO order (head slot, then extensions).
  std::vector<PacketId> keep_pkt;
  std::vector<std::uint32_t> keep_seq;
  std::vector<std::uint64_t> keep_epoch;
  const bool head_removed = buf_packet_[lane] == pid;
  if (!head_removed) {
    keep_pkt.push_back(buf_packet_[lane]);
    keep_seq.push_back(buf_seq_[lane]);
    keep_epoch.push_back(arrived_epoch_[lane]);
  }
  for (std::uint32_t s = 0; s + 1 < count; ++s) {
    if (fc_.ext_packet[base + s] == pid) continue;
    keep_pkt.push_back(fc_.ext_packet[base + s]);
    keep_seq.push_back(fc_.ext_seq[base + s]);
    keep_epoch.push_back(fc_.ext_epoch[base + s]);
  }
  const auto kept = static_cast<std::uint32_t>(keep_pkt.size());
  const std::uint32_t removed = count - kept;
  if (removed == 0) return 0;

  // Unregister the worm's unrouted header if it sat at this head slot
  // (the bit state is authoritative: set iff an unrouted header is
  // registered — a granted header already cleared it).
  if (head_removed && buf_seq_[lane] == 0 &&
      lane_scan_pos_[lane] != kInvalidId &&
      header_bits_.test(lane_scan_pos_[lane])) {
    header_bits_.clear(lane_scan_pos_[lane]);
    --header_count_;
  }

  // Compact the survivors back, clearing the freed tail slots exactly as
  // fc_pop leaves them so the validator's occupancy recount holds.
  fc_.count[lane] = kept;
  occupied_ -= removed;
  if (kept > 0) {
    buf_packet_[lane] = keep_pkt[0];
    buf_seq_[lane] = keep_seq[0];
    arrived_epoch_[lane] = keep_epoch[0];
    for (std::uint32_t s = 0; s + 1 < kept; ++s) {
      fc_.ext_packet[base + s] = keep_pkt[s + 1];
      fc_.ext_seq[base + s] = keep_seq[s + 1];
      fc_.ext_epoch[base + s] = keep_epoch[s + 1];
    }
  } else {
    buf_packet_[lane] = kNoPacket;
  }
  for (std::uint32_t s = kept > 0 ? kept - 1 : 0; s + 1 < count; ++s) {
    fc_.ext_packet[base + s] = kNoPacket;
    fc_.ext_seq[base + s] = 0;
    fc_.ext_epoch[base + s] = 0;
  }

  // A survivor promoted into the head slot can only be a header: a worm
  // queued behind the removed one has popped nothing yet, so its oldest
  // present flit is seq 0.  Register it.
  if (head_removed && kept > 0 && buf_seq_[lane] == 0 &&
      lane_scan_pos_[lane] != kInvalidId) {
    WORMSIM_DCHECK(route_out_[lane] == kInvalidId);
    add_header_lane(lane);
    if (wtrace_ != nullptr) {
      wtrace_->on_header_arrival(buf_packet_[lane], lane, cycle_);
    }
  }

  // Return the freed slots upstream, mirroring fc_pop's per-flit
  // sender-side accounting (the credit-conservation invariant needs
  // every discarded flit's credit back, even on a dead lane).
  const ChannelId lane_ch = lane_channel_[lane];
  const bool lane_dead = channel_faulty_.test(lane_ch);
  if (fc_.scheme == FlowControlScheme::kOnOff) {
    // GO is emitted when occupancy drains *to* the threshold; removal
    // crosses it at most once.
    if (kept <= fc_.on_threshold && fc_.on_threshold < count) {
      fc_deliver_or_queue(lane, /*go=*/true);
    }
  } else if (fc_.delay == 0) {
    fc_.credits[lane] += removed;
    fc_close_starve(lane);
  } else {
    for (std::uint32_t r = 0; r < removed; ++r) {
      fc_.events.push_back({cycle_ + fc_.delay, lane, /*go=*/false});
    }
  }
  if (fc_.scheme != FlowControlScheme::kCredit || fc_.delay > 0) {
    if (!lane_dead && !fc_.can_accept(lane) && upstream_has_flit(lane)) {
      fc_open_starve(lane);
    }
  }
  // Freed slots may unblock a sender of a surviving worm on this lane.
  if (!lane_dead && channel_sources_[lane_ch] != 0) {
    schedule_channel(lane_ch);
  }
  if (tel_window_ != nullptr) {
    tel_window_->lane_fault_terminated[lane] += removed;
  }
  return removed;
}

void Engine::terminate_worm(PacketId pid) {
  PacketState& pkt = packets_[pid];
  WORMSIM_DCHECK(!pkt.delivered());
  WORMSIM_DCHECK(!pkt.terminated());
  // (1) Stop the source mid-message: the un-sent tail never enters.
  const auto src = static_cast<NodeId>(pkt.src);
  std::uint32_t sent = pkt.length;
  if (node_tx_packet_[src] == pid) {
    sent = node_tx_sent_[src];
    node_tx_packet_[src] = kNoPacket;
    node_tx_sent_[src] = 0;
    --transmitting_nodes_;
    deactivate_channel(network_.injection_channel(src));
    if (!node_queue_[src].empty()) mark_tx_pending(src);
  }
  // (2) Release the allocation chain.  Collect first: releasing mutates
  // the alloc_owner_ links chain_worm() walks.
  std::vector<LaneId> held;
  const auto lanes = static_cast<LaneId>(buf_packet_.size());
  for (LaneId u = 0; u < lanes; ++u) {
    if (route_out_[u] != kInvalidId && chain_worm(u) == pid) {
      held.push_back(u);
    }
  }
  for (const LaneId u : held) {
    const LaneId out = route_out_[u];
    route_out_[u] = kInvalidId;
    alloc_owner_[out] = kInvalidId;
    deactivate_channel(lane_channel_[out]);
    if (wtrace_ != nullptr) wtrace_->on_lane_released(out);
  }
  // (3) Discard the worm's buffered flits everywhere it has any.
  std::uint32_t truncated = 0;
  for (LaneId lane = 0; lane < lanes; ++lane) {
    truncated += fc_remove_packet(lane, pid);
  }
  // (4) Account: delivered + terminated is the generalized conservation
  // the validator reconciles (flits ejected before the kill stay
  // delivered; sent - truncated of them were).
  pkt.terminate_cycle = cycle_;
  pkt.flits_sent_at_kill = sent;
  pkt.flits_truncated = truncated;
  ++result_.terminated_messages;
  result_.terminated_flits += truncated;
  --worms_in_flight_;
  // Termination is progress: state changed, nothing is stuck.
  last_move_cycle_ = cycle_;
  trace(TraceEvent::Kind::kTerminated, pid, sent, topology::kInvalidId);
  if (wtrace_ != nullptr) wtrace_->on_terminated(pid, cycle_);
}

void Engine::apply_fault_plan() {
  fault_state_.applied = true;
  fault_any_ = true;
  if (monitor_ != nullptr) {
    monitor_->on_fault(cycle_, "kill", fault_state_.plan.channels.size());
  }
  const std::vector<ChannelId>& channels = fault_state_.plan.channels;
  for (const ChannelId ch : channels) channel_faulty_.set(ch);
  // Victims: every worm resident in, streaming through, or allocated
  // onto a dead lane (a dead channel takes its input buffers with it).
  // Worms whose only *future* paths died are caught by the next
  // route_and_allocate instead.
  std::vector<PacketId> victims;
  for (const ChannelId ch : channels) {
    const LaneId first = ch_first_lane_[ch];
    for (unsigned v = 0; v < ch_num_lanes_[ch]; ++v) {
      const LaneId lane = first + v;
      if (fc_.count[lane] > 0) {
        victims.push_back(buf_packet_[lane]);
        const std::size_t base = fc_.ext_base(lane);
        for (std::uint32_t s = 0; s + 1 < fc_.count[lane]; ++s) {
          victims.push_back(fc_.ext_packet[base + s]);
        }
      }
      if (route_out_[lane] != kInvalidId) {
        victims.push_back(chain_worm(lane));
      }
      if (alloc_owner_[lane] != kInvalidId) {
        victims.push_back(chain_worm(alloc_owner_[lane]));
      }
    }
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  for (const PacketId pid : victims) {
    if (pid == kNoPacket) continue;
    if (!packets_[pid].terminated()) terminate_worm(pid);
  }
}

void Engine::repair_fault_plan() {
  fault_state_.repaired = true;
  if (monitor_ != nullptr) {
    monitor_->on_fault(cycle_, "repair", fault_state_.plan.channels.size());
  }
  for (const ChannelId ch : fault_state_.plan.channels) {
    channel_faulty_.clear(ch);
  }
  // Blocked headers re-arbitrate every cycle and new grants re-seed the
  // repaired channels, so no explicit wake-up is needed.
}

int Engine::decide_channel(ChannelId ch_id) {
  if (channel_used_epoch_[ch_id] == epoch_ || channel_faulty_.test(ch_id)) {
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
      if (buf_packet_[u] == kNoPacket || arrived_epoch_[u] == epoch_) {
        continue;
      }
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
  channel_used_epoch_[ch_id] = epoch_;
  if (util_window_) {
    ++result_.channel_busy_cycles[ch_id];
  }
  if (tel_window_ != nullptr) {
    ++tel_window_->lane_flits[lane];
  }
  last_move_cycle_ = cycle_;
}

void Engine::move_from_node(NodeId node_id, LaneId lane) {
  const PacketId tx = node_tx_packet_[node_id];
  const std::uint32_t sent = node_tx_sent_[node_id];
  PacketState& pkt = packets_[tx];
  const bool was_head = fc_push(lane, tx, sent);
  // The arrived flit can cross its (already routed) next hop next cycle.
  // A flit landing behind the head changes nothing about readiness.
  if (was_head && route_out_[lane] != kInvalidId) {
    schedule_channel(lane_channel_[route_out_[lane]]);
  }
  if (sent == 0) {
    pkt.inject_cycle = cycle_;
    ++worms_in_flight_;
    if (wtrace_ != nullptr) wtrace_->on_injected(tx, cycle_);
    // A header behind an earlier worm's flits becomes routable only when
    // it reaches the head slot (the tail-pop in fc_pop promotes it).
    if (was_head) {
      add_header_lane(lane);  // injection channels end at switches
      if (wtrace_ != nullptr) {
        wtrace_->on_header_arrival(tx, lane, cycle_);
      }
    }
  }
  trace(TraceEvent::Kind::kFlitMoved, tx, sent, lane);
  node_tx_sent_[node_id] = sent + 1;
  if (sent + 1 == pkt.length) {
    node_tx_packet_[node_id] = kNoPacket;
    node_tx_sent_[node_id] = 0;
    --transmitting_nodes_;
    deactivate_channel(lane_channel_[lane]);
    if (!node_queue_[node_id].empty()) mark_tx_pending(node_id);
  }
}

void Engine::move_from_switch(LaneId in_lane, LaneId out_lane) {
  const PacketId pkt_id = buf_packet_[in_lane];
  const std::uint32_t seq = buf_seq_[in_lane];
  const PacketState& pkt = packets_[pkt_id];
  const bool tail = seq + 1 == pkt.length;
  const ChannelId out_ch = lane_channel_[out_lane];

  fc_pop(in_lane);
  // The channel feeding in_lane's buffer may now transmit its next flit;
  // the worklist re-tries it at the scan position this move sits at.
  unblocked_ = lane_channel_[in_lane];
  trace(TraceEvent::Kind::kFlitMoved, pkt_id, seq, out_lane);
  if (!ch_dst_is_switch_.test(out_ch)) {
    deliver_flit(pkt_id, seq);
  } else {
    const bool was_head = fc_push(out_lane, pkt_id, seq);
    if (was_head && seq == 0) {
      add_header_lane(out_lane);
      if (wtrace_ != nullptr) {
        wtrace_->on_header_arrival(pkt_id, out_lane, cycle_);
      }
    }
    // The arrived flit can cross its (already routed) next hop next cycle.
    if (was_head && route_out_[out_lane] != kInvalidId) {
      schedule_channel(lane_channel_[route_out_[out_lane]]);
    }
  }
  if (tail) {
    // The worm's tail has crossed this hop: release both the input unit's
    // route and the output lane for the next worm.
    route_out_[in_lane] = kInvalidId;
    alloc_owner_[out_lane] = kInvalidId;
    deactivate_channel(out_ch);
    if (wtrace_ != nullptr) wtrace_->on_lane_released(out_lane);
    // A deeper FIFO can already hold the next worm's header; it becomes
    // routable the moment the previous tail clears the head slot.
    if (fc_.count[in_lane] > 0 && buf_seq_[in_lane] == 0) {
      add_header_lane(in_lane);
      if (wtrace_ != nullptr) {
        wtrace_->on_header_arrival(buf_packet_[in_lane], in_lane, cycle_);
      }
    }
  }
}

bool Engine::fc_push(LaneId lane, PacketId pkt, std::uint32_t seq) {
  const bool was_head = fc_.count[lane] == 0;
  if (was_head) {
    buf_packet_[lane] = pkt;
    buf_seq_[lane] = seq;
    arrived_epoch_[lane] = epoch_;
  } else {
    const std::size_t slot = fc_.ext_base(lane) + (fc_.count[lane] - 1);
    fc_.ext_packet[slot] = pkt;
    fc_.ext_seq[slot] = seq;
    fc_.ext_epoch[slot] = epoch_;
  }
  ++fc_.count[lane];
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
  return was_head;
}

void Engine::fc_pop(LaneId lane) {
  --fc_.count[lane];
  --occupied_;
  const std::uint32_t remaining = fc_.count[lane];
  if (remaining > 0) {
    // Promote the next slot to the head, oldest first.  Its recorded
    // arrival epoch rides along, so a flit pushed this very cycle still
    // waits a cycle before crossing the next channel.
    const std::size_t base = fc_.ext_base(lane);
    buf_packet_[lane] = fc_.ext_packet[base];
    buf_seq_[lane] = fc_.ext_seq[base];
    arrived_epoch_[lane] = fc_.ext_epoch[base];
    for (std::uint32_t s = 0; s + 1 < remaining; ++s) {
      fc_.ext_packet[base + s] = fc_.ext_packet[base + s + 1];
      fc_.ext_seq[base + s] = fc_.ext_seq[base + s + 1];
      fc_.ext_epoch[base + s] = fc_.ext_epoch[base + s + 1];
    }
    fc_.ext_packet[base + remaining - 1] = kNoPacket;
    fc_.ext_seq[base + remaining - 1] = 0;
    fc_.ext_epoch[base + remaining - 1] = 0;
  } else {
    buf_packet_[lane] = kNoPacket;
  }
  // Return the freed slot to the sender.
  if (fc_.scheme == FlowControlScheme::kOnOff) {
    if (fc_.count[lane] == fc_.on_threshold) {
      fc_deliver_or_queue(lane, /*go=*/true);
    }
  } else if (fc_.delay == 0) {
    // Instant credit return: the sender sees the free slot this cycle —
    // at depth 1 exactly the legacy "downstream buffer is empty" check.
    ++fc_.credits[lane];
    fc_close_starve(lane);
  } else {
    fc_.events.push_back({cycle_ + fc_.delay, lane, /*go=*/false});
  }
  if (fc_.scheme != FlowControlScheme::kCredit || fc_.delay > 0) {
    // The freed slot may leave the sender gated with space downstream
    // (credit in flight, or an on/off pause): starvation begins now, and
    // no try_channel attempt will observe it — the sender is not seeded
    // until the gate lifts.
    if (!fc_.can_accept(lane) && upstream_has_flit(lane)) {
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
      // (the drain runs before the phases).  Source-less channels have
      // nothing to send; skipping them keeps the seed set exact.
      const ChannelId ch = lane_channel_[ev.lane];
      if (channel_sources_[ch] != 0) schedule_channel(ch);
    }
  }
}

void Engine::fc_close_starve(LaneId lane) {
  if (fc_.starve_since[lane] == kNoCycle) return;
  const std::uint64_t cycles = cycle_ - fc_.starve_since[lane];
  fc_.starve_since[lane] = kNoCycle;
  if (cycles == 0) return;
  if (tel_window_ != nullptr) {
    tel_window_->lane_credit_starved[lane] += cycles;
  }
  if (wtrace_ != nullptr) {
    // Blame the worm whose flit sat waiting for the gate to lift: the
    // transmitting node's packet on an injection lane, the upstream
    // FIFO's head worm otherwise.
    const std::uint32_t src_node = ch_src_node_[lane_channel_[lane]];
    PacketId worm = kNoPacket;
    if (src_node != kInvalidId) {
      worm = node_tx_packet_[src_node];
    } else if (alloc_owner_[lane] != kInvalidId) {
      worm = buf_packet_[alloc_owner_[lane]];
    }
    wtrace_->on_credit_starved(worm, lane, cycles);
  }
}

bool Engine::upstream_has_flit(LaneId lane) const {
  const std::uint32_t src_node = ch_src_node_[lane_channel_[lane]];
  if (src_node != kInvalidId) {
    return node_tx_packet_[src_node] != kNoPacket;
  }
  const LaneId owner = alloc_owner_[lane];
  return owner != kInvalidId && buf_packet_[owner] != kNoPacket;
}

void Engine::deliver_flit(PacketId pkt_id, std::uint32_t seq) {
  PacketState& pkt = packets_[pkt_id];
  WORMSIM_DCHECK(network_
                     .channel(network_.ejection_channel(
                         static_cast<NodeId>(pkt.dst)))
                     .dst.id == pkt.dst);
  if (in_measure_window()) {
    ++result_.delivered_flits_in_window;
  }
  ++delivered_flits_total_;
  if (seq + 1 == pkt.length) {
    pkt.deliver_cycle = cycle_;
    --worms_in_flight_;
    trace(TraceEvent::Kind::kDelivered, pkt_id, seq, topology::kInvalidId);
    if (wtrace_ != nullptr) wtrace_->on_delivered(pkt_id, cycle_);
    ++result_.delivered_messages_total;
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
  }
}

void Engine::advance_flits() {
  // Epoch-stamped channel_used_/arrived_ replace the two per-cycle
  // std::fill passes: bumping the epoch invalidates every stamp at once.
  ++epoch_;

  // Consume the event frontier: every channel scheduled since the previous
  // advance — by a grant, a transmission start, a flit arrival onto a
  // routed lane, or its own move last cycle.  This is a superset of the
  // channels that can move at pass one (see DESIGN.md for the induction),
  // and the ascending bit scan visits them exactly like pass one of the
  // original full scan.
  cur_pass_.swap(seed_bits_);

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
    unblocked_ = kInvalidId;
    if (!try_channel(ch)) return;
    // A multi-lane channel may still hold another ready lane, and a
    // streaming channel wants its next flit: a mover is always a
    // candidate again next cycle.
    schedule_channel(ch);
    const ChannelId u = unblocked_;
    if (u == kInvalidId || channel_sources_[u] == 0 ||
        channel_used_epoch_[u] == epoch_) {
      // Nothing upstream, or it already transmitted this cycle (in
      // which case its own move rescheduled it for the next one).
      return;
    }
    if (u > ch) {
      cur_pass_.set(u);  // the ascending scan has not reached u yet
    } else {
      next_pass_.set(u);
    }
  });
  cur_pass_.swap(next_pass_);
}

void Engine::record_sample() {
  telemetry::Sample sample;
  sample.cycle = cycle_;
  sample.delivered_flits = delivered_flits_total_;
  sample.flits_in_flight = occupied_;
  sample.worms_in_flight = worms_in_flight_;
  sample.mean_queue_depth = static_cast<double>(queued_messages_) /
                            static_cast<double>(node_queue_.size());
  sampler_.record(sample);
}

void Engine::step() {
  using telemetry::EnginePhase;
  const bool measuring = in_measure_window();
  tel_window_ = measuring ? tel_ : nullptr;
  util_window_ = measuring && config_.record_channel_utilization;
  if (prof_ != nullptr) prof_->mark();
  if (!fc_.events.empty()) drain_flow_control_events();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kFlowControl);
  if (fault_state_.kill_due(cycle_)) apply_fault_plan();
  if (fault_state_.repair_due(cycle_)) repair_fault_plan();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kFault);
  generate_arrivals();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kArrivals);
  start_transmissions();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kStartTx);
  route_and_allocate();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kRouting);
  advance_flits();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kAdvance);

  if (config_.telemetry.sampling &&
      cycle_ % config_.telemetry.sample_interval_cycles == 0) {
    record_sample();
  }
  // Heartbeat cadence: `cycle_ + 1` cycles are complete once this step
  // ends, so window boundaries land on exact multiples of the interval.
  if (monitor_ != nullptr && (cycle_ + 1) % hb_interval_ == 0) {
    monitor_->on_heartbeat(heartbeat_snapshot(cycle_ + 1));
  }
  if (prof_ != nullptr) prof_->lap(EnginePhase::kTelemetry);

  if (validator_ != nullptr) validator_->on_cycle_end();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kValidate);

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
  snap.messages_created = packets_.size();
  snap.messages_delivered = result_.delivered_messages_total;
  snap.messages_terminated = result_.terminated_messages;
  snap.flits_delivered = delivered_flits_total_;
  snap.flits_terminated = result_.terminated_flits;
  snap.flits_in_flight = occupied_;
  snap.worms_in_flight = worms_in_flight_;
  snap.queued_messages = queued_messages_;
  snap.dropped_messages = result_.dropped_messages;
  snap.faulty_channels = channel_faulty_.count();
  snap.stage_occupancy.reserve(hb_stage_intervals_.size());
  for (const auto& intervals : hb_stage_intervals_) {
    std::uint64_t flits = 0;
    for (const auto& [begin, end] : intervals) {
      for (LaneId lane = begin; lane < end; ++lane) flits += fc_.count[lane];
    }
    snap.stage_occupancy.push_back(flits);
  }
  return snap;
}

void Engine::report_deadlock() const {
  std::fprintf(stderr,
               "wormsim: deadlock watchdog fired at cycle %llu "
               "(%lld flits stuck)\n",
               static_cast<unsigned long long>(cycle_),
               static_cast<long long>(occupied_));
  std::size_t sourced = 0;
  for (std::uint32_t n : channel_sources_) sourced += n != 0 ? 1 : 0;
  std::fprintf(stderr,
               "  active sets: %zu channels with sources, %zu seeded for "
               "next cycle, %zu unrouted headers, %zu tx-pending nodes, "
               "%zu calendar entries\n",
               sourced, seed_bits_.count(), header_count_,
               tx_pending_.size(), arrival_calendar_.size());
  for (LaneId lane = 0; lane < buf_packet_.size(); ++lane) {
    if (buf_packet_[lane] == kNoPacket) continue;
    const PacketState& pkt = packets_[buf_packet_[lane]];
    const PhysChannel ch = network_.lane_channel(lane);
    std::fprintf(stderr,
                 "  lane %u (channel %u role %d) holds packet %u seq %u "
                 "(src %llu dst %llu len %u)\n",
                 lane, ch.id, static_cast<int>(ch.role), buf_packet_[lane],
                 buf_seq_[lane], static_cast<unsigned long long>(pkt.src),
                 static_cast<unsigned long long>(pkt.dst), pkt.length);
    for (std::uint32_t s = 0; s + 1 < fc_.count[lane]; ++s) {
      const std::size_t slot = fc_.ext_base(lane) + s;
      std::fprintf(stderr, "    fifo slot %u holds packet %u seq %u\n",
                   s + 1, fc_.ext_packet[slot], fc_.ext_seq[slot]);
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
  const std::uint64_t measure_end =
      config_.warmup_cycles + config_.measure_cycles;
  const auto run_start = std::chrono::steady_clock::now();
  while (cycle_ < total) {
    step();
  }
  if (prof_ != nullptr) {
    profiler_->set_total_seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count());
  }
  // Time-to-drain SLO: cycles past the measurement window until every
  // message created before it ended was resolved (delivered or
  // fault-terminated).  Sources keep offering traffic through the drain
  // phase, so "network momentarily empty" would never fire at real
  // loads; resolving the pre-drain population is the degraded-mode
  // question — a fault that strands traffic shows up as a failed drain.
  std::uint64_t last_resolved = 0;
  bool all_resolved = true;
  for (const PacketState& pkt : packets_) {
    if (pkt.measured && !pkt.delivered()) {
      ++result_.measured_messages_unfinished;
    }
    if (pkt.create_cycle >= measure_end) continue;
    if (pkt.delivered()) {
      last_resolved = std::max(last_resolved, pkt.deliver_cycle);
    } else if (pkt.terminated()) {
      last_resolved = std::max(last_resolved, pkt.terminate_cycle);
    } else {
      // Still queued at a source (or dropped at creation): the pre-drain
      // population never resolved inside the drain budget.
      all_resolved = false;
    }
  }
  result_.drained = all_resolved;
  result_.time_to_drain_cycles =
      all_resolved
          ? (last_resolved > measure_end ? last_resolved - measure_end : 0)
          : config_.drain_cycles;
  result_.telemetry_samples = sampler_.ordered();
  if (monitor_ != nullptr) {
    monitor_->finalize(heartbeat_snapshot(cycle_), result_.drained,
                       static_cast<double>(result_.time_to_drain_cycles) /
                           config_.flits_per_microsecond);
    result_.saturation_onset_cycle = monitor_->saturation_onset_cycle();
    result_.fault_onset_cycle = monitor_->fault_onset_cycle();
  }
  if (prof_ != nullptr) result_.phase_profile = profiler_->profile();
  if (validator_ != nullptr) validator_->check_final(result_);
  return result_;
}

}  // namespace wormsim::sim
