// Low-overhead event counters accumulated by the simulation engine.
//
// Plain uint64 arrays indexed by lane id / switch id: the engine's hot
// loop does nothing but `++counters.lane_flits[lane]`, and all aggregation
// (per-channel sums, per-stage heatmaps) happens post-run.  All counts
// cover the measurement window only, matching SimResult's window metrics
// so totals reconcile exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/net_view.hpp"
#include "topology/network.hpp"

namespace wormsim::telemetry {

struct Counters {
  /// Flit crossings per lane (a lane transmits at most one flit/cycle).
  std::vector<std::uint64_t> lane_flits;
  /// Cycles a routed-but-blocked header spent waiting in each switch
  /// input lane's buffer (no free candidate output lane that cycle).
  std::vector<std::uint64_t> lane_blocked;
  /// Arbitration outcomes per switch: headers granted an output lane vs
  /// headers denied (all candidates busy or faulty) this cycle.
  std::vector<std::uint64_t> switch_grants;
  std::vector<std::uint64_t> switch_denials;
  /// Cycles a sender sat gated by flow control while the lane's FIFO had
  /// space (credits in flight / on-off pause) — credit starvation, as
  /// opposed to lane_blocked's arbitration contention.  Attributed when
  /// the starvation interval closes; always zero in the legacy
  /// single-flit / instant-credit configuration.
  std::vector<std::uint64_t> lane_credit_starved;
  /// Flits discarded from each lane's FIFO by a runtime fault kill
  /// (DESIGN.md §14) — attribution distinct from contention
  /// (lane_blocked) and credit starvation; always zero without faults.
  std::vector<std::uint64_t> lane_fault_terminated;

  bool enabled() const { return !lane_flits.empty(); }

  void resize_for(std::size_t lane_count, std::size_t switch_count) {
    lane_flits.assign(lane_count, 0);
    lane_blocked.assign(lane_count, 0);
    switch_grants.assign(switch_count, 0);
    switch_denials.assign(switch_count, 0);
    lane_credit_starved.assign(lane_count, 0);
    lane_fault_terminated.assign(lane_count, 0);
  }

  std::uint64_t total_flit_crossings() const;
  std::uint64_t total_blocked_cycles() const;
  std::uint64_t total_grants() const;
  std::uint64_t total_denials() const;
  std::uint64_t total_credit_starved_cycles() const;
  std::uint64_t total_fault_terminated_flits() const;

  /// Flit crossings of one physical channel (sum over its lanes).
  std::uint64_t channel_flits(const topology::NetView& network,
                              topology::ChannelId channel) const;
};

}  // namespace wormsim::telemetry
