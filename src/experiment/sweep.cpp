#include "experiment/sweep.hpp"

#include <cstdio>
#include <memory>
#include <string>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "topology/implicit.hpp"
#include "util/check.hpp"

namespace wormsim::experiment {

namespace {

/// Filesystem-safe stream tag for one (series, load) point:
/// non-alphanumerics collapse to '_' and the load's decimal point
/// becomes 'p' ("VMIN l=2", 0.52 -> "VMIN_l_2_load0p52").
std::string heartbeat_tag_for(const std::string& label, double load) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", load);
  std::string tag = label + "_load" + buffer;
  for (char& c : tag) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    if (c == '.') {
      c = 'p';
    } else if (!keep) {
      c = '_';
    }
  }
  return tag;
}

}  // namespace

SweepPoint run_point(const SeriesSpec& spec, double load,
                     const sim::SimConfig& base_sim_config,
                     sim::SimResult* full_result) {
  // Base config first, per-series tweak last: a tweak_sim that enables
  // telemetry (or changes the seed, arbitration, ...) must win over
  // whatever SweepOptions::sim carries.
  sim::SimConfig sim_config = base_sim_config;
  if (spec.tweak_sim) spec.tweak_sim(sim_config);
  // Every point of a sweep streams into its own heartbeat file: derive a
  // per-point tag unless the caller pinned one (standalone runs).  The
  // env overrides are folded in here so WORMSIM_HEARTBEAT alone cannot
  // make concurrent pool workers collide on one "run" tag.
  if (telemetry::heartbeat_cycles_from_env(sim_config.telemetry) > 0 &&
      sim_config.telemetry.heartbeat_tag.empty()) {
    sim_config.telemetry.heartbeat_tag = heartbeat_tag_for(spec.label, load);
  }
  // Backend selection: the implicit backend computes topology records on
  // the fly (O(stages) state) and is bitwise identical to the
  // materialized graph; networks it cannot express (random
  // multibutterfly wiring) fall back to materializing.
  const bool implicit = sim_config.implicit_topology &&
                        topology::ImplicitTopology::supports(spec.net);
  std::unique_ptr<const topology::Network> materialized;
  topology::ImplicitTopologyPtr implicit_topo;
  if (implicit) {
    implicit_topo = std::make_shared<const topology::ImplicitTopology>(
        spec.net);
  } else {
    materialized =
        std::make_unique<const topology::Network>(
            topology::build_network(spec.net));
  }
  const topology::NetView network =
      implicit ? topology::NetView(implicit_topo)
               : topology::NetView(*materialized);
  const auto router = routing::make_router(network);
  traffic::WorkloadSpec workload = spec.workload(network, load);
  WORMSIM_CHECK_MSG(workload.offered == load,
                    "workload factory must honor the requested load");
  traffic::StandardTraffic traffic(network, std::move(workload));
  sim::SimResult result;
  if (spec.switching == SeriesSpec::Switching::kStoreForward) {
    sim::StoreForwardConfig sf_config;
    sf_config.seed = sim_config.seed;
    sf_config.warmup_cycles = sim_config.warmup_cycles;
    sf_config.measure_cycles = sim_config.measure_cycles;
    sf_config.drain_cycles = sim_config.drain_cycles;
    sf_config.sustainable_queue_limit = sim_config.sustainable_queue_limit;
    sf_config.queue_capacity = sim_config.queue_capacity;
    // SimConfig::buffer_depth is flits per wormhole lane; the
    // store-and-forward reference interprets the same knob as whole
    // packets per switch buffer (DESIGN.md "Flow control").
    sf_config.buffer_packets = sim_config.buffer_depth;
    sf_config.flits_per_microsecond = sim_config.flits_per_microsecond;
    sf_config.telemetry = sim_config.telemetry;
    // Runtime fault injection maps one-to-one (packet-granular kill
    // semantics on the SF side, DESIGN.md §14).
    sf_config.fault_fraction = sim_config.fault_fraction;
    sf_config.fault_seed = sim_config.fault_seed;
    sf_config.fault_at_cycle = sim_config.fault_at_cycle;
    sf_config.fault_repair_cycle = sim_config.fault_repair_cycle;
    sim::StoreForwardEngine engine(network, *router, &traffic, sf_config);
    result = engine.run();
  } else {
    sim::Engine engine(network, *router, &traffic, sim_config);
    result = engine.run();
  }

  SweepPoint point;
  point.offered_requested = load;
  point.offered_measured = result.offered_fraction();
  point.throughput = result.throughput_fraction();
  point.latency_us = result.mean_latency_us();
  point.latency_p95_us = result.latency_quantile_us(0.95);
  point.latency_p99_us = result.latency_quantile_us(0.99);
  point.network_latency_us = result.mean_network_latency_us();
  point.queueing_us =
      result.queueing_cycles.mean() / result.flits_per_microsecond;
  point.sustainable = result.sustainable(sim_config.sustainable_queue_limit);
  point.max_source_queue = result.max_source_queue;
  point.delivered_messages = result.delivered_messages_total;
  point.delivery_fraction = result.delivery_fraction();
  point.terminated_messages = result.terminated_messages;
  point.time_to_drain_us = static_cast<double>(result.time_to_drain_cycles) /
                           result.flits_per_microsecond;
  point.saturation_onset_cycle = result.saturation_onset_cycle;
  point.fault_onset_cycle = result.fault_onset_cycle;
  if (full_result != nullptr) *full_result = std::move(result);
  return point;
}

Series run_series(const SeriesSpec& spec, const SweepOptions& options) {
  Series series;
  series.label = spec.label;
  unsigned unsustainable_streak = 0;
  for (double load : options.loads) {
    const SweepPoint point = run_point(spec, load, options.sim);
    series.points.push_back(point);
    if (!point.sustainable) {
      ++unsustainable_streak;
      if (options.stop_after_unsustainable != 0 &&
          unsustainable_streak >= options.stop_after_unsustainable) {
        break;
      }
    } else {
      unsustainable_streak = 0;
    }
  }
  return series;
}

}  // namespace wormsim::experiment
