#include "experiment/sweep.hpp"

#include <cstdio>
#include <string>
#include <utility>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "topology/net_view.hpp"
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

ResolvedPoint resolve_point(const SeriesSpec& spec, double load,
                            const sim::SimConfig& base) {
  sim::SimConfig sim = base;
  if (spec.tweak_sim) spec.tweak_sim(sim);
  if (sim.telemetry.heartbeat_cycles > 0 &&
      sim.telemetry.heartbeat_tag.empty()) {
    sim.telemetry.heartbeat_tag = heartbeat_tag_for(spec.label, load);
  }
  topology::OwnedNetView net =
      topology::build_net_view(spec.net, sim.implicit_topology);
  traffic::WorkloadSpec workload = spec.workload(net.view, load);
  WORMSIM_CHECK_MSG(workload.offered == load,
                    "workload factory must honor the requested load");
  return {spec.switching, std::move(sim), std::move(net),
          std::move(workload)};
}

SweepPoint run_point(const ResolvedPoint& resolved,
                     sim::SimResult* full_result) {
  const topology::NetView& network = resolved.net.view;
  const sim::SimConfig& sim_config = resolved.sim;
  const auto router = routing::make_router(network);
  traffic::StandardTraffic traffic(network, resolved.workload);
  sim::SimResult result;
  if (resolved.switching == SeriesSpec::Switching::kStoreForward) {
    sim::StoreForwardEngine engine(network, *router, &traffic, sim_config);
    result = engine.run();
  } else {
    sim::Engine engine(network, *router, &traffic, sim_config);
    result = engine.run();
  }

  SweepPoint point;
  point.offered_requested = resolved.workload.offered;
  point.offered_measured = result.offered_fraction();
  point.throughput = result.throughput_fraction();
  point.latency_us = result.mean_latency_us();
  point.latency_p95_us = result.latency_quantile_us(0.95);
  point.latency_p99_us = result.latency_quantile_us(0.99);
  point.network_latency_us = result.mean_network_latency_us();
  point.queueing_us =
      result.queueing_cycles.mean() / topology::kFlitsPerMicrosecond;
  point.sustainable = result.sustainable(sim_config.sustainable_queue_limit);
  point.max_source_queue = result.max_source_queue;
  point.delivered_messages = result.delivered_messages_total;
  point.delivery_fraction = result.delivery_fraction();
  point.terminated_messages = result.terminated_messages;
  point.time_to_drain_us = static_cast<double>(result.time_to_drain_cycles) /
                           topology::kFlitsPerMicrosecond;
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
    const SweepPoint point = run_point(resolve_point(spec, load, options.sim));
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
