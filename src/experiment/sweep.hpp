// Offered-load sweeps: the x-axis machinery behind every figure.
//
// The paper's evaluation plots average communication latency against
// accepted (sustainable) network throughput while the offered load rises.
// A Sweep runs one (network, workload) combination at a list of offered
// loads and records one SweepPoint per load.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "topology/net_view.hpp"
#include "traffic/workload.hpp"

namespace wormsim::experiment {

struct SweepPoint {
  double offered_requested = 0.0;  ///< configured load fraction
  double offered_measured = 0.0;   ///< generated flits / capacity
  double throughput = 0.0;         ///< delivered flits / capacity
  double latency_us = 0.0;         ///< mean end-to-end latency
  /// 95th-percentile end-to-end latency; +infinity when the p95 falls in
  /// the latency histogram's overflow bin (saturation), serialized as a
  /// `latency_p95_overflow` flag in the results JSON.
  double latency_p95_us = 0.0;
  /// 99th-percentile end-to-end latency; same overflow convention as p95
  /// (`latency_p99_overflow` flag in the results JSON).
  double latency_p99_us = 0.0;
  double network_latency_us = 0.0; ///< mean in-network latency
  double queueing_us = 0.0;        ///< mean source-queue wait
  bool sustainable = false;
  std::uint64_t max_source_queue = 0;
  std::uint64_t delivered_messages = 0;
  // Degraded-mode SLOs (DESIGN.md §14).  Fault-free runs report
  // delivery_fraction == 1.0 and terminated_messages == 0; these fields
  // never enter the golden digests.
  double delivery_fraction = 1.0;  ///< delivered / (delivered+terminated)
  std::uint64_t terminated_messages = 0;
  /// Microseconds from measurement end until the network fully drained
  /// (== the configured drain budget when it never emptied).
  double time_to_drain_us = 0.0;
  /// Onset detector verdicts (DESIGN.md §15): first heartbeat-window
  /// boundary where acceptance stopped tracking injection while source
  /// queues grew / where fault terminations first appeared.
  /// telemetry::kNoOnset when never detected or heartbeats were off; the
  /// results JSON emits the fields only when detected.
  std::uint64_t saturation_onset_cycle = telemetry::kNoOnset;
  std::uint64_t fault_onset_cycle = telemetry::kNoOnset;
};

struct Series {
  std::string label;
  std::vector<SweepPoint> points;
  /// Static connectivity of the series' runtime fault plan: the
  /// analysis::fault_coverage fraction computed from the exact channel
  /// set the engines kill (run_figure fills it for series whose effective
  /// config has fault_fraction > 0; -1 for fault-free series).  The
  /// degraded-SLO tables print it beside the runtime delivery fraction —
  /// at low load on a unique-path network the two must converge.
  double static_coverage = -1.0;
};

/// One curve of a figure: a network plus a workload generator.  The
/// workload factory receives a view of the built network (clusterings
/// need its address space) and the offered load for the point being run.
struct SeriesSpec {
  std::string label;
  topology::NetworkConfig net;
  std::function<traffic::WorkloadSpec(const topology::NetView&, double load)>
      workload;
  /// Switching technique: wormhole (the paper's subject) or the
  /// store-and-forward reference engine (Section 1's comparison).
  enum class Switching { kWormhole, kStoreForward };
  Switching switching = Switching::kWormhole;

  /// Optional per-series simulator-config override (e.g. arbitration
  /// policy ablations, or enabling SimConfig::telemetry for one series).
  /// Ordering contract: resolve_point copies the sweep's base config
  /// FIRST and applies this tweak LAST, so nothing a tweak sets can be
  /// clobbered by SweepOptions::sim (regression-tested in
  /// telemetry_test.cpp).
  std::function<void(sim::SimConfig&)> tweak_sim = {};
};

/// One (series, load) point as the engine sees it: everything run_point
/// simulates and ResultCache::fingerprint keys, composed once by
/// resolve_point.
struct ResolvedPoint {
  SeriesSpec::Switching switching = SeriesSpec::Switching::kWormhole;
  /// The effective config: the sweep's base, then the series' tweak_sim,
  /// then a heartbeat tag derived from the series label and the load.
  sim::SimConfig sim;
  /// The network, built by topology::build_net_view's backend rule.
  topology::OwnedNetView net;
  /// The series' workload for `net` at the point's load (`offered`).
  traffic::WorkloadSpec workload;
};

/// Composes one point: base config first, `spec.tweak_sim` last; when
/// heartbeats are on and the config pins no tag, a per-point tag, so
/// concurrent pool workers never share a stream; the network by the
/// backend rule; the workload for that network.  Aborts when the
/// workload factory does not honor `load`.  The only code that applies a
/// tweak_sim or builds a sweep point's network.
ResolvedPoint resolve_point(const SeriesSpec& spec, double load,
                            const sim::SimConfig& base);

struct SweepOptions {
  std::vector<double> loads;
  sim::SimConfig sim;
  /// Stop a series after this many consecutive unsustainable points (the
  /// curve has hit its plateau; more points only burn time).  0 disables.
  /// This makes later points conditional on earlier verdicts; the
  /// point-granular pool (experiment/scheduler.hpp) speculates past the
  /// unknown stop index and discards, so its output stays bitwise equal
  /// to the sequential loop in run_series.
  unsigned stop_after_unsustainable = 2;
};

/// Simulates a resolved point.  When `full_result` is non-null the
/// complete SimResult — including telemetry counters and samples when
/// the point's config enables them — is copied out alongside the summary
/// point.
SweepPoint run_point(const ResolvedPoint& point,
                     sim::SimResult* full_result = nullptr);

Series run_series(const SeriesSpec& spec, const SweepOptions& options);

}  // namespace wormsim::experiment
