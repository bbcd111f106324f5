// Per-worm lifecycle tracing tests (telemetry/worm_trace.hpp).
//
// The load-bearing property is *reconciliation*: for every delivered worm
// the four components (queue + routing + blocked + streaming) must sum
// exactly — in integer cycles, no tolerance — to the end-to-end latency,
// and the blocked/routing total must independently equal the per-stage
// header residency (grant - arrive summed over stages).  Blocked and
// routing come from the per-cycle arbitration hooks while streaming is
// derived from stage timestamps, so the two instrumentation paths check
// each other: a missed denial or a double-counted grant breaks the sum.
//
// Attribution is pinned with hand-built contention scenarios on an 8-node
// TMIN where destination-tag routing makes the blocking pattern exact:
// who blocks whom, on which lane, and at what chain depth.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/figures.hpp"
#include "experiment/sweep.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "telemetry/json.hpp"
#include "telemetry/worm_trace.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim {
namespace {

using sim::Engine;
using sim::SimConfig;
using sim::SimResult;
using telemetry::BlockedInterval;
using telemetry::kNoWorm;
using telemetry::StageSpan;
using telemetry::WormRecord;
using telemetry::WormTracer;

// Components must sum to the end-to-end latency exactly, and the
// hook-counted blocked+routing must equal the timestamp-derived header
// wait.  Returns the number of blocked intervals checked.
std::size_t expect_reconciled(const WormRecord& r) {
  EXPECT_TRUE(r.delivered());
  EXPECT_TRUE(r.injected());
  EXPECT_EQ(r.queue_cycles + r.routing_cycles + r.blocked_cycles +
                r.streaming_cycles,
            r.total_cycles())
      << "worm " << r.id << " components do not sum to its latency";
  EXPECT_EQ(r.queue_cycles, r.inject_cycle - r.create_cycle);

  std::uint64_t interval_cycles = 0;
  for (const BlockedInterval& interval : r.blocked) {
    EXPECT_LE(interval.first_cycle, interval.last_cycle);
    EXPECT_GE(interval.chain_depth, 1u);
    EXPECT_LE(interval.chain_depth, WormTracer::kMaxChainDepth);
    interval_cycles += interval.cycles();
  }
  EXPECT_EQ(interval_cycles, r.blocked_cycles);

  if (!r.stages.empty()) {  // wormhole record
    EXPECT_EQ(r.routing_cycles, r.stages.size());
    std::uint64_t header_wait = 0;
    std::uint64_t stage_blocked = 0;
    for (const StageSpan& stage : r.stages) {
      EXPECT_TRUE(stage.granted());
      EXPECT_GT(stage.grant_cycle, stage.arrive_cycle)
          << "a header is considered the cycle after it arrives";
      header_wait += stage.grant_cycle - stage.arrive_cycle;
      stage_blocked += stage.blocked_cycles;
    }
    // The cross-check: per-cycle denial counting vs stage timestamps.
    EXPECT_EQ(r.blocked_cycles + r.routing_cycles, header_wait);
    EXPECT_EQ(stage_blocked, r.blocked_cycles);
  } else {  // store-and-forward record
    EXPECT_EQ(r.routing_cycles, 0u);
    EXPECT_GE(r.hops, 2u);  // at least source link + ejection link
    EXPECT_EQ(r.streaming_cycles,
              static_cast<std::uint64_t>(r.hops) * r.length)
        << "SF transfer time must be hops x length by construction";
  }
  return r.blocked.size();
}

topology::NetworkConfig tiny_tmin() {
  // 8 nodes, radix-2 cube, one lane per channel: destination-tag routing
  // is deterministic and every channel is a single allocatable lane, so
  // contention scenarios resolve the same way every run.
  topology::NetworkConfig config;
  config.kind = topology::NetworkKind::kTMIN;
  config.topology = "cube";
  config.radix = 2;
  config.stages = 3;
  config.dilation = 1;
  config.vcs = 1;
  return config;
}

SimConfig manual_config() {
  SimConfig config;
  config.seed = 3;
  config.warmup_cycles = 0;
  config.measure_cycles = 1'000'000;  // everything counts as measured
  config.telemetry.worm_trace = true;
  return config;
}

// The lanes a lone worm from `src` acquires on its way to `dst`, probed
// with a fresh engine (deterministic: TMIN destination-tag routing).
std::vector<topology::LaneId> probe_path(const topology::Network& net,
                                         const routing::Router& router,
                                         topology::NodeId src,
                                         std::uint64_t dst) {
  Engine engine(net, router, nullptr, manual_config());
  const sim::PacketId id = engine.inject_message(src, dst, 4);
  EXPECT_TRUE(engine.run_until_idle(1'000));
  std::vector<topology::LaneId> lanes;
  for (const StageSpan& stage : engine.worm_tracer()->record(id).stages) {
    lanes.push_back(stage.out_lane);
  }
  return lanes;
}

// Sources for a three-deep blocking chain to node 7, derived from the
// network's actual wiring instead of hard-coding it: A = node 0; B shares
// *only* the ejection lane with A (so it sails through its early stages
// and blocks exactly once, at the final switch); C enters through B's
// first-stage switch and output port (same first lane), so it must block
// on the lane B still holds while B waits on A.
struct ChainSources {
  topology::NodeId a = 0;
  topology::NodeId b = topology::kInvalidId;
  topology::NodeId c = topology::kInvalidId;
};

ChainSources discover_chain_sources(const topology::Network& net,
                                    const routing::Router& router) {
  ChainSources sources;
  const std::vector<topology::LaneId> path_a =
      probe_path(net, router, sources.a, 7);
  std::vector<std::vector<topology::LaneId>> paths(net.node_count());
  for (topology::NodeId src = 1; src < net.node_count(); ++src) {
    if (src == 7) continue;
    paths[src] = probe_path(net, router, src, 7);
  }
  for (topology::NodeId src = 1;
       src < net.node_count() && sources.b == topology::kInvalidId; ++src) {
    if (src == 7 || paths[src].empty()) continue;
    bool disjoint = true;  // shares nothing with A but the ejection lane
    for (std::size_t k = 0; k + 1 < paths[src].size(); ++k) {
      for (std::size_t j = 0; j + 1 < path_a.size(); ++j) {
        if (paths[src][k] == path_a[j]) disjoint = false;
      }
    }
    if (!disjoint || paths[src].back() != path_a.back()) continue;
    sources.b = src;
  }
  EXPECT_NE(sources.b, topology::kInvalidId);
  for (topology::NodeId src = 1; src < net.node_count(); ++src) {
    if (src == 7 || src == sources.b || paths[src].empty()) continue;
    if (paths[src].front() == paths[sources.b].front()) {
      sources.c = src;
      break;
    }
  }
  EXPECT_NE(sources.c, topology::kInvalidId);
  return sources;
}

TEST(WormTrace, OffByDefault) {
  const topology::Network net = topology::build_network(tiny_tmin());
  const auto router = routing::make_router(net);
  SimConfig config;
  Engine engine(net, *router, nullptr, config);
  EXPECT_EQ(engine.worm_tracer(), nullptr);
}

TEST(WormTrace, EnvVarEnables) {
  ::setenv("WORMSIM_TRACE", "1", /*overwrite=*/1);
  const topology::Network net = topology::build_network(tiny_tmin());
  const auto router = routing::make_router(net);
  SimConfig config;  // telemetry.worm_trace left false
  Engine engine(net, *router, nullptr, config);
  EXPECT_NE(engine.worm_tracer(), nullptr);
  ::unsetenv("WORMSIM_TRACE");
}

// Two worms racing to node 7.  A is alone first, so it streams with zero
// blocked time; B then collides with A's path and every one of its denied
// cycles must be pinned on A.
TEST(WormTrace, TwoWormContentionBlamesHolder) {
  const topology::Network net = topology::build_network(tiny_tmin());
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  const sim::PacketId a = engine.inject_message(0, 7, 48);
  for (int i = 0; i < 10; ++i) engine.step();  // A holds its whole path
  const sim::PacketId b = engine.inject_message(1, 7, 16);
  ASSERT_TRUE(engine.run_until_idle(4'000));

  const WormTracer* tracer = engine.worm_tracer();
  ASSERT_NE(tracer, nullptr);
  const WormRecord& ra = tracer->record(a);
  const WormRecord& rb = tracer->record(b);
  expect_reconciled(ra);
  expect_reconciled(rb);

  // A never shared a lane with anyone.
  EXPECT_TRUE(ra.blocked.empty());
  EXPECT_EQ(ra.blocked_cycles, 0u);
  // Zero-load wormhole latency: path + length - 1 plus one arbitration
  // cycle per stage (header considered the cycle after arrival).
  EXPECT_EQ(ra.routing_cycles, 3u);

  // B was denied at least once, and every denial names A on a real lane.
  ASSERT_FALSE(rb.blocked.empty());
  EXPECT_GT(rb.blocked_cycles, 0u);
  for (const BlockedInterval& interval : rb.blocked) {
    EXPECT_NE(interval.culprit_lane, topology::kInvalidId);
    EXPECT_EQ(interval.culprit_worm, a);
    EXPECT_EQ(interval.chain_depth, 1u) << "A was streaming, not blocked";
  }
  // After the drain every lane holder must have been released.
  for (topology::LaneId lane = 0; lane < net.lane_count(); ++lane) {
    EXPECT_EQ(tracer->lane_holder(lane), kNoWorm);
  }
}

// Three-deep chain: A holds the ejection lane, B blocks on it while
// holding its own first-stage output lane, and C — entering through B's
// first-stage switch and output port — blocks on the lane B holds.  C's
// interval must therefore open at chain depth 2 with culprit B.
TEST(WormTrace, ChainDepthTwoThroughBlockedMiddleWorm) {
  const topology::Network net = topology::build_network(tiny_tmin());
  const auto router = routing::make_router(net);
  const ChainSources sources = discover_chain_sources(net, *router);
  Engine engine(net, *router, nullptr, manual_config());
  const sim::PacketId a = engine.inject_message(sources.a, 7, 96);
  for (int i = 0; i < 8; ++i) engine.step();
  const sim::PacketId b = engine.inject_message(sources.b, 7, 64);
  for (int i = 0; i < 8; ++i) engine.step();
  const sim::PacketId c = engine.inject_message(sources.c, 7, 32);
  ASSERT_TRUE(engine.run_until_idle(8'000));

  const WormTracer* tracer = engine.worm_tracer();
  ASSERT_NE(tracer, nullptr);
  expect_reconciled(tracer->record(a));
  expect_reconciled(tracer->record(b));
  expect_reconciled(tracer->record(c));

  const WormRecord& rb = tracer->record(b);
  ASSERT_FALSE(rb.blocked.empty());
  EXPECT_EQ(rb.blocked.front().culprit_worm, a);
  EXPECT_EQ(rb.blocked.front().chain_depth, 1u);

  const WormRecord& rc = tracer->record(c);
  ASSERT_FALSE(rc.blocked.empty());
  EXPECT_EQ(rc.blocked.front().culprit_worm, b);
  EXPECT_EQ(rc.blocked.front().chain_depth, 2u)
      << "C waits on B which is itself waiting on A";
}

// The ISSUE's acceptance scenario: a fig18a point with tracing on.  Every
// delivered worm must reconcile exactly and every blocked interval must
// name a culprit lane *and* worm (the four fig18a networks are
// fault-free, so there is always a holder to blame).
TEST(WormTrace, Fig18aPointReconcilesAndAttributesEverything) {
  const experiment::FigureSpec spec = experiment::figure_spec("fig18a");
  ASSERT_EQ(spec.series.size(), 4u);
  SimConfig config;
  config.seed = 11;
  config.warmup_cycles = 300;
  config.measure_cycles = 2'000;
  config.drain_cycles = 1'200;
  config.telemetry.worm_trace = true;
  // TMIN (deterministic routing) and BMIN (adaptive) cover both router
  // families; the load is high enough that blocking is guaranteed.
  for (std::size_t si : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE(spec.series[si].label);
    SimResult full;
    experiment::run_point(
        experiment::resolve_point(spec.series[si], 0.5, config), &full);
    ASSERT_NE(full.worm_trace, nullptr);
    const WormTracer& tracer = *full.worm_trace;

    std::uint64_t delivered = 0;
    std::uint64_t measured_delivered = 0;
    double measured_latency_sum = 0.0;
    std::size_t intervals = 0;
    for (const WormRecord& r : tracer.records()) {
      if (!r.delivered()) continue;
      ++delivered;
      intervals += expect_reconciled(r);
      for (const BlockedInterval& interval : r.blocked) {
        EXPECT_NE(interval.culprit_lane, topology::kInvalidId);
        EXPECT_NE(interval.culprit_worm, kNoWorm);
        EXPECT_NE(interval.waiting_lane, topology::kInvalidId);
      }
      if (r.measured) {
        ++measured_delivered;
        measured_latency_sum += static_cast<double>(r.total_cycles());
      }
    }
    EXPECT_GT(delivered, 100u);
    EXPECT_GT(intervals, 0u) << "load 0.5 must produce some blocking";
    // The trace must agree with the engine's own metrics: same set of
    // measured deliveries, same mean latency.
    EXPECT_EQ(delivered, full.delivered_messages_total);
    ASSERT_EQ(measured_delivered, full.latency_cycles.count());
    EXPECT_NEAR(measured_latency_sum /
                    static_cast<double>(measured_delivered),
                full.latency_cycles.mean(), 1e-6);
  }
}

// Store-and-forward decomposition on the same substrate: routing is 0,
// streaming is exactly hops x length, and blocked covers the hop-queue
// waits — summing exactly, like the wormhole side.
TEST(WormTrace, StoreForwardReconciles) {
  topology::NetworkConfig net_config = tiny_tmin();
  net_config.dilation = 2;
  net_config.vcs = 2;
  const topology::Network net = topology::build_network(net_config);
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.45;
  workload.length = traffic::LengthSpec::uniform(4, 64);
  traffic::StandardTraffic traffic(net, workload);
  sim::SimConfig config;
  config.seed = 7;
  config.buffer_depth = 2;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  config.telemetry.worm_trace = true;
  sim::StoreForwardEngine engine(net, *router, &traffic, config);
  const SimResult result = engine.run();
  ASSERT_NE(result.worm_trace, nullptr);

  std::uint64_t delivered = 0;
  std::uint64_t measured_delivered = 0;
  for (const WormRecord& r : result.worm_trace->records()) {
    if (!r.delivered()) continue;
    ++delivered;
    expect_reconciled(r);
    EXPECT_TRUE(r.stages.empty());
    for (const BlockedInterval& interval : r.blocked) {
      EXPECT_NE(interval.culprit_lane, topology::kInvalidId);
      EXPECT_NE(interval.waiting_lane, topology::kInvalidId);
      // SF chain depth is a lower bound: 2 when the culprit was itself
      // still waiting when this interval closed, else 1.
      EXPECT_LE(interval.chain_depth, 2u);
    }
    if (r.measured) ++measured_delivered;
  }
  EXPECT_GT(delivered, 100u);
  EXPECT_EQ(delivered, result.delivered_messages_total);
  EXPECT_EQ(measured_delivered, result.latency_cycles.count());
}

// summarize: the aggregate must be consistent with the raw records it
// was built from.
TEST(WormTrace, SummaryAggregatesRecords) {
  const topology::Network net = topology::build_network(tiny_tmin());
  const auto router = routing::make_router(net);
  const ChainSources sources = discover_chain_sources(net, *router);
  Engine engine(net, *router, nullptr, manual_config());
  const sim::PacketId a = engine.inject_message(sources.a, 7, 48);
  for (int i = 0; i < 8; ++i) engine.step();
  const sim::PacketId b = engine.inject_message(sources.b, 7, 32);
  for (int i = 0; i < 8; ++i) engine.step();
  engine.inject_message(sources.c, 7, 16);
  ASSERT_TRUE(engine.run_until_idle(8'000));
  const WormTracer& tracer = *engine.worm_tracer();

  const telemetry::WormTraceSummary summary =
      telemetry::summarize_worm_trace(tracer);
  EXPECT_EQ(summary.delivered, 3u);
  EXPECT_EQ(summary.unfinished, 0u);
  EXPECT_GT(summary.blocked_intervals, 0u);
  std::uint64_t hist_total = 0;
  for (std::uint64_t count : summary.chain_depth_histogram) {
    hist_total += count;
  }
  EXPECT_EQ(hist_total, summary.blocked_intervals);
  ASSERT_GE(summary.chain_depth_histogram.size(), 3u);
  EXPECT_GT(summary.chain_depth_histogram[2], 0u)
      << "the A<-B<-C chain must register a depth-2 interval";
  // Components aggregate to the total on average too.
  EXPECT_NEAR(summary.queue_cycles.mean() + summary.routing_cycles.mean() +
                  summary.blocked_cycles.mean() +
                  summary.streaming_cycles.mean(),
              summary.total_cycles.mean(), 1e-9);
  ASSERT_FALSE(summary.top_worms.empty());
  ASSERT_FALSE(summary.top_lanes.empty());
  // Only A (chain head) and B (blocked middle) ever held a contended
  // lane, and the tables are sorted by attributed cycles, descending.
  for (const telemetry::WormTraceSummary::CulpritWorm& culprit :
       summary.top_worms) {
    EXPECT_TRUE(culprit.worm == a || culprit.worm == b);
    EXPECT_LE(culprit.cycles, summary.top_worms.front().cycles);
  }
}

TEST(WormTrace, ChromeExportIsValidJsonWithCulpritSlices) {
  const topology::Network net = topology::build_network(tiny_tmin());
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  engine.inject_message(0, 7, 48);
  for (int i = 0; i < 10; ++i) engine.step();
  engine.inject_message(1, 7, 16);
  ASSERT_TRUE(engine.run_until_idle(4'000));

  std::ostringstream os;
  const std::size_t slices =
      telemetry::write_worm_trace_chrome(*engine.worm_tracer(), os);
  EXPECT_GT(slices, 0u);
  std::string error;
  const telemetry::JsonValue doc =
      telemetry::JsonValue::parse(os.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  const telemetry::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  bool saw_blocked = false;
  bool saw_lifetime = false;
  for (const telemetry::JsonValue& event : events.items()) {
    const std::string& name = event.at("name").as_string();
    if (name.rfind("blocked on worm", 0) == 0) saw_blocked = true;
    if (name.rfind("worm ", 0) == 0 && event.find("args") != nullptr) {
      saw_lifetime = true;
      const telemetry::JsonValue& args = event.at("args");
      EXPECT_NE(args.find("blocked_cycles"), nullptr);
    }
  }
  EXPECT_TRUE(saw_blocked) << "contention must produce a culprit slice";
  EXPECT_TRUE(saw_lifetime);
}

}  // namespace
}  // namespace wormsim
