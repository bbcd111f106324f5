// Tests for the finite-buffer flow-control subsystem
// (src/sim/flow_control/): credit accounting across buffer depths and
// return delays, on/off hysteresis, virtual cut-through admission and its
// reconciliation with the store-and-forward reference, and the
// credit-starvation attribution fed to telemetry and worm traces.
//
// The load-bearing property is *equivalence at the legacy point*: a
// credit-flow engine at depth 1 / delay 0 — the constructor defaults —
// must be bitwise indistinguishable from the pre-subsystem engine.  The
// golden digests pin that globally; here the same claim is checked
// per-packet against explicitly spelled-out knobs, so a future default
// change cannot silently move the legacy point.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "telemetry/worm_trace.hpp"
#include "topology/network.hpp"

namespace wormsim::sim {
namespace {

using topology::kInvalidId;
using topology::LaneId;
using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig cube_config(unsigned k, unsigned n) {
  NetworkConfig config;
  config.kind = NetworkKind::kTMIN;
  config.topology = "cube";
  config.radix = k;
  config.stages = n;
  config.dilation = 1;
  config.vcs = 1;
  return config;
}

SimConfig manual_config() {
  SimConfig config;
  config.seed = 5;
  config.warmup_cycles = 0;
  config.measure_cycles = 1'000'000;  // everything counts as measured
  config.drain_cycles = 0;
  config.validate = true;  // every run doubles as an invariant sweep
  return config;
}

/// Injects a fixed contended batch and runs to completion; returns the
/// per-packet delivery cycles (the full observable outcome of a manual
/// run).
std::vector<std::uint64_t> run_batch(const Network& net,
                                     const routing::Router& router,
                                     const SimConfig& config) {
  Engine engine(net, router, nullptr, config);
  RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  const PacketId ids[] = {
      engine.inject_message(0, 7, 8),
      engine.inject_message(3, 7, 8),  // contends for node 7's ejection
      engine.inject_message(5, 2, 8),
      engine.inject_message(6, 2, 4),  // contends for node 2's ejection
      engine.inject_message(1, 4, 12),
  };
  EXPECT_TRUE(engine.run_until_idle(100'000));
  std::vector<std::uint64_t> cycles;
  for (const PacketId id : ids) cycles.push_back(sink.timeline(id).delivered);
  return cycles;
}

/// Latency of a lone worm from node 0 to node 7 under `config`.
std::uint64_t lone_latency(const Network& net, const routing::Router& router,
                           SimConfig config, std::uint32_t length) {
  Engine engine(net, router, nullptr, config);
  RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  const PacketId id = engine.inject_message(0, 7, length);
  EXPECT_TRUE(engine.run_until_idle(100'000));
  const PacketTimeline pkt = sink.timeline(id);
  return pkt.delivered - pkt.injected;
}

class FlowControl : public ::testing::Test {
 protected:
  FlowControl()
      : net_(topology::build_network(cube_config(2, 3))),
        router_(routing::make_router(net_)) {}

  Network net_;
  std::unique_ptr<routing::Router> router_;
};

// ---- Equivalence at the legacy point --------------------------------------

TEST_F(FlowControl, ExplicitLegacyKnobsMatchDefaults) {
  SimConfig explicit_legacy = manual_config();
  explicit_legacy.buffer_depth = 1;
  explicit_legacy.flow_control = FlowControlScheme::kCredit;
  explicit_legacy.credit_delay = 0;
  EXPECT_EQ(run_batch(net_, *router_, manual_config()),
            run_batch(net_, *router_, explicit_legacy));
}

TEST_F(FlowControl, EveryConfigurationIsDeterministic) {
  for (const FlowControlScheme scheme :
       {FlowControlScheme::kCredit, FlowControlScheme::kOnOff,
        FlowControlScheme::kVirtualCutThrough}) {
    SimConfig config = manual_config();
    config.flow_control = scheme;
    config.buffer_depth = 16;  // VCT needs depth >= the longest worm (12)
    config.credit_delay = 3;
    SCOPED_TRACE(to_string(scheme));
    EXPECT_EQ(run_batch(net_, *router_, config),
              run_batch(net_, *router_, config));
  }
}

// ---- Credit accounting ----------------------------------------------------

TEST_F(FlowControl, CreditsFullyRecoverAfterDrain) {
  for (const std::uint32_t delay : {0u, 2u, 7u}) {
    SimConfig config = manual_config();
    config.buffer_depth = 4;
    config.credit_delay = delay;
    SCOPED_TRACE(delay);
    Engine engine(net_, *router_, nullptr, config);
    engine.inject_message(0, 7, 8);
    engine.inject_message(3, 7, 8);
    ASSERT_TRUE(engine.run_until_idle(100'000));
    // Step past the last credit's flight time: every token must be home.
    for (std::uint32_t i = 0; i <= delay; ++i) engine.step();
    const FlowControlState& fc = engine.flow_control();
    EXPECT_TRUE(fc.events.empty());
    for (LaneId lane = 0; lane < fc.count.size(); ++lane) {
      EXPECT_EQ(fc.count[lane], 0u) << "lane " << lane;
      EXPECT_EQ(fc.credits[lane], fc.depth) << "lane " << lane;
      EXPECT_EQ(fc.starve_since[lane], kNoCycle) << "lane " << lane;
    }
  }
}

TEST_F(FlowControl, CreditDelayThrottlesAndDepthHidesIt) {
  // With one buffer and an 8-cycle credit loop every flit waits out the
  // round trip; deepening the fifo pipelines the tokens and hides the
  // delay again (the Stergiou multi-lane argument, depth for lanes).
  SimConfig slow = manual_config();
  slow.buffer_depth = 1;
  slow.credit_delay = 8;
  SimConfig deep = slow;
  deep.buffer_depth = 16;
  SimConfig legacy = manual_config();
  const std::uint64_t lat_slow = lone_latency(net_, *router_, slow, 16);
  const std::uint64_t lat_deep = lone_latency(net_, *router_, deep, 16);
  const std::uint64_t lat_legacy = lone_latency(net_, *router_, legacy, 16);
  EXPECT_GT(lat_slow, lat_legacy + 8 * 8);  // ~15 round trips outweigh 64
  EXPECT_LT(lat_deep, lat_slow);
  EXPECT_EQ(lat_deep, lat_legacy);  // 16 tokens cover a 9-cycle loop
}

TEST_F(FlowControl, DeeperBuffersNeverHurtALoneWorm) {
  std::uint64_t previous = ~0ull;
  for (const std::uint32_t depth : {1u, 2u, 4u, 8u}) {
    SimConfig config = manual_config();
    config.buffer_depth = depth;
    config.credit_delay = 4;
    const std::uint64_t latency = lone_latency(net_, *router_, config, 16);
    EXPECT_LE(latency, previous) << "depth " << depth;
    previous = latency;
  }
}

// ---- On/off backpressure --------------------------------------------------

TEST_F(FlowControl, OnOffEngagesAndNeverOverflows) {
  SimConfig config = manual_config();
  config.flow_control = FlowControlScheme::kOnOff;
  config.buffer_depth = 4;
  config.credit_delay = 2;  // off threshold 2, on threshold 1
  Engine engine(net_, *router_, nullptr, config);
  engine.inject_message(0, 7, 24);
  engine.inject_message(3, 7, 24);  // ejection contention backs fifos up
  bool ever_stopped = false;
  std::uint32_t max_count = 0;
  for (int i = 0; i < 100'000 && !engine.idle(); ++i) {
    engine.step();
    const FlowControlState& fc = engine.flow_control();
    for (LaneId lane = 0; lane < fc.count.size(); ++lane) {
      max_count = std::max(max_count, fc.count[lane]);
      if (fc.stopped[lane] != 0) ever_stopped = true;
    }
  }
  EXPECT_TRUE(engine.idle());
  EXPECT_TRUE(ever_stopped) << "backpressure never engaged";
  EXPECT_LE(max_count, config.buffer_depth);
  EXPECT_GT(max_count, 1u) << "fifo depth never exercised";
}

TEST_F(FlowControl, OnOffMatchesDeliverySetOfCredit) {
  // Hysteresis changes timing, not outcomes: the same worms arrive, flit
  // counts conserved (the validator checks conservation along the way).
  SimConfig onoff = manual_config();
  onoff.flow_control = FlowControlScheme::kOnOff;
  onoff.buffer_depth = 8;
  onoff.credit_delay = 2;
  SimConfig credit = onoff;
  credit.flow_control = FlowControlScheme::kCredit;
  const auto a = run_batch(net_, *router_, onoff);
  const auto b = run_batch(net_, *router_, credit);
  ASSERT_EQ(a.size(), b.size());
  for (const std::uint64_t cycle : a) EXPECT_NE(cycle, kNoCycle);
  for (const std::uint64_t cycle : b) EXPECT_NE(cycle, kNoCycle);
}

// ---- Virtual cut-through --------------------------------------------------

TEST_F(FlowControl, VctUncontendedEqualsWormhole) {
  // With room for the whole worm everywhere and no contention the
  // admission gate never binds: cut-through degenerates to wormhole.
  for (const std::uint32_t length : {4u, 8u, 16u}) {
    SimConfig vct = manual_config();
    vct.flow_control = FlowControlScheme::kVirtualCutThrough;
    vct.buffer_depth = length;
    SimConfig worm = vct;
    worm.flow_control = FlowControlScheme::kCredit;
    SCOPED_TRACE(length);
    EXPECT_EQ(lone_latency(net_, *router_, vct, length),
              lone_latency(net_, *router_, worm, length));
  }
}

TEST_F(FlowControl, VctReconcilesWithStoreForward) {
  // A lone worm crossing h channels (h = stages + 1 on a TMIN: inject,
  // stages-1 forward hops, eject):
  //   store-and-forward: every hop serializes all L flits  -> h*L cycles;
  //   cut-through:       header pipelines, body streams    -> L + h - 2.
  // The (h-1)*L - (h-2) gap is the whole-packet store time the paper's
  // switch-based wormhole argument eliminates.
  const std::uint64_t hops = cube_config(2, 3).stages + 1;
  for (const std::uint32_t length : {4u, 8u, 16u}) {
    SimConfig vct = manual_config();
    vct.flow_control = FlowControlScheme::kVirtualCutThrough;
    vct.buffer_depth = length;
    const std::uint64_t vct_latency =
        lone_latency(net_, *router_, vct, length);

    SimConfig sf_config;
    sf_config.seed = 5;
    sf_config.warmup_cycles = 0;
    sf_config.measure_cycles = 1u << 20;
    sf_config.drain_cycles = 0;
    sf_config.validate = true;
    StoreForwardEngine sf(net_, *router_, nullptr, sf_config);
    const PacketId id = sf.inject_message(0, 7, length);
    ASSERT_TRUE(sf.run_until_idle(1'000'000));
    const std::uint64_t sf_latency =
        sf.packet(id).deliver_cycle - sf.packet(id).inject_cycle;

    SCOPED_TRACE(length);
    EXPECT_EQ(vct_latency, length + hops - 2);
    EXPECT_EQ(sf_latency, hops * length);
    EXPECT_EQ(sf_latency - vct_latency, (hops - 1) * length - (hops - 2));
  }
}

TEST_F(FlowControl, VctRejectsWormsLongerThanTheBuffer) {
  SimConfig config = manual_config();
  config.flow_control = FlowControlScheme::kVirtualCutThrough;
  config.buffer_depth = 4;
  Engine engine(net_, *router_, nullptr, config);
  EXPECT_DEATH(engine.inject_message(0, 7, 5),
               "cut-through needs buffer_depth");
}

TEST(FlowControlConfig, OnOffRequiresSlackForTheStopSignal) {
  const Network net = topology::build_network(cube_config(2, 3));
  const auto router = routing::make_router(net);
  SimConfig config;
  config.flow_control = FlowControlScheme::kOnOff;
  config.buffer_depth = 2;
  config.credit_delay = 2;  // a STOP can no longer beat the overflow
  EXPECT_DEATH(Engine(net, *router, nullptr, config),
               "buffer_depth > credit_delay");
}

// ---- Starvation attribution -----------------------------------------------

TEST_F(FlowControl, StarvationChargedWhenCreditsLag) {
  SimConfig config = manual_config();
  config.buffer_depth = 1;
  config.credit_delay = 8;  // every flit waits out the credit loop
  config.telemetry.counters = true;
  config.telemetry.worm_trace = true;
  Engine engine(net_, *router_, nullptr, config);
  const PacketId id = engine.inject_message(0, 7, 16);
  ASSERT_TRUE(engine.run_until_idle(100'000));

  EXPECT_GT(engine.telemetry_counters().total_credit_starved_cycles(), 0u);
  const telemetry::WormRecord& record = engine.worm_tracer()->record(id);
  EXPECT_GT(record.starved_cycles, 0u);
  EXPECT_LE(record.starved_cycles, record.total_cycles());

  // The summary surfaces it.
  const telemetry::WormTraceSummary summary =
      summarize_worm_trace(*engine.worm_tracer(), 4);
  EXPECT_GT(summary.starved_cycles_total, 0u);
  EXPECT_EQ(summary.starved_worms, 1u);
  EXPECT_FALSE(summary.top_starved_lanes.empty());
}

TEST_F(FlowControl, LegacyContentionIsNeverCalledStarvation) {
  // At depth 1 / delay 0 a gated sender always faces a FULL downstream
  // buffer — that is lane contention, not credit starvation, and the
  // accounting (and every legacy report built on it) must stay at zero.
  SimConfig config = manual_config();
  config.telemetry.counters = true;
  config.telemetry.worm_trace = true;
  Engine engine(net_, *router_, nullptr, config);
  engine.inject_message(0, 7, 16);
  engine.inject_message(3, 7, 16);
  engine.inject_message(5, 7, 16);  // three-way ejection fight
  ASSERT_TRUE(engine.run_until_idle(100'000));

  EXPECT_GT(engine.telemetry_counters().total_denials(), 0u);
  EXPECT_EQ(engine.telemetry_counters().total_credit_starved_cycles(), 0u);
  const telemetry::WormTraceSummary summary =
      summarize_worm_trace(*engine.worm_tracer(), 4);
  EXPECT_EQ(summary.starved_cycles_total, 0u);
}

TEST_F(FlowControl, StarvedWormStillReconciles) {
  // starved_cycles is a sub-attribution: the four latency components must
  // still sum exactly even when starvation stretched the streaming phase.
  SimConfig config = manual_config();
  config.buffer_depth = 2;
  config.credit_delay = 5;
  config.telemetry.worm_trace = true;
  Engine engine(net_, *router_, nullptr, config);
  const PacketId ids[] = {engine.inject_message(0, 7, 12),
                          engine.inject_message(3, 7, 12)};
  ASSERT_TRUE(engine.run_until_idle(100'000));
  for (const PacketId id : ids) {
    const telemetry::WormRecord& r = engine.worm_tracer()->record(id);
    ASSERT_TRUE(r.delivered());
    EXPECT_EQ(r.queue_cycles + r.routing_cycles + r.blocked_cycles +
                  r.streaming_cycles,
              r.total_cycles());
    EXPECT_LE(r.starved_cycles, r.total_cycles());
  }
}

}  // namespace
}  // namespace wormsim::sim
