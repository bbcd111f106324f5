// Tests for the store-and-forward reference engine and the wormhole
// contrast it exists to demonstrate (Section 1).
#include <gtest/gtest.h>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"

namespace wormsim::sim {
namespace {

using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig make_config(NetworkKind kind, unsigned k, unsigned n) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = "cube";
  config.radix = k;
  config.stages = n;
  config.dilation = 1;
  config.vcs = 1;
  return config;
}

SimConfig manual_config() {
  SimConfig config;
  config.seed = 11;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 30;
  config.drain_cycles = 0;
  return config;
}

TEST(StoreForward, SoloLatencyIsPathTimesLength) {
  // The defining property: every hop stores the whole packet, so
  // zero-load latency = hops * length (vs wormhole's hops + length - 2).
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, 2, 3));
  const auto router = routing::make_router(net);
  for (std::uint32_t len : {1u, 10u, 100u}) {
    StoreForwardEngine engine(net, *router, nullptr, manual_config());
    const PacketId id = engine.inject_message(0, 7, len);
    ASSERT_TRUE(engine.run_until_idle(1'000'000));
    EXPECT_EQ(engine.packet(id).deliver_cycle, 4ull * len);
  }
}

TEST(StoreForward, LatencyIsDistanceSensitiveOnBmin) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, 2, 3));
  const auto router = routing::make_router(net);
  const std::uint32_t len = 32;
  auto latency = [&](std::uint64_t src, std::uint64_t dst) {
    StoreForwardEngine engine(net, *router, nullptr, manual_config());
    const PacketId id = engine.inject_message(
        static_cast<topology::NodeId>(src), dst, len);
    EXPECT_TRUE(engine.run_until_idle(1'000'000));
    return engine.packet(id).deliver_cycle;
  };
  EXPECT_EQ(latency(0b000, 0b001), 2ull * len);  // t = 0
  EXPECT_EQ(latency(0b000, 0b010), 4ull * len);  // t = 1
  EXPECT_EQ(latency(0b000, 0b100), 6ull * len);  // t = 2
}

TEST(StoreForward, WormholeIsDistanceInsensitiveInComparison) {
  // Same message, longest vs shortest route: wormhole grows by 4 cycles,
  // store-and-forward by 4 * len.
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, 2, 3));
  const auto router = routing::make_router(net);
  const std::uint32_t len = 100;

  auto sf_latency = [&](std::uint64_t dst) {
    StoreForwardEngine engine(net, *router, nullptr, manual_config());
    const PacketId id = engine.inject_message(0, dst, len);
    EXPECT_TRUE(engine.run_until_idle(1'000'000));
    return engine.packet(id).deliver_cycle;
  };
  auto wh_latency = [&](std::uint64_t dst) {
    SimConfig config;
    config.warmup_cycles = 0;
    config.measure_cycles = 1u << 30;
    config.drain_cycles = 0;
    Engine engine(net, *router, nullptr, config);
    RecordingTraceSink sink;
    engine.set_trace_sink(&sink);
    const PacketId id = engine.inject_message(0, dst, len);
    EXPECT_TRUE(engine.run_until_idle(1'000'000));
    return sink.timeline(id).delivered;
  };
  EXPECT_EQ(sf_latency(0b100) - sf_latency(0b001), 4ull * len);
  EXPECT_EQ(wh_latency(0b100) - wh_latency(0b001), 4ull);
}

TEST(StoreForward, ContentionSerializesOnTheSharedChannel) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, 2, 3));
  const auto router = routing::make_router(net);
  StoreForwardEngine engine(net, *router, nullptr, manual_config());
  const std::uint32_t len = 20;
  // Both worms share the first inter-stage channel (see engine_test.cpp).
  const PacketId a = engine.inject_message(0b000, 0b111, len);
  const PacketId b = engine.inject_message(0b100, 0b110, len);
  ASSERT_TRUE(engine.run_until_idle(1'000'000));
  std::uint64_t first = engine.packet(a).deliver_cycle;
  std::uint64_t second = engine.packet(b).deliver_cycle;
  if (first > second) std::swap(first, second);
  EXPECT_EQ(first, 4ull * len);
  // The loser's packet trails one packet-time behind on the shared hops.
  EXPECT_GE(second, 5ull * len);
}

TEST(StoreForward, RandomBatchConserves) {
  util::Rng rng(9);
  for (NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kBMIN}) {
    const Network net = topology::build_network(make_config(kind, 2, 3));
    const auto router = routing::make_router(net);
    StoreForwardEngine engine(net, *router, nullptr, manual_config());
    std::vector<PacketId> ids;
    for (int i = 0; i < 150; ++i) {
      const auto src = static_cast<topology::NodeId>(rng.below(8));
      std::uint64_t dst = rng.below(8);
      while (dst == src) dst = rng.below(8);
      ids.push_back(engine.inject_message(
          src, dst, static_cast<std::uint32_t>(rng.between(1, 64))));
    }
    ASSERT_TRUE(engine.run_until_idle(10'000'000));
    for (PacketId id : ids) {
      EXPECT_TRUE(engine.packet(id).delivered());
    }
  }
}

TEST(StoreForward, DeeperBuffersStillConserve) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, 2, 3));
  const auto router = routing::make_router(net);
  SimConfig config = manual_config();
  config.buffer_depth = 3;
  StoreForwardEngine engine(net, *router, nullptr, config);
  util::Rng rng(10);
  std::vector<PacketId> ids;
  for (int i = 0; i < 100; ++i) {
    const auto src = static_cast<topology::NodeId>(rng.below(8));
    std::uint64_t dst = rng.below(8);
    while (dst == src) dst = rng.below(8);
    ids.push_back(engine.inject_message(src, dst, 16));
  }
  ASSERT_TRUE(engine.run_until_idle(10'000'000));
  for (PacketId id : ids) EXPECT_TRUE(engine.packet(id).delivered());
}

TEST(StoreForward, PoissonTrafficMatchesOfferedLoad) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, 4, 3));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.15;
  workload.length = traffic::LengthSpec::uniform(8, 64);
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 12;
  config.warmup_cycles = 10'000;
  config.measure_cycles = 60'000;
  config.drain_cycles = 20'000;
  StoreForwardEngine engine(net, *router, &traffic, config);
  const SimResult result = engine.run();
  EXPECT_NEAR(result.offered_fraction(), 0.15, 0.02);
  EXPECT_NEAR(result.throughput_fraction(), 0.15, 0.02);
  EXPECT_TRUE(result.sustainable());
  // Latency at least hops * mean length, far above the wormhole floor.
  EXPECT_GT(result.latency_cycles.mean(), 4 * 30.0);
}

TEST(StoreForward, DelayedInjectionHonorsTimestamp) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, 2, 3));
  const auto router = routing::make_router(net);
  StoreForwardEngine engine(net, *router, nullptr, manual_config());
  const PacketId id = engine.inject_message(0, 7, 10, /*when=*/500);
  ASSERT_TRUE(engine.run_until_idle(1'000'000));
  EXPECT_EQ(engine.packet(id).create_cycle, 500u);
  EXPECT_EQ(engine.packet(id).deliver_cycle, 500u + 40u);
}

}  // namespace
}  // namespace wormsim::sim
