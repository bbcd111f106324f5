// Tests for the configurable arbitration and lane-selection policies.
#include <gtest/gtest.h>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"

namespace wormsim::sim {
namespace {

using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig dmin_cfg() {
  NetworkConfig config;
  config.kind = NetworkKind::kDMIN;
  config.topology = "cube";
  config.radix = 4;
  config.stages = 3;
  config.dilation = 2;
  config.vcs = 1;
  return config;
}

SimResult run_policy(const Network& net, ArbitrationOrder order,
                     LaneSelection lane, std::uint64_t seed) {
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.4;
  workload.length = traffic::LengthSpec::uniform(8, 64);
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = seed;
  config.arbitration = order;
  config.lane_selection = lane;
  config.warmup_cycles = 3'000;
  config.measure_cycles = 25'000;
  config.drain_cycles = 3'000;
  Engine engine(net, *router, &traffic, config);
  return engine.run();
}

TEST(Arbitration, AllPoliciesDeliverComparableThroughput) {
  const Network net = topology::build_network(dmin_cfg());
  const SimResult rotating =
      run_policy(net, ArbitrationOrder::kRotating,
                 LaneSelection::kRandomFree, 5);
  for (const auto order :
       {ArbitrationOrder::kRandom, ArbitrationOrder::kFixed}) {
    for (const auto lane :
         {LaneSelection::kRandomFree, LaneSelection::kFirstFree}) {
      const SimResult result = run_policy(net, order, lane, 5);
      EXPECT_GT(result.delivered_messages_total, 100u);
      // At a sustainable load all policies accept the offered traffic.
      EXPECT_NEAR(result.throughput_fraction(),
                  rotating.throughput_fraction(), 0.05);
    }
  }
}

TEST(Arbitration, PoliciesAreDeterministicPerSeed) {
  const Network net = topology::build_network(dmin_cfg());
  for (const auto order : {ArbitrationOrder::kRotating,
                           ArbitrationOrder::kRandom,
                           ArbitrationOrder::kFixed}) {
    const SimResult a =
        run_policy(net, order, LaneSelection::kFirstFree, 9);
    const SimResult b =
        run_policy(net, order, LaneSelection::kFirstFree, 9);
    EXPECT_EQ(a.delivered_flits_in_window, b.delivered_flits_in_window);
    EXPECT_DOUBLE_EQ(a.latency_cycles.mean(), b.latency_cycles.mean());
  }
}

TEST(Arbitration, FirstFreeBiasesDilatedChannelUsage) {
  // With kFirstFree, the first dilated channel of each port does almost
  // all the work at low load; with kRandomFree usage splits evenly.
  const Network net = topology::build_network(dmin_cfg());
  const auto router = routing::make_router(net);
  auto run_util = [&](LaneSelection lane) {
    traffic::WorkloadSpec workload;
    workload.offered = 0.1;
    traffic::StandardTraffic traffic(net, workload);
    SimConfig config;
    config.seed = 2;
    config.lane_selection = lane;
    config.warmup_cycles = 1'000;
    config.measure_cycles = 20'000;
    config.drain_cycles = 1'000;
    config.telemetry.counters = true;
    Engine engine(net, *router, &traffic, config);
    return engine.run();
  };
  const SimResult random = run_util(LaneSelection::kRandomFree);
  const SimResult first = run_util(LaneSelection::kFirstFree);

  // Compare the two dilated siblings of one port: channel ids for the
  // same (conn, address) are adjacent in construction order.
  std::uint64_t random_a = 0, random_b = 0, first_a = 0, first_b = 0;
  for (const auto& ch : net.channels()) {
    if (ch.role != topology::ChannelRole::kForward) continue;
    const auto& sibling = net.channel(ch.id + 1);
    if (sibling.role != topology::ChannelRole::kForward ||
        sibling.address != ch.address ||
        sibling.conn_index != ch.conn_index) {
      continue;
    }
    random_a += random.telemetry_counters.channel_flits(net, ch.id);
    random_b += random.telemetry_counters.channel_flits(net, ch.id + 1);
    first_a += first.telemetry_counters.channel_flits(net, ch.id);
    first_b += first.telemetry_counters.channel_flits(net, ch.id + 1);
  }
  // Random splits roughly evenly; first-free is heavily skewed.
  EXPECT_NEAR(static_cast<double>(random_a),
              static_cast<double>(random_b),
              0.2 * static_cast<double>(random_a + 1));
  EXPECT_GT(first_a, 3 * first_b);
}

}  // namespace
}  // namespace wormsim::sim
