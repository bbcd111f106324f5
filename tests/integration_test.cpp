// Cross-module integration tests: the simulator's dynamic behavior must
// agree with the static structural analyses.
#include <gtest/gtest.h>

#include <set>

#include "analysis/bmin_usage.hpp"
#include "partition/channel_usage.hpp"
#include "partition/cluster.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim {
namespace {

using partition::Clustering;
using topology::ChannelRole;
using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig make_config(NetworkKind kind, const std::string& topo,
                          unsigned k, unsigned n) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = topo;
  config.radix = k;
  config.stages = n;
  config.dilation = 1;
  config.vcs = 1;
  return config;
}

sim::SimResult run_clustered(const Network& net,
                             const Clustering& clustering) {
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.3;
  workload.length = traffic::LengthSpec::uniform(8, 64);
  workload.clustering = clustering;
  traffic::StandardTraffic traffic(net, workload);
  sim::SimConfig config;
  config.seed = 4242;
  config.warmup_cycles = 3'000;
  config.measure_cycles = 30'000;
  config.drain_cycles = 3'000;
  config.telemetry.counters = true;
  sim::Engine engine(net, *router, &traffic, config);
  return engine.run();
}

TEST(Integration, CubeClusterTrafficUsesExactlyPredictedChannels) {
  // Theorem 2 dynamically: simulate cluster-confined traffic on the cube
  // TMIN and check the busy channels at each inter-stage level are
  // exactly the addresses the static analysis predicts.
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, "cube", 4, 3));
  const Clustering clustering =
      Clustering::by_top_digits(net.address_spec(), 1);
  const sim::SimResult result = run_clustered(net, clustering);

  const partition::UsageReport usage =
      partition::analyze_channel_usage(net.topology(), clustering);
  ASSERT_TRUE(usage.contention_free);

  // Rebuild the predicted per-level address sets over all clusters.
  std::set<std::pair<unsigned, std::uint64_t>> predicted;
  for (std::uint32_t c = 0; c < clustering.cluster_count(); ++c) {
    for (topology::NodeId s : clustering.clusters[c]) {
      for (topology::NodeId d : clustering.clusters[c]) {
        if (s == d) continue;
        for (unsigned level = 1; level < 3; ++level) {
          predicted.insert(
              {level, net.topology().entry_channel_address(level, s, d)});
        }
      }
    }
  }
  for (const topology::PhysChannel& ch : net.channels()) {
    if (ch.role != ChannelRole::kForward) continue;
    const bool was_busy =
        result.telemetry_counters.channel_flits(net, ch.id) > 0;
    const bool is_predicted =
        predicted.count({ch.conn_index, ch.address}) > 0;
    // A channel outside every cluster's footprint must stay idle.
    if (!is_predicted) {
      EXPECT_FALSE(was_busy)
          << "level " << ch.conn_index << " addr " << ch.address;
    }
  }
  // And with 30k cycles at 30% load every predicted channel was exercised.
  std::uint64_t busy_count = 0;
  for (const topology::PhysChannel& ch : net.channels()) {
    if (ch.role == ChannelRole::kForward &&
        result.telemetry_counters.channel_flits(net, ch.id) > 0) {
      ++busy_count;
    }
  }
  EXPECT_EQ(busy_count, predicted.size());
}

TEST(Integration, ButterflySharedClusteringLightsUpForeignChannels) {
  // Theorem 3 dynamically: with the channel-shared clustering on the
  // butterfly TMIN, inter-stage channels carry traffic from more than one
  // cluster: total busy channels exceed one cluster's node count * levels.
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "butterfly", 4, 3));
  const Clustering clustering =
      Clustering::by_low_digits(net.address_spec(), 1);
  const sim::SimResult result = run_clustered(net, clustering);
  std::uint64_t busy_level1 = 0;
  for (const topology::PhysChannel& ch : net.channels()) {
    if (ch.role == ChannelRole::kForward && ch.conn_index == 1 &&
        result.telemetry_counters.channel_flits(net, ch.id) > 0) {
      ++busy_level1;
    }
  }
  // Channel-balanced would be 64 total (16 per cluster); channel-shared
  // uses all 64 from every cluster — the point is each cluster spreads
  // over all 64, so utilization is diluted but all channels are hot.
  EXPECT_EQ(busy_level1, 64u);
}

TEST(Integration, BminBaseCubeTrafficStaysInSubtrees) {
  // Theorem 4 dynamically: base-cube-confined traffic on the BMIN never
  // touches channels above the subtree roots.
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, "butterfly", 4, 3));
  const Clustering clustering =
      Clustering::by_top_digits(net.address_spec(), 1);
  const sim::SimResult result = run_clustered(net, clustering);
  for (const topology::PhysChannel& ch : net.channels()) {
    if (ch.conn_index == 2 && (ch.role == ChannelRole::kForward ||
                               ch.role == ChannelRole::kBackward)) {
      EXPECT_EQ(result.telemetry_counters.channel_flits(net, ch.id), 0u)
          << "top-level channel " << ch.id << " should be idle";
    }
  }
}

TEST(Integration, StaticAndDynamicAgreeOnBminUsage) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, "butterfly", 2, 3));
  const auto router = routing::make_router(net);
  const Clustering clustering =
      Clustering::by_top_digits(net.address_spec(), 1);
  const analysis::BminUsageReport static_usage =
      analysis::analyze_bmin_usage(net, *router, clustering);
  ASSERT_TRUE(static_usage.contention_free);

  const sim::SimResult result = run_clustered(net, clustering);
  // Dynamic footprint must be a subset of the static one per cluster set.
  // Static per-level totals across clusters:
  std::vector<std::uint64_t> static_forward(net.stages(), 0);
  for (const auto& usage : static_usage.clusters) {
    for (unsigned level = 0; level < net.stages(); ++level) {
      static_forward[level] += usage.forward_per_level[level];
    }
  }
  std::vector<std::uint64_t> dynamic_forward(net.stages(), 0);
  for (const topology::PhysChannel& ch : net.channels()) {
    if ((ch.role == ChannelRole::kForward ||
         ch.role == ChannelRole::kInjection) &&
        result.telemetry_counters.channel_flits(net, ch.id) > 0) {
      ++dynamic_forward[ch.conn_index];
    }
  }
  for (unsigned level = 0; level < net.stages(); ++level) {
    EXPECT_LE(dynamic_forward[level], static_forward[level]) << level;
  }
}

TEST(Integration, PermutationTrafficUsesOnlyPermutationPaths) {
  // Under the shuffle permutation on a TMIN, each active source uses one
  // fixed path; the busy channel count per level equals the number of
  // distinct entry addresses over active pairs.
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, "cube", 4, 3));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.pattern = traffic::WorkloadSpec::Pattern::kShuffle;
  workload.offered = 0.3;
  workload.length = traffic::LengthSpec::uniform(8, 64);
  traffic::StandardTraffic traffic(net, workload);
  sim::SimConfig config;
  config.seed = 777;
  config.warmup_cycles = 2'000;
  config.measure_cycles = 20'000;
  config.drain_cycles = 2'000;
  config.telemetry.counters = true;
  sim::Engine engine(net, *router, &traffic, config);
  const sim::SimResult result = engine.run();

  const topology::DigitPerm sigma = topology::DigitPerm::shuffle(3);
  std::set<std::pair<unsigned, std::uint64_t>> predicted;
  for (std::uint64_t s = 0; s < 64; ++s) {
    const std::uint64_t d = sigma.apply(net.address_spec(), s);
    if (d == s) continue;
    for (unsigned level = 1; level < 3; ++level) {
      predicted.insert(
          {level, net.topology().entry_channel_address(level, s, d)});
    }
  }
  for (const topology::PhysChannel& ch : net.channels()) {
    if (ch.role != ChannelRole::kForward) continue;
    if (predicted.count({ch.conn_index, ch.address}) == 0) {
      EXPECT_EQ(result.telemetry_counters.channel_flits(net, ch.id), 0u);
    }
  }
}

}  // namespace
}  // namespace wormsim
