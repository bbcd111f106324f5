// Equivalence tests for the implicit topology backend (DESIGN.md §13).
//
// The contract is total: ImplicitTopology must reproduce the materialized
// Network's records bit for bit — every channel, every lane, every port
// table — and a simulation driven through a NetView over either backend
// must produce bitwise-identical SimResults for every network kind and
// flow-control scheme.  Anything less and --implicit-topology would be a
// different simulator, not a memory optimization.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "golden_digest.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "topology/implicit.hpp"
#include "topology/net_view.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim {
namespace {

using sim::digest;
using sim::SimResult;
using topology::ImplicitTopology;
using topology::ImplicitTopologyPtr;
using topology::Lane;
using topology::NetView;
using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;
using topology::PhysChannel;

// ---- Configurations under test ------------------------------------------

NetworkConfig base_config(NetworkKind kind) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = "cube";
  config.radix = 2;
  config.stages = 3;
  config.dilation = 2;
  config.vcs = 2;
  return config;
}

std::vector<NetworkConfig> record_configs() {
  std::vector<NetworkConfig> configs;
  for (NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kDMIN,
                           NetworkKind::kVMIN, NetworkKind::kBMIN}) {
    configs.push_back(base_config(kind));
  }
  // The layout corners the four base kinds miss: non-cube wirings,
  // ejection-lane multiplexing, adaptive extra stages, and a radix-4.
  NetworkConfig omega = base_config(NetworkKind::kTMIN);
  omega.topology = "omega";
  configs.push_back(omega);
  NetworkConfig vc_nodes = base_config(NetworkKind::kVMIN);
  vc_nodes.vc_node_links = true;
  configs.push_back(vc_nodes);
  NetworkConfig extra = base_config(NetworkKind::kTMIN);
  extra.dilation = 1;
  extra.extra_stages = 2;
  configs.push_back(extra);
  NetworkConfig k4;
  k4.kind = NetworkKind::kTMIN;
  k4.topology = "cube";
  k4.radix = 4;
  k4.stages = 3;
  k4.dilation = 1;
  k4.vcs = 1;
  configs.push_back(k4);
  return configs;
}

bool endpoint_eq(const topology::Endpoint& a, const topology::Endpoint& b) {
  return a.kind == b.kind && a.id == b.id && a.side == b.side &&
         a.port == b.port;
}

// ---- Record-level equivalence -------------------------------------------

TEST(ImplicitTopologyTest, EveryRecordMatchesMaterialized) {
  for (const NetworkConfig& config : record_configs()) {
    SCOPED_TRACE(config.describe());
    ASSERT_TRUE(ImplicitTopology::supports(config));
    const Network net = topology::build_network(config);
    const ImplicitTopology imp(config);

    ASSERT_EQ(imp.node_count(), net.node_count());
    ASSERT_EQ(imp.switch_count(), net.switches().size());
    ASSERT_EQ(imp.channel_count(), net.channels().size());
    ASSERT_EQ(imp.lane_count(), net.lanes().size());

    for (const PhysChannel& expected : net.channels()) {
      const PhysChannel got = imp.channel(expected.id);
      ASSERT_EQ(got.id, expected.id);
      EXPECT_TRUE(endpoint_eq(got.src, expected.src)) << "ch " << expected.id;
      EXPECT_TRUE(endpoint_eq(got.dst, expected.dst)) << "ch " << expected.id;
      EXPECT_EQ(got.role, expected.role) << "ch " << expected.id;
      EXPECT_EQ(got.num_lanes, expected.num_lanes) << "ch " << expected.id;
      EXPECT_EQ(got.first_lane, expected.first_lane) << "ch " << expected.id;
      EXPECT_EQ(got.conn_index, expected.conn_index) << "ch " << expected.id;
      EXPECT_EQ(got.address, expected.address) << "ch " << expected.id;
    }
    for (const Lane& expected : net.lanes()) {
      const Lane got = imp.lane(expected.id);
      EXPECT_EQ(got.id, expected.id);
      EXPECT_EQ(got.channel, expected.channel) << "lane " << expected.id;
      EXPECT_EQ(got.lane_in_channel, expected.lane_in_channel)
          << "lane " << expected.id;
    }
    for (topology::NodeId node = 0; node < net.node_count(); ++node) {
      EXPECT_EQ(imp.injection_channel(node), net.injection_channel(node));
      EXPECT_EQ(imp.ejection_channel(node), net.ejection_channel(node));
    }
    for (const topology::Switch& sw : net.switches()) {
      EXPECT_EQ(imp.switch_stage(sw.id), sw.stage);
      EXPECT_EQ(imp.switch_index(sw.id), sw.index);
      EXPECT_EQ(imp.switch_at(sw.stage, sw.index), sw.id);
    }
  }
}

TEST(ImplicitTopologyTest, PortTablesMatchMaterialized) {
  for (const NetworkConfig& config : record_configs()) {
    SCOPED_TRACE(config.describe());
    const Network net = topology::build_network(config);
    const ImplicitTopology imp(config);
    for (const topology::Switch& sw : net.switches()) {
      for (unsigned port = 0; port < sw.right.out_lanes.size(); ++port) {
        std::vector<topology::LaneId> got;
        imp.append_right_out_lanes(sw.id, port, got);
        EXPECT_EQ(got, sw.right.out_lanes[port])
            << "switch " << sw.id << " right port " << port;
      }
      if (imp.bidirectional()) {
        for (unsigned port = 0; port < sw.left.out_lanes.size(); ++port) {
          std::vector<topology::LaneId> got;
          imp.append_left_out_lanes(sw.id, port, got);
          EXPECT_EQ(got, sw.left.out_lanes[port])
              << "switch " << sw.id << " left port " << port;
        }
      }
    }
  }
}

TEST(ImplicitTopologyTest, MaxRouteFanoutMatchesMaterializedScan) {
  for (const NetworkConfig& config : record_configs()) {
    SCOPED_TRACE(config.describe());
    const Network net = topology::build_network(config);
    const NetView materialized(net);
    const ImplicitTopology imp(config);
    EXPECT_EQ(imp.max_route_fanout(), materialized.max_route_fanout());
  }
}

TEST(ImplicitTopologyTest, RejectsMultibutterflies) {
  NetworkConfig config;
  config.kind = NetworkKind::kTMIN;
  config.radix = 2;
  config.stages = 3;
  config.dilation = 1;
  config.vcs = 1;
  config.splitter_dilation = 2;
  EXPECT_FALSE(ImplicitTopology::supports(config));
}

// At n = 21 the 64-bit channel and lane products wrap to 0, which the
// constructor's own id-space check would accept; the node count must be
// rejected first.
TEST(ImplicitTopologyDeath, NodeCountBeyond32BitIdsAborts) {
  for (const unsigned n : {21u, 22u}) {
    for (const NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kBMIN}) {
      NetworkConfig config = base_config(kind);
      config.radix = 8;
      config.stages = n;
      EXPECT_DEATH(ImplicitTopology{config}, "32-bit id space");
    }
  }
}

// ---- Simulation-level bitwise equivalence -------------------------------

traffic::WorkloadSpec test_workload() {
  traffic::WorkloadSpec workload;
  workload.offered = 0.45;
  workload.length = traffic::LengthSpec::uniform(4, 64);
  return workload;
}

sim::SimConfig test_sim_config() {
  sim::SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  config.telemetry.counters = true;
  config.telemetry.sampling = true;
  config.telemetry.sample_interval_cycles = 256;
  config.telemetry.sample_capacity = 64;
  return config;
}

enum class Backend { kMaterialized, kImplicit };

/// A run's result and its golden digest, taken on the run's own view.
struct BackendRun {
  SimResult result;
  std::uint64_t digest = 0;
};

BackendRun run_backend(const NetworkConfig& net_config,
                       const sim::SimConfig& sim_config, Backend backend,
                       bool store_forward = false) {
  // Keep whichever backing object the NetView points at alive for the
  // whole run, exactly like experiment::run_point does.
  std::unique_ptr<const Network> materialized;
  ImplicitTopologyPtr implicit;
  if (backend == Backend::kImplicit) {
    implicit = std::make_shared<const ImplicitTopology>(net_config);
  } else {
    materialized = std::make_unique<const Network>(
        topology::build_network(net_config));
  }
  const NetView network = backend == Backend::kImplicit
                              ? NetView(implicit)
                              : NetView(*materialized);
  const auto router = routing::make_router(network);
  traffic::StandardTraffic traffic(network, test_workload());
  BackendRun run;
  if (store_forward) {
    sim::SimConfig sf;
    sf.seed = sim_config.seed;
    sf.buffer_depth = 2;
    sf.warmup_cycles = sim_config.warmup_cycles;
    sf.measure_cycles = sim_config.measure_cycles;
    sf.drain_cycles = sim_config.drain_cycles;
    sim::StoreForwardEngine engine(network, *router, &traffic, sf);
    run.result = engine.run();
  } else {
    sim::Engine engine(network, *router, &traffic, sim_config);
    run.result = engine.run();
  }
  run.digest = digest(run.result, network);
  return run;
}

TEST(ImplicitBackend, GoldenCasesBitwiseIdentical) {
  for (const NetworkConfig& config : record_configs()) {
    SCOPED_TRACE(config.describe());
    const BackendRun mat =
        run_backend(config, test_sim_config(), Backend::kMaterialized);
    const BackendRun imp =
        run_backend(config, test_sim_config(), Backend::kImplicit);
    EXPECT_EQ(mat.digest, imp.digest);
    EXPECT_EQ(mat.result.delivered_messages_total,
              imp.result.delivered_messages_total);
  }
}

TEST(ImplicitBackend, RandomArbitrationBitwiseIdentical) {
  sim::SimConfig config = test_sim_config();
  config.arbitration = sim::ArbitrationOrder::kRandom;
  const NetworkConfig net = base_config(NetworkKind::kTMIN);
  EXPECT_EQ(run_backend(net, config, Backend::kMaterialized).digest,
            run_backend(net, config, Backend::kImplicit).digest);
}

TEST(ImplicitBackend, StoreForwardBitwiseIdentical) {
  for (NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kBMIN}) {
    const NetworkConfig net = base_config(kind);
    SCOPED_TRACE(net.describe());
    EXPECT_EQ(
        run_backend(net, test_sim_config(), Backend::kMaterialized, true)
            .digest,
        run_backend(net, test_sim_config(), Backend::kImplicit, true)
            .digest);
  }
}

TEST(ImplicitBackend, FlowControlSchemesBitwiseIdentical) {
  for (sim::FlowControlScheme scheme :
       {sim::FlowControlScheme::kCredit, sim::FlowControlScheme::kOnOff,
        sim::FlowControlScheme::kVirtualCutThrough}) {
    for (NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kBMIN}) {
      sim::SimConfig config = test_sim_config();
      config.flow_control = scheme;
      // Virtual cut-through admits a worm only when the whole packet
      // fits, so its buffers must cover the longest message (64 flits).
      config.buffer_depth =
          scheme == sim::FlowControlScheme::kVirtualCutThrough ? 64 : 4;
      config.credit_delay = 2;
      const NetworkConfig net = base_config(kind);
      SCOPED_TRACE(std::string(sim::to_string(scheme)) + " " +
                   net.describe());
      EXPECT_EQ(run_backend(net, config, Backend::kMaterialized).digest,
                run_backend(net, config, Backend::kImplicit).digest);
    }
  }
}

// A mid-size implicit run under the full runtime validator: every
// invariant the validator checks (active sets, lane states, credit
// conservation) must hold when topology records are
// recomputed on the fly rather than read from the graph.
TEST(ImplicitBackend, ValidatorCleanOnMidSizeNetwork) {
  NetworkConfig net;
  net.kind = NetworkKind::kTMIN;
  net.topology = "cube";
  net.radix = 4;
  net.stages = 4;  // 256 nodes
  net.dilation = 1;
  net.vcs = 1;
  sim::SimConfig config = test_sim_config();
  config.validate = true;
  config.warmup_cycles = 200;
  config.measure_cycles = 1'000;
  config.drain_cycles = 500;
  const BackendRun imp = run_backend(net, config, Backend::kImplicit);
  sim::SimConfig plain = config;
  plain.validate = false;
  const BackendRun mat = run_backend(net, plain, Backend::kMaterialized);
  EXPECT_EQ(imp.digest, mat.digest);  // validator is a pure observer too
  EXPECT_GT(imp.result.delivered_messages_total, 0u);
}

}  // namespace
}  // namespace wormsim
