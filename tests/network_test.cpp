// Structural tests for the network graph builders: channel counts, wiring,
// lane registration, dilation and virtual-channel expansion, and the BMIN
// up/down channel pairing (Figs. 3-6 of the paper).
#include <gtest/gtest.h>

#include <map>

#include "topology/network.hpp"

namespace wormsim::topology {
namespace {

NetworkConfig base_config(NetworkKind kind, const std::string& topo,
                          unsigned k, unsigned n) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = topo;
  config.radix = k;
  config.stages = n;
  config.dilation = kind == NetworkKind::kDMIN ? 2 : 1;
  config.vcs = kind == NetworkKind::kVMIN ? 2 : 1;
  return config;
}

TEST(Network, TminChannelCounts) {
  // N injection + (n-1)*N inter-stage + N ejection channels, 1 lane each.
  const Network net =
      build_network(base_config(NetworkKind::kTMIN, "cube", 4, 3));
  const std::uint64_t N = 64;
  EXPECT_EQ(net.node_count(), N);
  EXPECT_EQ(net.switches().size(), 3u * 16u);
  EXPECT_EQ(net.channels().size(), N + 2 * N + N);
  EXPECT_EQ(net.lane_count(), net.channels().size());
}

TEST(Network, DminDoublesInterstageChannels) {
  const Network net =
      build_network(base_config(NetworkKind::kDMIN, "cube", 4, 3));
  const std::uint64_t N = 64;
  // Node links are not dilated (one-port architecture).
  EXPECT_EQ(net.channels().size(), N + 2 * (2 * N) + N);
  EXPECT_EQ(net.lane_count(), net.channels().size());
}

TEST(Network, VminAddsLanesNotChannels) {
  const Network net =
      build_network(base_config(NetworkKind::kVMIN, "cube", 4, 3));
  const std::uint64_t N = 64;
  EXPECT_EQ(net.channels().size(), N + 2 * N + N);
  // Inter-stage channels carry 2 lanes; node links carry 1.
  EXPECT_EQ(net.lane_count(), N + 2 * (2 * N) + N);
}

TEST(Network, VminEjectionVcVariant) {
  NetworkConfig config = base_config(NetworkKind::kVMIN, "cube", 4, 3);
  config.vc_node_links = true;
  const Network net = build_network(config);
  const std::uint64_t N = 64;
  // Ejection channels carry vcs lanes; injection stays single-lane.
  EXPECT_EQ(net.lane_count(), N + 2 * (2 * N) + 2 * N);
  for (NodeId node = 0; node < N; ++node) {
    EXPECT_EQ(net.channel(net.ejection_channel(node)).num_lanes, 2);
    EXPECT_EQ(net.channel(net.injection_channel(node)).num_lanes, 1);
  }
}

TEST(Network, BminChannelCounts) {
  const Network net = build_network(base_config(NetworkKind::kBMIN, "", 4, 3));
  const std::uint64_t N = 64;
  // 2N node links + 2 channels (up+down) per inter-stage address.
  EXPECT_EQ(net.channels().size(), 2 * N + 2 * (2 * N));
}

TEST(Network, EveryNodeHasItsChannels) {
  for (NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kDMIN,
                           NetworkKind::kVMIN, NetworkKind::kBMIN}) {
    const Network net = build_network(base_config(kind, "cube", 2, 3));
    for (NodeId node = 0; node < net.node_count(); ++node) {
      const PhysChannel& inj = net.channel(net.injection_channel(node));
      EXPECT_EQ(inj.src.id, node);
      EXPECT_TRUE(inj.src.is_node());
      EXPECT_EQ(inj.role, ChannelRole::kInjection);
      const PhysChannel& ej = net.channel(net.ejection_channel(node));
      EXPECT_EQ(ej.dst.id, node);
      EXPECT_EQ(ej.role, ChannelRole::kEjection);
    }
  }
}

TEST(Network, UnidirectionalSwitchPortOccupancy) {
  const Network net =
      build_network(base_config(NetworkKind::kTMIN, "cube", 4, 3));
  for (const Switch& sw : net.switches()) {
    for (unsigned p = 0; p < 4; ++p) {
      EXPECT_EQ(sw.left.in_lanes[p].size(), 1u);
      EXPECT_EQ(sw.right.out_lanes[p].size(), 1u);
      EXPECT_TRUE(sw.left.out_lanes[p].empty());
      EXPECT_TRUE(sw.right.in_lanes[p].empty());
    }
  }
}

TEST(Network, DminSwitchPortsCarryTwoChannels) {
  const Network net =
      build_network(base_config(NetworkKind::kDMIN, "cube", 4, 3));
  for (const Switch& sw : net.switches()) {
    for (unsigned p = 0; p < 4; ++p) {
      if (sw.stage == 0) {
        EXPECT_EQ(sw.left.in_lanes[p].size(), 1u);  // node link not dilated
      } else {
        EXPECT_EQ(sw.left.in_lanes[p].size(), 2u);
      }
      if (sw.stage == 2) {
        EXPECT_EQ(sw.right.out_lanes[p].size(), 1u);  // ejection
      } else {
        EXPECT_EQ(sw.right.out_lanes[p].size(), 2u);
      }
    }
  }
}

TEST(Network, BminSwitchPortsHaveBothDirections) {
  const Network net = build_network(base_config(NetworkKind::kBMIN, "", 2, 3));
  for (const Switch& sw : net.switches()) {
    for (unsigned p = 0; p < 2; ++p) {
      // Left side: one incoming (up) and one outgoing (down) lane.
      EXPECT_EQ(sw.left.in_lanes[p].size(), 1u);
      EXPECT_EQ(sw.left.out_lanes[p].size(), 1u);
      if (sw.stage + 1 < net.stages()) {
        EXPECT_EQ(sw.right.out_lanes[p].size(), 1u);
        EXPECT_EQ(sw.right.in_lanes[p].size(), 1u);
      } else {
        // Top stage: right ports reserved for larger configurations.
        EXPECT_TRUE(sw.right.out_lanes[p].empty());
        EXPECT_TRUE(sw.right.in_lanes[p].empty());
      }
    }
  }
}

TEST(Network, BminUpDownChannelsMirror) {
  const Network net = build_network(base_config(NetworkKind::kBMIN, "", 4, 3));
  // For every forward inter-stage channel there is a backward channel with
  // swapped endpoints and the same address.
  std::map<std::pair<unsigned, std::uint64_t>, int> directions;
  for (const PhysChannel& ch : net.channels()) {
    if (ch.role == ChannelRole::kForward) {
      directions[{ch.conn_index, ch.address}] += 1;
    } else if (ch.role == ChannelRole::kBackward) {
      directions[{ch.conn_index, ch.address}] += 16;
    }
  }
  for (const auto& [key, value] : directions) {
    EXPECT_EQ(value, 17) << "level " << key.first << " addr " << key.second;
  }
}

TEST(Network, CubeWiringMatchesFig4a) {
  // In the 8-node cube TMIN (Fig. 4a), node s connects to left port
  // sigma(s) of stage 0: node 001 -> address 010 (switch 1, port 0).
  const Network net =
      build_network(base_config(NetworkKind::kTMIN, "cube", 2, 3));
  const PhysChannel& inj = net.channel(net.injection_channel(0b001));
  EXPECT_EQ(inj.dst.id, net.switch_at(0, 1));
  EXPECT_EQ(inj.dst.port, 0);
  // Ejection side: C_n = beta_0 = identity, so right address a of G_2
  // feeds node a: node 5's ejection channel leaves switch 2 port 1.
  const PhysChannel& ej = net.channel(net.ejection_channel(0b101));
  EXPECT_EQ(ej.src.id, net.switch_at(2, 2));
  EXPECT_EQ(ej.src.port, 1);
}

TEST(Network, ButterflyWiringMatchesFig4b) {
  // In the butterfly TMIN, C_0 is the identity: node s feeds left port
  // s % k of switch s / k at stage 0.
  const Network net =
      build_network(base_config(NetworkKind::kTMIN, "butterfly", 2, 3));
  for (NodeId s = 0; s < net.node_count(); ++s) {
    const PhysChannel& inj = net.channel(net.injection_channel(s));
    EXPECT_EQ(inj.dst.id, net.switch_at(0, s / 2));
    EXPECT_EQ(inj.dst.port, s % 2);
  }
}

TEST(Network, InterstageAddressesAreConnectionImages) {
  // Channel into stage i with address b must leave the switch holding
  // right-side address C_i^{-1}(b).
  const Network net =
      build_network(base_config(NetworkKind::kTMIN, "cube", 4, 3));
  const auto& spec = net.topology();
  const auto& addr = net.address_spec();
  for (const PhysChannel& ch : net.channels()) {
    if (ch.role != ChannelRole::kForward) continue;
    const unsigned i = ch.conn_index;
    const std::uint64_t right_addr =
        spec.connection(i).inverse().apply(addr, ch.address);
    EXPECT_EQ(ch.src.id, net.switch_at(i - 1, right_addr / 4));
    EXPECT_EQ(ch.src.port, right_addr % 4);
    EXPECT_EQ(ch.dst.id, net.switch_at(i, ch.address / 4));
    EXPECT_EQ(ch.dst.port, ch.address % 4);
  }
}

TEST(Network, DescribeStrings) {
  EXPECT_EQ(build_network(base_config(NetworkKind::kTMIN, "cube", 4, 3))
                .config()
                .describe(),
            "TMIN(cube,k=4,n=3)");
  EXPECT_EQ(build_network(base_config(NetworkKind::kDMIN, "cube", 4, 3))
                .config()
                .describe(),
            "DMIN(cube,k=4,n=3,d=2)");
  EXPECT_EQ(build_network(base_config(NetworkKind::kVMIN, "cube", 4, 3))
                .config()
                .describe(),
            "VMIN(cube,k=4,n=3,m=2)");
  EXPECT_EQ(build_network(base_config(NetworkKind::kBMIN, "x", 4, 3))
                .config()
                .describe(),
            "BMIN(butterfly,k=4,n=3)");
}

// 8^21 = 2^63 nodes and 8^22 (which wraps to 0 in 64 bits) must abort on
// the size check before the builder allocates anything.
TEST(NetworkDeath, NodeCountBeyond32BitIdsAborts) {
  for (const unsigned n : {21u, 22u}) {
    EXPECT_DEATH(build_network(base_config(NetworkKind::kTMIN, "cube", 8, n)),
                 "32-bit id space");
    EXPECT_DEATH(
        build_network(base_config(NetworkKind::kBMIN, "butterfly", 8, n)),
        "32-bit id space");
  }
}

// Parameterized structural sweep across kinds, topologies and shapes.
struct ShapeParam {
  NetworkKind kind;
  const char* topology;
  unsigned k, n;
};

class NetworkShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(NetworkShapes, ValidatesAndBalances) {
  const ShapeParam p = GetParam();
  const Network net = build_network(base_config(p.kind, p.topology, p.k, p.n));
  EXPECT_EQ(net.node_count(), util::ipow(p.k, p.n));
  EXPECT_EQ(net.switches().size(),
            static_cast<std::size_t>(p.n) * net.switches_per_stage());
  // validate() ran inside build_network; run again on the copy.
  net.validate();
  // Sides: every switch owns exactly k ports on each side.
  for (const Switch& sw : net.switches()) {
    EXPECT_EQ(sw.left.in_lanes.size(), p.k);
    EXPECT_EQ(sw.right.out_lanes.size(), p.k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NetworkShapes,
    ::testing::Values(
        ShapeParam{NetworkKind::kTMIN, "cube", 2, 3},
        ShapeParam{NetworkKind::kTMIN, "butterfly", 2, 4},
        ShapeParam{NetworkKind::kTMIN, "omega", 4, 3},
        ShapeParam{NetworkKind::kTMIN, "baseline", 2, 4},
        ShapeParam{NetworkKind::kTMIN, "flip", 2, 3},
        ShapeParam{NetworkKind::kDMIN, "cube", 4, 3},
        ShapeParam{NetworkKind::kDMIN, "butterfly", 2, 4},
        ShapeParam{NetworkKind::kVMIN, "cube", 4, 3},
        ShapeParam{NetworkKind::kVMIN, "omega", 2, 5},
        ShapeParam{NetworkKind::kBMIN, "butterfly", 2, 3},
        ShapeParam{NetworkKind::kBMIN, "butterfly", 4, 3},
        ShapeParam{NetworkKind::kBMIN, "butterfly", 8, 2},
        ShapeParam{NetworkKind::kTMIN, "cube", 8, 2},
        ShapeParam{NetworkKind::kTMIN, "cube", 4, 4}));

}  // namespace
}  // namespace wormsim::topology
