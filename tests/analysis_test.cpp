// Tests for path enumeration (Theorem 1, Figs. 9-11) and deadlock freedom
// (Section 3.2.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/deadlock.hpp"
#include "analysis/path_enum.hpp"
#include "routing/router.hpp"
#include "topology/network.hpp"
#include "util/radix.hpp"

namespace wormsim::analysis {
namespace {

using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig make_config(NetworkKind kind, const std::string& topo,
                          unsigned k, unsigned n, unsigned d = 1,
                          unsigned m = 1) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = topo;
  config.radix = k;
  config.stages = n;
  config.dilation = d;
  config.vcs = m;
  return config;
}

TEST(PathEnum, Theorem1CountsKPowT) {
  // Butterfly BMIN: k^t shortest paths, t = FirstDifference(S, D).
  for (const auto& [k, n] : std::vector<std::pair<unsigned, unsigned>>{
           {2, 3}, {2, 4}, {4, 2}, {4, 3}}) {
    const Network net = topology::build_network(
        make_config(NetworkKind::kBMIN, "butterfly", k, n));
    const auto router = routing::make_router(net);
    for (std::uint64_t s = 0; s < net.node_count(); ++s) {
      for (std::uint64_t d = 0; d < net.node_count(); ++d) {
        if (s == d) continue;
        const unsigned t =
            util::first_difference(net.address_spec(), s, d);
        EXPECT_EQ(count_paths(net, *router, s, d), util::ipow(k, t))
            << "k=" << k << " n=" << n << " s=" << s << " d=" << d;
      }
    }
  }
}

TEST(PathEnum, Fig9Examples) {
  // Fig. 9 (8-node butterfly BMIN, 2x2 switches): FirstDifference = 2 has
  // four shortest paths; FirstDifference = 1 has two.
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, "butterfly", 2, 3));
  const auto router = routing::make_router(net);
  EXPECT_EQ(count_paths(net, *router, 0b001, 0b101), 4u);
  EXPECT_EQ(count_paths(net, *router, 0b000, 0b010), 2u);
}

TEST(PathEnum, Fig10Examples) {
  // Fig. 10 (16-node butterfly BMIN, 4x4 switches): one path when the
  // nodes share a switch (t = 0), four when t = 1.
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, "butterfly", 4, 2));
  const auto router = routing::make_router(net);
  EXPECT_EQ(count_paths(net, *router, 0, 1), 1u);
  EXPECT_EQ(count_paths(net, *router, 0, 4), 4u);
}

TEST(PathEnum, BminPathLengthsMatchTheory) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, "butterfly", 2, 3));
  const auto router = routing::make_router(net);
  for (std::uint64_t s = 0; s < 8; ++s) {
    for (std::uint64_t d = 0; d < 8; ++d) {
      if (s == d) continue;
      const unsigned t = util::first_difference(net.address_spec(), s, d);
      for (const Path& path : enumerate_paths(net, *router, s, d)) {
        EXPECT_EQ(path.channels.size(), 2 * (t + 1));
      }
    }
  }
}

TEST(PathEnum, BminPathsAreDistinct) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, "butterfly", 4, 3));
  const auto router = routing::make_router(net);
  const auto paths = enumerate_paths(net, *router, 0, 63);
  EXPECT_EQ(paths.size(), 16u);  // k^t = 4^2
  std::set<std::vector<topology::ChannelId>> unique;
  for (const Path& path : paths) unique.insert(path.channels);
  EXPECT_EQ(unique.size(), paths.size());
}

TEST(PathEnum, BminBackwardPathIsUnique) {
  // All k^t paths share their last t+1 (backward + ejection) channels'
  // property: for a fixed turn switch the backward path is unique.  Verify
  // by grouping paths by the channel entering the turn stage.
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, "butterfly", 2, 3));
  const auto router = routing::make_router(net);
  const auto paths = enumerate_paths(net, *router, 0b001, 0b101);
  std::set<std::vector<topology::ChannelId>> backward_halves;
  for (const Path& path : paths) {
    // Path: inj, up, up, down, down, eject (t = 2).
    ASSERT_EQ(path.channels.size(), 6u);
    backward_halves.insert({path.channels[3], path.channels[4],
                            path.channels[5]});
  }
  // The turn switch (reached by channels[2]) determines the backward path:
  // with 4 paths and 2 reachable turn switches there are exactly 2 distinct
  // backward halves... actually each path reaches a distinct (switch, turn)
  // combination; the invariant is: same turn switch => same backward half.
  std::set<std::pair<topology::ChannelId, std::vector<topology::ChannelId>>>
      by_turn;
  for (const Path& path : paths) {
    const auto turn_switch_channel = path.channels[2];
    by_turn.insert({turn_switch_channel,
                    {path.channels[3], path.channels[4], path.channels[5]}});
  }
  // One backward half per turn-entry channel.
  std::set<topology::ChannelId> turn_channels;
  for (const auto& [ch, half] : by_turn) turn_channels.insert(ch);
  EXPECT_EQ(by_turn.size(), turn_channels.size());
}

TEST(PathEnum, UnidirectionalMinsHaveUniquePaths) {
  // The banyan property of Delta networks under destination-tag routing.
  for (const char* topo : {"cube", "butterfly", "omega", "baseline"}) {
    const Network net =
        topology::build_network(make_config(NetworkKind::kTMIN, topo, 2, 3));
    const auto router = routing::make_router(net);
    EXPECT_TRUE(verify_unique_paths(net, *router)) << topo;
  }
}

TEST(PathEnum, DilationDoesNotAddChannelLevelPaths) {
  // Path enumeration dedupes lanes of a port's channel bundle... dilated
  // channels are distinct physical channels, so a DMIN has d^n channel
  // paths per pair but all traverse the same switch sequence.
  const Network net = topology::build_network(
      make_config(NetworkKind::kDMIN, "cube", 2, 3, /*d=*/2));
  const auto router = routing::make_router(net);
  // 2 choices per inter-stage hop (n-1 = 2 of them); injection/ejection fixed.
  EXPECT_EQ(count_paths(net, *router, 0, 7), 4u);
}

TEST(PathEnum, FullAccessEverywhere) {
  for (NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kDMIN,
                           NetworkKind::kVMIN, NetworkKind::kBMIN}) {
    const Network net =
        topology::build_network(make_config(kind, "cube", 2, 3, 2, 2));
    const auto router = routing::make_router(net);
    EXPECT_TRUE(verify_full_access(net, *router));
  }
}

TEST(PathEnum, Fig11BlockingExample) {
  // Fig. 11: messages 011 -> 111 and 001 -> 110 can contend for a common
  // backward channel — the BMIN is a blocking network.
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, "butterfly", 2, 3));
  const auto router = routing::make_router(net);
  const auto paths_a = enumerate_paths(net, *router, 0b011, 0b111);
  const auto paths_b = enumerate_paths(net, *router, 0b001, 0b110);
  bool conflict_possible = false;
  for (const Path& a : paths_a) {
    for (const Path& b : paths_b) {
      for (topology::ChannelId ch : a.channels) {
        if (std::find(b.channels.begin(), b.channels.end(), ch) !=
            b.channels.end()) {
          conflict_possible = true;
        }
      }
    }
  }
  EXPECT_TRUE(conflict_possible);
}

// ---- Deadlock freedom ------------------------------------------------------

TEST(Deadlock, CycleDetectorFindsPlantedCycle) {
  ChannelDependencyGraph graph;
  graph.adjacency = {{1}, {2}, {0}, {}};
  graph.edge_count = 3;
  const CycleSearchResult result = find_cycle(graph);
  EXPECT_FALSE(result.acyclic);
  EXPECT_GE(result.cycle.size(), 4u);  // v0 .. v0
  EXPECT_EQ(result.cycle.front(), result.cycle.back());
}

TEST(Deadlock, CycleDetectorPassesDag) {
  ChannelDependencyGraph graph;
  graph.adjacency = {{1, 2}, {3}, {3}, {}};
  graph.edge_count = 4;
  EXPECT_TRUE(find_cycle(graph).acyclic);
}

struct DeadlockParam {
  NetworkKind kind;
  const char* topology;
  unsigned k, n, d, m;
};

class DeadlockFreedom : public ::testing::TestWithParam<DeadlockParam> {};

TEST_P(DeadlockFreedom, CdgIsAcyclic) {
  const DeadlockParam p = GetParam();
  const Network net = topology::build_network(
      make_config(p.kind, p.topology, p.k, p.n, p.d, p.m));
  const auto router = routing::make_router(net);
  const ChannelDependencyGraph graph = build_cdg(net, *router);
  EXPECT_GT(graph.edge_count, 0u);
  EXPECT_TRUE(find_cycle(graph).acyclic);
}

INSTANTIATE_TEST_SUITE_P(
    Networks, DeadlockFreedom,
    ::testing::Values(DeadlockParam{NetworkKind::kTMIN, "cube", 2, 3, 1, 1},
                      DeadlockParam{NetworkKind::kTMIN, "butterfly", 2, 3, 1, 1},
                      DeadlockParam{NetworkKind::kTMIN, "cube", 4, 3, 1, 1},
                      DeadlockParam{NetworkKind::kDMIN, "cube", 4, 3, 2, 1},
                      DeadlockParam{NetworkKind::kVMIN, "cube", 4, 3, 1, 2},
                      DeadlockParam{NetworkKind::kBMIN, "butterfly", 2, 3, 1, 1},
                      DeadlockParam{NetworkKind::kBMIN, "butterfly", 2, 4, 1, 1},
                      DeadlockParam{NetworkKind::kBMIN, "butterfly", 4, 3, 1, 1},
                      DeadlockParam{NetworkKind::kBMIN, "butterfly", 4, 2, 1,
                                    2}));

}  // namespace
}  // namespace wormsim::analysis
