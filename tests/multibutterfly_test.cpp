// Tests for randomly-wired multibutterflies (Section 6 future work,
// ref [31]: Leighton & Maggs).
#include <gtest/gtest.h>

#include <map>

#include "analysis/deadlock.hpp"
#include "analysis/fault.hpp"
#include "analysis/path_enum.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "topology/network.hpp"
#include "util/rng.hpp"

namespace wormsim {
namespace {

using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig mbmin_config(unsigned k, unsigned n, unsigned mbd,
                           std::uint64_t wiring_seed = 0x5eed) {
  NetworkConfig config;
  config.kind = NetworkKind::kTMIN;
  config.radix = k;
  config.stages = n;
  config.dilation = 1;
  config.vcs = 1;
  config.splitter_dilation = mbd;
  config.wiring_seed = wiring_seed;
  return config;
}

TEST(Multibutterfly, StructureAndDegrees) {
  const Network net = topology::build_network(mbmin_config(2, 4, 2));
  EXPECT_EQ(net.node_count(), 16u);
  EXPECT_EQ(net.config().describe(), "MBMIN(k=2,n=4,d=2)");
  // Inter-stage channels: mbd per output port; in-degree balanced.
  std::map<topology::SwitchId, unsigned> in_degree;
  for (const auto& ch : net.channels()) {
    if (ch.role != topology::ChannelRole::kForward) continue;
    ++in_degree[ch.dst.id];
  }
  for (const auto& [sw, degree] : in_degree) {
    EXPECT_EQ(degree, 2u * 2u)  // k * mbd
        << "switch " << sw;
  }
}

TEST(Multibutterfly, DeliversEveryPair) {
  for (unsigned mbd : {1u, 2u, 3u}) {
    const Network net = topology::build_network(mbmin_config(2, 3, mbd));
    const auto router = routing::make_router(net);
    EXPECT_TRUE(analysis::verify_full_access(net, *router)) << mbd;
  }
}

TEST(Multibutterfly, PathCountMatchesSplitterDilation) {
  const Network net = topology::build_network(mbmin_config(2, 3, 2));
  const auto router = routing::make_router(net);
  for (std::uint64_t s = 0; s < 8; ++s) {
    for (std::uint64_t d = 0; d < 8; ++d) {
      if (s == d) continue;
      // Choices at stages 0..n-2; ejection is fixed.  Duplicate receivers
      // at the narrowest splitter can merge paths, so <= mbd^(n-1).
      const std::uint64_t count = analysis::count_paths(net, *router, s, d);
      EXPECT_GE(count, 1u);
      EXPECT_LE(count, 4u);
    }
  }
}

TEST(Multibutterfly, DeadlockFree) {
  const Network net = topology::build_network(mbmin_config(2, 3, 2));
  const auto router = routing::make_router(net);
  EXPECT_TRUE(analysis::verify_deadlock_free(net, *router));
}

TEST(Multibutterfly, WiringIsDeterministicPerSeed) {
  const Network a = topology::build_network(mbmin_config(2, 4, 2, 11));
  const Network b = topology::build_network(mbmin_config(2, 4, 2, 11));
  const Network c = topology::build_network(mbmin_config(2, 4, 2, 12));
  ASSERT_EQ(a.channels().size(), b.channels().size());
  bool all_equal_ab = true;
  bool all_equal_ac = true;
  for (std::size_t i = 0; i < a.channels().size(); ++i) {
    if (a.channels()[i].dst.id != b.channels()[i].dst.id) {
      all_equal_ab = false;
    }
    if (a.channels()[i].dst.id != c.channels()[i].dst.id) {
      all_equal_ac = false;
    }
  }
  EXPECT_TRUE(all_equal_ab);
  EXPECT_FALSE(all_equal_ac);  // different wiring seed, different network
}

TEST(Multibutterfly, SingleFaultTolerantWithDilationTwo) {
  // Leighton-Maggs' point: splitter redundancy provides fault tolerance.
  // With sub-blocks of one switch the last splitter degenerates to
  // parallel channels, which still tolerate a single channel fault.
  const Network net = topology::build_network(mbmin_config(2, 3, 2));
  const auto router = routing::make_router(net);
  EXPECT_TRUE(analysis::single_fault_tolerant(net, *router));
}

TEST(Multibutterfly, SimulationDeliversRandomTraffic) {
  const Network net = topology::build_network(mbmin_config(4, 3, 2));
  const auto router = routing::make_router(net);
  sim::SimConfig config;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 30;
  config.drain_cycles = 0;
  sim::Engine engine(net, *router, nullptr, config);
  sim::RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  util::Rng rng(3);
  std::vector<sim::PacketId> ids;
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<topology::NodeId>(rng.below(64));
    std::uint64_t dst = rng.below(64);
    while (dst == src) dst = rng.below(64);
    ids.push_back(engine.inject_message(
        src, dst, static_cast<std::uint32_t>(rng.between(1, 64))));
  }
  ASSERT_TRUE(engine.run_until_idle(1'000'000));
  for (sim::PacketId id : ids) {
    EXPECT_TRUE(sink.timeline(id).was_delivered());
  }
}

// Regression for the splitter block arithmetic, which now runs in
// std::uint64_t: products like (b*k + v) * sub_size and b * block_size
// approach the top of the u32 range for the largest admissible networks,
// and a silent wraparound would mis-wire blocks without crashing.  A
// radix-8 build pushes blocks/block_size through several orders of
// magnitude (4096 nodes, block_size 512 down to 8) and checks the wiring
// invariants the closed forms guarantee at every scale.
TEST(Multibutterfly, WideBlockArithmeticKeepsWiringBalanced) {
  const unsigned k = 8, n = 4, mbd = 2;
  const Network net = topology::build_network(mbmin_config(k, n, mbd));
  EXPECT_EQ(net.node_count(), 4096u);
  // Every output port fans out mbd channels; every receiving switch has
  // in-degree k * mbd.  Both only hold when recv_base and the sender
  // index b*block_size+s computed without wraparound.
  std::map<topology::SwitchId, unsigned> in_degree;
  std::uint64_t forward = 0;
  for (const auto& ch : net.channels()) {
    if (ch.role != topology::ChannelRole::kForward) continue;
    ++forward;
    ++in_degree[ch.dst.id];
    // A receiver always sits one stage downstream of its sender.
    EXPECT_EQ(net.switch_ref(ch.dst.id).stage,
              net.switch_ref(ch.src.id).stage + 1);
  }
  // (n-1) inter-stage connections, N/k senders each with k ports x mbd.
  EXPECT_EQ(forward, std::uint64_t{n - 1} * (4096 / k) * k * mbd);
  for (const auto& [sw, degree] : in_degree) {
    EXPECT_EQ(degree, k * mbd) << "switch " << sw;
  }
}

TEST(MultibutterflyDeath, RequiresPlainTminBase) {
  NetworkConfig config = mbmin_config(2, 3, 2);
  config.kind = NetworkKind::kDMIN;
  EXPECT_DEATH(topology::build_network(config), "plain TMIN");
}

}  // namespace
}  // namespace wormsim
