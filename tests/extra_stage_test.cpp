// Tests for extra-stage MINs (Section 6 future work): unidirectional MINs
// with e adaptive leading stages providing k^e route choices per pair.
#include <gtest/gtest.h>

#include "analysis/deadlock.hpp"
#include "analysis/path_enum.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "topology/network.hpp"
#include "util/radix.hpp"

namespace wormsim {
namespace {

using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig xmin_config(unsigned k, unsigned n, unsigned extra,
                          NetworkKind kind = NetworkKind::kTMIN) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = "cube";
  config.radix = k;
  config.stages = n;
  config.extra_stages = extra;
  config.dilation = kind == NetworkKind::kDMIN ? 2 : 1;
  config.vcs = kind == NetworkKind::kVMIN ? 2 : 1;
  return config;
}

TEST(ExtraStage, StructureAddsStages) {
  const Network net = topology::build_network(xmin_config(4, 3, 1));
  EXPECT_EQ(net.stages(), 4u);
  EXPECT_EQ(net.base_stages(), 3u);
  EXPECT_EQ(net.extra_stages(), 1u);
  EXPECT_EQ(net.switches().size(), 4u * 16u);
  // N injection + 3 * N inter-stage + N ejection.
  EXPECT_EQ(net.channels().size(), 64u + 3 * 64u + 64u);
  EXPECT_EQ(net.config().describe(), "TMIN(cube,k=4,n=3,x=1)");
}

TEST(ExtraStage, PathCountIsKPowE) {
  for (unsigned extra : {0u, 1u, 2u}) {
    const Network net = topology::build_network(xmin_config(2, 3, extra));
    const auto router = routing::make_router(net);
    for (std::uint64_t s = 0; s < 8; s += 3) {
      for (std::uint64_t d = 0; d < 8; ++d) {
        if (s == d) continue;
        EXPECT_EQ(analysis::count_paths(net, *router, s, d),
                  util::ipow(2, extra))
            << "e=" << extra;
      }
    }
  }
}

TEST(ExtraStage, PathsAreEdgeDisjointAfterDivergence) {
  // With one extra stage the k route choices leave the first switch on
  // distinct ports and only remerge at the destination's ejection.
  const Network net = topology::build_network(xmin_config(2, 3, 1));
  const auto router = routing::make_router(net);
  const auto paths = analysis::enumerate_paths(net, *router, 0, 5);
  ASSERT_EQ(paths.size(), 2u);
  // Same injection, same ejection, no shared inter-stage channel.
  EXPECT_EQ(paths[0].channels.front(), paths[1].channels.front());
  EXPECT_EQ(paths[0].channels.back(), paths[1].channels.back());
  for (std::size_t i = 1; i + 1 < paths[0].channels.size(); ++i) {
    for (std::size_t j = 1; j + 1 < paths[1].channels.size(); ++j) {
      EXPECT_NE(paths[0].channels[i], paths[1].channels[j]);
    }
  }
}

TEST(ExtraStage, DeliversEveryPairAndDeadlockFree) {
  const Network net = topology::build_network(xmin_config(2, 3, 2));
  const auto router = routing::make_router(net);
  EXPECT_TRUE(analysis::verify_full_access(net, *router));
  EXPECT_TRUE(analysis::verify_deadlock_free(net, *router));
}

TEST(ExtraStage, ZeroLoadLatencyUsesLongerPath) {
  const Network net = topology::build_network(xmin_config(2, 3, 1));
  const auto router = routing::make_router(net);
  sim::SimConfig config;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 30;
  config.drain_cycles = 0;
  sim::Engine engine(net, *router, nullptr, config);
  sim::RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  const sim::PacketId id = engine.inject_message(0, 7, 10);
  ASSERT_TRUE(engine.run_until_idle(10'000));
  // Path length n + extra + 1 = 5 channels.
  EXPECT_EQ(sink.timeline(id).delivered, 5u + 10u - 2u);
}

TEST(ExtraStage, RelievesSharedChannelContention) {
  // The two-worm scenario that fully serializes on a TMIN (shared
  // channels into G_1 and G_2) finishes much faster with one extra stage,
  // because the adaptive first hop usually separates the worms.
  const std::uint32_t len = 100;
  auto race = [&](unsigned extra) {
    const Network net = topology::build_network(xmin_config(2, 3, extra));
    const auto router = routing::make_router(net);
    sim::SimConfig config;
    config.seed = 3;
    config.warmup_cycles = 0;
    config.measure_cycles = 1u << 30;
    config.drain_cycles = 0;
    sim::Engine engine(net, *router, nullptr, config);
    sim::RecordingTraceSink sink;
    engine.set_trace_sink(&sink);
    const sim::PacketId a = engine.inject_message(0b000, 0b111, len);
    const sim::PacketId b = engine.inject_message(0b100, 0b110, len);
    EXPECT_TRUE(engine.run_until_idle(10'000));
    return std::max(sink.timeline(a).delivered, sink.timeline(b).delivered);
  };
  const std::uint64_t serialized = race(0);
  EXPECT_GE(serialized, 2u * len - 10);
  // With e = 1 both worms can reach disjoint paths; over a few seeds at
  // least one run must beat serialization decisively.  (Random choices
  // may still collide for a single seed, so check the best case.)
  std::uint64_t best = ~0ull;
  for (unsigned extra = 1; extra <= 2; ++extra) {
    best = std::min(best, race(extra));
  }
  EXPECT_LT(best, serialized);
}

TEST(ExtraStage, RejectedForBmin) {
  NetworkConfig config = xmin_config(2, 3, 1);
  config.kind = NetworkKind::kBMIN;
  EXPECT_DEATH(topology::build_network(config), "unidirectional");
}

TEST(ExtraStage, WorksWithDilationAndVcs) {
  const Network dmin =
      topology::build_network(xmin_config(2, 3, 1, NetworkKind::kDMIN));
  const auto router_d = routing::make_router(dmin);
  EXPECT_TRUE(analysis::verify_full_access(dmin, *router_d));
  // (k * d)^e channel-level paths through the extra stage, then d^(n-1)
  // dilated choices in the base network.
  EXPECT_EQ(analysis::count_paths(dmin, *router_d, 0, 7), 4u * 4u);

  const Network vmin =
      topology::build_network(xmin_config(2, 3, 1, NetworkKind::kVMIN));
  const auto router_v = routing::make_router(vmin);
  EXPECT_TRUE(analysis::verify_full_access(vmin, *router_v));
}

}  // namespace
}  // namespace wormsim
