// Tests for link-fault coverage analysis and engine fault injection —
// the Section 2.1 motivation for multipath MINs, quantified.
#include <gtest/gtest.h>

#include "analysis/fault.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injection/plan.hpp"
#include "topology/network.hpp"
#include "util/rng.hpp"

namespace wormsim::analysis {
namespace {

using topology::ChannelRole;
using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig make_config(NetworkKind kind, unsigned k, unsigned n,
                          unsigned d = 1, unsigned m = 1,
                          unsigned extra = 0) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = "cube";
  config.radix = k;
  config.stages = n;
  config.dilation = d;
  config.vcs = m;
  config.extra_stages = extra;
  return config;
}

topology::ChannelId first_interstage(const Network& net) {
  for (const auto& ch : net.channels()) {
    if (ch.role == ChannelRole::kForward && ch.src.is_switch() &&
        ch.dst.is_switch()) {
      return ch.id;
    }
  }
  return topology::kInvalidId;
}

/// A plan that kills `channel` at cycle 0, before any flit moves.
sim::fault_injection::FaultPlan kill_at_start(const Network& net,
                                              topology::ChannelId channel) {
  sim::fault_injection::FaultPlan plan;
  sim::fault_injection::add_channel_kill(plan, net, channel);
  return plan;
}

TEST(Fault, NoFaultsMeansFullCoverage) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, 2, 3));
  const auto router = routing::make_router(net);
  const FaultCoverage coverage = fault_coverage(net, *router, {});
  EXPECT_EQ(coverage.total_pairs, 56u);
  EXPECT_EQ(coverage.connected_pairs, 56u);
  EXPECT_DOUBLE_EQ(coverage.fraction(), 1.0);
}

TEST(Fault, TminLosesPairsOnSingleFault) {
  // Unique paths: one failed inter-stage channel disconnects exactly the
  // pairs whose path crosses it.  A level-1 channel of the 8-node (k=2,
  // n=3) cube MIN fixes digits (d2, s1, s0); the free digits (s2, d1, d0)
  // give 8 combinations, one of which degenerates to s == d, leaving 7
  // real pairs.
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, 2, 3));
  const auto router = routing::make_router(net);
  const topology::ChannelId fault = first_interstage(net);
  ASSERT_NE(fault, topology::kInvalidId);
  const FaultCoverage coverage =
      fault_coverage(net, *router, FaultSet{fault});
  EXPECT_LT(coverage.connected_pairs, coverage.total_pairs);
  EXPECT_EQ(coverage.total_pairs - coverage.connected_pairs, 7u);
  EXPECT_FALSE(single_fault_tolerant(net, *router));
}

TEST(Fault, DminSurvivesAnySingleInterstageFault) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kDMIN, 2, 3, 2));
  const auto router = routing::make_router(net);
  EXPECT_TRUE(single_fault_tolerant(net, *router));
}

TEST(Fault, DminLosesPairsWhenBothSiblingsFail) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kDMIN, 2, 3, 2));
  const auto router = routing::make_router(net);
  // Fail both dilated channels of one port: same (src, dst) endpoint pair.
  const topology::ChannelId first = first_interstage(net);
  topology::ChannelId sibling = topology::kInvalidId;
  const auto& a = net.channel(first);
  for (const auto& ch : net.channels()) {
    if (ch.id != a.id && ch.role == ChannelRole::kForward &&
        ch.src.id == a.src.id && ch.src.port == a.src.port &&
        ch.dst.id == a.dst.id && ch.dst.port == a.dst.port) {
      sibling = ch.id;
    }
  }
  ASSERT_NE(sibling, topology::kInvalidId);
  const FaultCoverage coverage =
      fault_coverage(net, *router, FaultSet{first, sibling});
  EXPECT_LT(coverage.connected_pairs, coverage.total_pairs);
}

TEST(Fault, VminSharesFateAcrossVirtualLanes) {
  // Virtual channels ride the same wires: a VMIN is as fragile as a TMIN.
  const Network net =
      topology::build_network(make_config(NetworkKind::kVMIN, 2, 3, 1, 2));
  const auto router = routing::make_router(net);
  EXPECT_FALSE(single_fault_tolerant(net, *router));
}

TEST(Fault, BminInteriorIsSingleFaultTolerant) {
  // A single interior fault — up OR down — never disconnects a BMIN pair:
  // the k^t turnaround paths of every pair diversify both the forward and
  // the backward channels (each turn switch induces a distinct backward
  // route, and t >= 1 pairs reach >= k turn switches).
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, 2, 3));
  const auto router = routing::make_router(net);
  EXPECT_TRUE(single_fault_tolerant(net, *router));
}

TEST(Fault, BminPairsFailOnlyUnderCorrelatedDownFaults) {
  // Failing EVERY backward channel into one stage-0 switch cuts off the
  // two nodes under it from all turnaround (t >= 1) traffic.
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, 2, 3));
  const auto router = routing::make_router(net);
  FaultSet faults;
  for (const auto& ch : net.channels()) {
    if (ch.role == ChannelRole::kBackward && ch.dst.is_switch() &&
        ch.dst.id == 0) {
      faults.insert(ch.id);
    }
  }
  ASSERT_FALSE(faults.empty());
  const FaultCoverage coverage = fault_coverage(net, *router, faults);
  EXPECT_LT(coverage.connected_pairs, coverage.total_pairs);
  // Pairs fully outside switch 0 survive.
  EXPECT_TRUE(pair_survives(net, *router, 0b100, 0b110, faults));
  // A pair ending under switch 0 from outside does not.
  EXPECT_FALSE(pair_survives(net, *router, 0b100, 0b000, faults));
}

TEST(Fault, ExtraStageMinSurvivesSingleInteriorFault) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, 2, 3, 1, 1, /*extra=*/1));
  const auto router = routing::make_router(net);
  EXPECT_TRUE(single_fault_tolerant(net, *router));
}

TEST(Fault, EngineRoutesAroundFaultsInDmin) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kDMIN, 2, 3, 2));
  const auto router = routing::make_router(net);
  sim::SimConfig config;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 30;
  config.drain_cycles = 0;
  sim::Engine engine(net, *router, nullptr, config);
  sim::RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  engine.set_fault_plan(kill_at_start(net, first_interstage(net)));

  util::Rng rng(77);
  std::vector<sim::PacketId> ids;
  for (int i = 0; i < 100; ++i) {
    const auto src = static_cast<topology::NodeId>(rng.below(8));
    std::uint64_t dst = rng.below(8);
    while (dst == src) dst = rng.below(8);
    ids.push_back(engine.inject_message(src, dst, 16));
  }
  ASSERT_TRUE(engine.run_until_idle(200'000));
  for (sim::PacketId id : ids) {
    EXPECT_TRUE(sink.timeline(id).was_delivered());
  }
}

TEST(Fault, EngineRoutesAroundUpFaultInBmin) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, 4, 3));
  const auto router = routing::make_router(net);
  sim::SimConfig config;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 30;
  config.drain_cycles = 0;
  sim::Engine engine(net, *router, nullptr, config);
  sim::RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  engine.set_fault_plan(kill_at_start(net, first_interstage(net)));

  util::Rng rng(78);
  std::vector<sim::PacketId> ids;
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<topology::NodeId>(rng.below(64));
    std::uint64_t dst = rng.below(64);
    while (dst == src) dst = rng.below(64);
    ids.push_back(engine.inject_message(src, dst, 16));
  }
  ASSERT_TRUE(engine.run_until_idle(400'000));
  for (sim::PacketId id : ids) {
    EXPECT_TRUE(sink.timeline(id).was_delivered());
  }
}

TEST(FaultDeath, NodeLinksCannotFail) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, 2, 3));
  EXPECT_DEATH(kill_at_start(net, net.injection_channel(0)), "one-port");
}

}  // namespace
}  // namespace wormsim::analysis
