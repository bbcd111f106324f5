// Runtime fault injection (ROADMAP item 5, DESIGN.md §14).
//
// Covers the end-to-end contract of the fault subsystem:
//   - an *empty* plan (fault_fraction = 0, arbitrary seed / cycle knobs)
//     leaves every golden digest bitwise identical to the committed
//     snapshot — the zero-fault hot path must not change by one bit;
//   - TMIN runtime delivery under a cycle-0 kill matches the static
//     analysis::fault_coverage reachability pair for pair (unique-path
//     networks have no adaptivity to diverge from the static picture);
//   - adaptive (dilated) networks route around a single interior fault;
//   - mid-run kills truncate-and-account (terminated worms counted, flits
//     reconciled) under the full validator;
//   - repairs restore delivery for pairs the kill had disconnected;
//   - the store-and-forward reference applies the same plan semantics;
//   - implicit and materialized backends draw the same plan and coverage;
//   - telemetry attributes fault terminations (counters + worm trace).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "analysis/fault.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injection/plan.hpp"
#include "sim/store_forward.hpp"
#include "telemetry/worm_trace.hpp"
#include "topology/implicit.hpp"
#include "topology/net_view.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim {
namespace {

using topology::ChannelId;
using topology::ImplicitTopology;
using topology::ImplicitTopologyPtr;
using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;
using topology::NetView;
using topology::NodeId;

// ---- Golden digest replica (tests/golden_test.cpp) ----------------------
// Same FNV-1a over the same SimResult field list; the empty-plan property
// below compares against the committed engine_golden.inc values, so the
// two files must hash identically.

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void stats(const util::OnlineStats& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
    f64(s.min());
    f64(s.max());
  }
};

std::uint64_t digest(const SimResult& r) {
  Fnv f;
  f.stats(r.latency_cycles);
  f.stats(r.network_latency_cycles);
  f.stats(r.queueing_cycles);
  f.u64(r.latency_histogram.total());
  for (std::size_t i = 0; i <= r.latency_histogram.bin_count(); ++i) {
    f.u64(r.latency_histogram.bin(i));
  }
  f.u64(r.delivered_flits_in_window);
  f.u64(r.generated_messages_in_window);
  f.u64(r.generated_flits_in_window);
  f.u64(r.delivered_messages_total);
  f.u64(r.dropped_messages);
  f.u64(r.max_source_queue);
  f.u64(r.measured_messages_unfinished);
  for (std::uint64_t busy : r.channel_busy_cycles) f.u64(busy);
  for (std::uint64_t v : r.telemetry_counters.lane_flits) f.u64(v);
  for (std::uint64_t v : r.telemetry_counters.lane_blocked) f.u64(v);
  for (std::uint64_t v : r.telemetry_counters.switch_grants) f.u64(v);
  for (std::uint64_t v : r.telemetry_counters.switch_denials) f.u64(v);
  for (const telemetry::Sample& s : r.telemetry_samples) {
    f.u64(s.cycle);
    f.u64(s.delivered_flits);
    f.u64(static_cast<std::uint64_t>(s.flits_in_flight));
    f.u64(static_cast<std::uint64_t>(s.worms_in_flight));
    f.f64(s.mean_queue_depth);
  }
  return f.h;
}

struct GoldenCase {
  const char* name;
  topology::NetworkKind kind;
  ArbitrationOrder arbitration;
  bool store_forward;
  unsigned vcs = 2;
  std::uint32_t buffer_depth = 1;
  std::uint32_t credit_delay = 0;
};

constexpr GoldenCase kCases[] = {
    {"TMIN", topology::NetworkKind::kTMIN, ArbitrationOrder::kRotating, false},
    {"DMIN", topology::NetworkKind::kDMIN, ArbitrationOrder::kRotating, false},
    {"VMIN", topology::NetworkKind::kVMIN, ArbitrationOrder::kRotating, false},
    {"BMIN", topology::NetworkKind::kBMIN, ArbitrationOrder::kRotating, false},
    {"TMIN_rand_arb", topology::NetworkKind::kTMIN, ArbitrationOrder::kRandom,
     false},
    {"BMIN_1vc", topology::NetworkKind::kBMIN, ArbitrationOrder::kRotating,
     false, 1},
    {"BMIN_vc_deep", topology::NetworkKind::kBMIN,
     ArbitrationOrder::kRotating, false, 2, 4, 2},
    {"SF_TMIN", topology::NetworkKind::kTMIN, ArbitrationOrder::kRotating,
     true},
    {"SF_BMIN", topology::NetworkKind::kBMIN, ArbitrationOrder::kRotating,
     true},
};

struct GoldenExpect {
  const char* name;
  std::uint64_t digest;
  std::uint64_t delivered_messages_total;
  std::uint64_t latency_mean_bits;
};

constexpr GoldenExpect kExpected[] = {
#include "engine_golden.inc"
};

NetworkConfig golden_network(NetworkKind kind, unsigned vcs = 2) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = "cube";
  config.radix = 2;
  config.stages = 3;
  config.dilation = 2;
  config.vcs = vcs;
  return config;
}

traffic::WorkloadSpec golden_workload() {
  traffic::WorkloadSpec workload;
  workload.offered = 0.45;
  workload.length = traffic::LengthSpec::uniform(4, 64);
  return workload;
}

// The empty-plan property: fault knobs set but fraction = 0 must take the
// untouched zero-fault path — same digests as a run that never heard of
// fault injection.  Catches any fraction-independent setup cost leaking
// into RNG draw order or move scheduling.
TEST(FaultInjection, EmptyPlanDigestsMatchCommittedSnapshot) {
  ASSERT_EQ(std::size(kExpected), std::size(kCases));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const GoldenCase& gc = kCases[i];
    SCOPED_TRACE(gc.name);
    const Network net =
        topology::build_network(golden_network(gc.kind, gc.vcs));
    const auto router = routing::make_router(net);
    traffic::WorkloadSpec workload = golden_workload();
    traffic::StandardTraffic traffic(net, workload);
    SimResult r;
    if (gc.store_forward) {
      SimConfig config;
      config.seed = 7;
      config.buffer_depth = 2;
      config.warmup_cycles = 500;
      config.measure_cycles = 4'000;
      config.drain_cycles = 1'500;
      config.fault_fraction = 0.0;  // empty plan...
      config.fault_seed = 99;       // ...despite non-default knobs
      config.fault_at_cycle = 123;
      StoreForwardEngine engine(net, *router, &traffic, config);
      r = engine.run();
    } else {
      SimConfig config;
      config.seed = 7;
      config.arbitration = gc.arbitration;
      config.buffer_depth = gc.buffer_depth;
      config.credit_delay = gc.credit_delay;
      config.warmup_cycles = 500;
      config.measure_cycles = 4'000;
      config.drain_cycles = 1'500;
      config.telemetry.counters = true;
      config.telemetry.sampling = true;
      config.telemetry.sample_interval_cycles = 256;
      config.telemetry.sample_capacity = 64;
      config.fault_fraction = 0.0;
      config.fault_seed = 99;
      config.fault_at_cycle = 123;
      Engine engine(net, *router, &traffic, config);
      r = engine.run();
    }
    EXPECT_EQ(digest(r), kExpected[i].digest);
    EXPECT_EQ(r.delivered_messages_total, kExpected[i].delivered_messages_total);
    EXPECT_EQ(r.terminated_messages, 0u);
    EXPECT_EQ(r.terminated_flits, 0u);
  }
}

// ---- Runtime vs static reachability -------------------------------------

/// One manually driven worm per engine: did (src -> dst) deliver under
/// `plan` (killed at cycle 0, i.e. before the header moves)?
bool pair_delivers(const Network& net, const routing::Router& router,
                   const fault_injection::FaultPlan& plan, NodeId src,
                   std::uint64_t dst) {
  SimConfig config;
  config.seed = 3;
  config.warmup_cycles = 0;
  config.measure_cycles = 1 << 20;
  config.drain_cycles = 0;
  config.validate = true;
  Engine engine(net, router, nullptr, config);
  engine.set_fault_plan(plan);
  const PacketId pid = engine.inject_message(src, dst, 4);
  EXPECT_TRUE(engine.run_until_idle(10'000));
  const PacketState& pkt = engine.packet(pid);
  EXPECT_TRUE(pkt.delivered() || pkt.terminated())
      << src << "->" << dst << " neither delivered nor terminated";
  return pkt.delivered();
}

// On a unique-path network a cycle-0 kill is exactly the static picture:
// every ordered pair delivers iff analysis::pair_survives says its one
// route avoids the dead set, and the aggregate delivery fraction equals
// fault_coverage().fraction().  This is the low-load convergence claim
// the degraded-SLO figures rely on, pinned as a regression test.
TEST(FaultInjection, TminDeliveryMatchesStaticCoverage) {
  NetworkConfig nc;
  nc.kind = NetworkKind::kTMIN;
  nc.topology = "cube";
  nc.radix = 2;
  nc.stages = 4;
  const Network net = topology::build_network(nc);
  const NetView view(net);
  const auto router = routing::make_router(net);
  const fault_injection::FaultPlan plan =
      fault_injection::build_fault_plan(view, 0.15, /*seed=*/5,
                                        /*at_cycle=*/0);
  ASSERT_FALSE(plan.channels.empty()) << "fraction drew no faults";
  const analysis::FaultSet faults(plan.channels.begin(), plan.channels.end());

  std::uint64_t delivered = 0;
  std::uint64_t total = 0;
  const std::uint64_t nodes = net.node_count();
  for (NodeId src = 0; src < nodes; ++src) {
    for (std::uint64_t dst = 0; dst < nodes; ++dst) {
      if (src == dst) continue;
      ++total;
      const bool runtime = pair_delivers(net, *router, plan, src, dst);
      const bool survives =
          analysis::pair_survives(view, *router, src, dst, faults);
      EXPECT_EQ(runtime, survives)
          << src << "->" << dst << " runtime/static disagree";
      if (runtime) ++delivered;
    }
  }
  const analysis::FaultCoverage coverage =
      analysis::fault_coverage(view, *router, faults);
  EXPECT_EQ(coverage.total_pairs, total);
  EXPECT_EQ(coverage.connected_pairs, delivered);
  EXPECT_LT(coverage.connected_pairs, coverage.total_pairs)
      << "fault set disconnected nothing; test has no teeth";
}

// A dilated network must route every pair around one dead interior
// channel — the single-fault tolerance claim of Section 2.1, now under
// the runtime kill instead of the static analyzer.
TEST(FaultInjection, AdaptiveRoutesAroundSingleInteriorFault) {
  const Network net = topology::build_network(
      golden_network(NetworkKind::kDMIN));
  const NetView view(net);
  const auto router = routing::make_router(net);

  ChannelId interior = topology::kInvalidId;
  for (ChannelId ch = 0; ch < view.channel_count(); ++ch) {
    const auto& phys = net.channel(ch);
    if (!phys.src.is_node() && !phys.dst.is_node()) {
      interior = ch;
      break;
    }
  }
  ASSERT_NE(interior, topology::kInvalidId);
  fault_injection::FaultPlan plan;
  fault_injection::add_channel_kill(plan, view, interior);
  plan.at_cycle = 0;

  const std::uint64_t nodes = net.node_count();
  for (NodeId src = 0; src < nodes; ++src) {
    for (std::uint64_t dst = 0; dst < nodes; ++dst) {
      if (src == dst) continue;
      EXPECT_TRUE(pair_delivers(net, *router, plan, src, dst))
          << src << "->" << dst << " lost to a single dilated-channel fault";
    }
  }
}

// Mid-run kill under live traffic with the full validator on: worms are
// truncated and accounted (terminated counters move, delivery fraction
// drops below one) and no invariant fires anywhere in kill, drain, or
// the degraded steady state.
TEST(FaultInjection, MidRunKillTruncatesAndAccounts) {
  const Network net = topology::build_network(
      golden_network(NetworkKind::kTMIN));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload = golden_workload();
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  config.validate = true;
  config.fault_fraction = 0.2;
  config.fault_seed = 2;
  config.fault_at_cycle = 250;  // mid-warmup: kill lands under live worms
  Engine engine(net, *router, &traffic, config);
  const SimResult r = engine.run();
  EXPECT_GT(r.terminated_messages, 0u);
  EXPECT_GT(r.terminated_flits, 0u);
  EXPECT_GT(r.delivered_messages_total, 0u);
  EXPECT_LT(r.delivery_fraction(), 1.0);
  EXPECT_GT(r.delivery_fraction(), 0.0);
}

// Repair brings a disconnected pair back: the same pair that a permanent
// kill terminates is delivered once the plan's repair_cycle has passed.
TEST(FaultInjection, RepairRestoresDelivery) {
  NetworkConfig nc;
  nc.kind = NetworkKind::kTMIN;
  nc.topology = "cube";
  nc.radix = 2;
  nc.stages = 3;
  const Network net = topology::build_network(nc);
  const NetView view(net);
  const auto router = routing::make_router(net);

  // Find an interior channel and a pair whose unique path needs it.
  ChannelId victim = topology::kInvalidId;
  NodeId src = 0;
  std::uint64_t dst = 0;
  for (ChannelId ch = 0; ch < view.channel_count() && victim == topology::kInvalidId;
       ++ch) {
    const auto& phys = net.channel(ch);
    if (phys.src.is_node() || phys.dst.is_node()) continue;
    const analysis::FaultSet faults{ch};
    for (NodeId s = 0; s < net.node_count(); ++s) {
      for (std::uint64_t d = 0; d < net.node_count(); ++d) {
        if (s == d) continue;
        if (!analysis::pair_survives(view, *router, s, d, faults)) {
          victim = ch;
          src = s;
          dst = d;
          break;
        }
      }
      if (victim != topology::kInvalidId) break;
    }
  }
  ASSERT_NE(victim, topology::kInvalidId)
      << "no interior channel disconnects any TMIN pair";

  const auto run_pair = [&](std::uint64_t repair_cycle) {
    SimConfig config;
    config.seed = 3;
    config.warmup_cycles = 0;
    config.measure_cycles = 1 << 20;
    config.drain_cycles = 0;
    config.validate = true;
    Engine engine(net, *router, nullptr, config);
    fault_injection::FaultPlan plan;
    fault_injection::add_channel_kill(plan, view, victim);
    plan.at_cycle = 0;
    plan.repair_cycle = repair_cycle;
    engine.set_fault_plan(plan);
    // Inject only after any repair has landed: fault-starved worms are
    // terminated (never parked awaiting repair), so the injection time
    // decides which network the worm sees.
    while (engine.cycle() < 64) engine.step();
    const PacketId pid = engine.inject_message(src, dst, 4);
    EXPECT_TRUE(engine.run_until_idle(10'000));
    return engine.packet(pid).delivered();
  };

  EXPECT_FALSE(run_pair(kNoCycle)) << "permanent kill should terminate";
  EXPECT_TRUE(run_pair(32)) << "repaired network should deliver";
}

// The store-and-forward reference applies the same plan semantics:
// packet-granular kills, terminated accounting, degraded delivery.
TEST(FaultInjection, StoreForwardKillTerminatesAndAccounts) {
  const Network net = topology::build_network(
      golden_network(NetworkKind::kTMIN));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload = golden_workload();
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 7;
  config.buffer_depth = 2;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  config.validate = true;
  config.fault_fraction = 0.2;
  config.fault_seed = 2;
  config.fault_at_cycle = 250;
  StoreForwardEngine engine(net, *router, &traffic, config);
  const SimResult r = engine.run();
  EXPECT_GT(r.terminated_messages, 0u);
  EXPECT_GT(r.delivered_messages_total, 0u);
  EXPECT_LT(r.delivery_fraction(), 1.0);
}

// The plan is drawn from the view in ascending channel-id order, so the
// implicit and materialized backends must name the same dead set and the
// same static coverage — the cross-check the degraded figures print.
TEST(FaultInjection, ImplicitAndMaterializedDrawSamePlanAndCoverage) {
  NetworkConfig nc;
  nc.kind = NetworkKind::kTMIN;
  nc.topology = "cube";
  nc.radix = 2;
  nc.stages = 4;
  ASSERT_TRUE(ImplicitTopology::supports(nc));

  const Network materialized = topology::build_network(nc);
  const NetView mat_view(materialized);
  const ImplicitTopologyPtr implicit =
      std::make_shared<const ImplicitTopology>(nc);
  const NetView imp_view(implicit);

  const fault_injection::FaultPlan mat_plan =
      fault_injection::build_fault_plan(mat_view, 0.2, /*seed=*/9,
                                        /*at_cycle=*/0);
  const fault_injection::FaultPlan imp_plan =
      fault_injection::build_fault_plan(imp_view, 0.2, /*seed=*/9,
                                        /*at_cycle=*/0);
  ASSERT_FALSE(mat_plan.channels.empty());
  EXPECT_EQ(mat_plan.channels, imp_plan.channels);

  const analysis::FaultSet faults(mat_plan.channels.begin(),
                                  mat_plan.channels.end());
  const auto mat_router = routing::make_router(mat_view);
  const auto imp_router = routing::make_router(imp_view);
  const analysis::FaultCoverage mat_cov =
      analysis::fault_coverage(mat_view, *mat_router, faults);
  const analysis::FaultCoverage imp_cov =
      analysis::fault_coverage(imp_view, *imp_router, faults);
  EXPECT_EQ(mat_cov.total_pairs, imp_cov.total_pairs);
  EXPECT_EQ(mat_cov.connected_pairs, imp_cov.connected_pairs);
}

// Telemetry attribution: the per-lane fault-termination counters and the
// worm trace agree with the SimResult accounting.
TEST(FaultInjection, TelemetryAttributesFaultTerminations) {
  const Network net = topology::build_network(
      golden_network(NetworkKind::kTMIN));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload = golden_workload();
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  config.telemetry.counters = true;
  config.telemetry.worm_trace = true;
  config.fault_fraction = 0.2;
  config.fault_seed = 2;
  config.fault_at_cycle = 1'000;  // inside the measurement window
  Engine engine(net, *router, &traffic, config);
  const SimResult r = engine.run();
  ASSERT_GT(r.terminated_messages, 0u);

  // Counters cover the measurement window only; terminations can also
  // land in the drain, so the window total is a positive lower bound.
  const std::uint64_t counted =
      r.telemetry_counters.total_fault_terminated_flits();
  EXPECT_GT(counted, 0u);
  EXPECT_LE(counted, r.terminated_flits);

  // The tracer sees every worm for the whole run: its terminated count
  // is exactly the engine's.
  ASSERT_NE(r.worm_trace, nullptr);
  const telemetry::WormTraceSummary summary =
      telemetry::summarize_worm_trace(*r.worm_trace);
  EXPECT_EQ(summary.terminated, r.terminated_messages);
}

}  // namespace
}  // namespace wormsim::sim
