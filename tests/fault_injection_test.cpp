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
//   - with 4-flit FIFOs a kill removes the victim's flits and keeps the
//     other worms' flits of the same FIFO, in order, under credit and
//     on/off flow control;
//   - a kill is permanent: a pair it disconnected stays disconnected;
//   - the store-and-forward reference applies the same plan semantics;
//   - implicit and materialized backends draw the same plan and coverage;
//   - telemetry attributes fault terminations (counters + worm trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/fault.hpp"
#include "golden_digest.hpp"
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

// Friend of Engine: reads the packets of one lane's FIFO, oldest flit
// first.
struct EngineTestPeer {
  static std::vector<PacketId> fifo_packets(const Engine& e,
                                            topology::LaneId lane) {
    std::vector<PacketId> packets;
    for (std::uint32_t s = 0; s < e.fc_.count[lane]; ++s) {
      packets.push_back(e.serial(e.fc_.slot_packet[e.fc_.slot(lane, s)]));
    }
    return packets;
  }
};

namespace {

using topology::ChannelId;
using topology::ImplicitTopology;
using topology::ImplicitTopologyPtr;
using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;
using topology::NetView;
using topology::NodeId;

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
    EXPECT_EQ(digest(r, net), kExpected[i].digest);
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
  RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  engine.set_fault_plan(plan);
  const PacketId pid = engine.inject_message(src, dst, 4);
  EXPECT_TRUE(engine.run_until_idle(10'000));
  const PacketTimeline pkt = sink.timeline(pid);
  EXPECT_TRUE(pkt.was_delivered() || pkt.was_terminated())
      << src << "->" << dst << " neither delivered nor terminated";
  return pkt.was_delivered();
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

// The same mid-warmup kill with 4-flit FIFOs and short worms, so that
// one FIFO often holds the tail of one worm and the head of the next.  A
// kill must discard the victim's flits and keep every other worm's, in
// order, in the same FIFO; a survivor moved up to the head slot is an
// unrouted header.  Each cycle the test reads every FIFO before stepping:
// a lane that held a worm terminated in that step beside one that was
// not is a kill that left a survivor (kills and routing terminations land
// before any flit moves).  The credit digests were emitted by the engine
// whose FIFOs kept their head slot apart from the slots behind it, the
// on/off ones by the engine whose kill path returned slots apart from
// fc_pop; on/off pins the GO a kill emits when it drains a FIFO across
// the resume threshold.
struct DeepKillCase {
  const char* name;
  NetworkKind kind;
  FlowControlScheme flow_control;
  std::uint32_t credit_delay;
  std::uint64_t digest;
  std::uint64_t terminated_messages;
};

void PrintTo(const DeepKillCase& c, std::ostream* os) { *os << c.name; }

class DeepFifoKill : public ::testing::TestWithParam<DeepKillCase> {};

/// The packets fault-terminated since `killed` was last cleared.
class KillSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    if (event.kind == TraceEvent::Kind::kTerminated) {
      killed.push_back(event.packet);
    }
  }
  std::vector<PacketId> killed;
};

TEST_P(DeepFifoKill, KeepsSurvivors) {
  const DeepKillCase& dc = GetParam();
  const Network net = topology::build_network(golden_network(dc.kind, 1));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload = golden_workload();
  workload.length = traffic::LengthSpec::uniform(4, 8);
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 7;
  config.flow_control = dc.flow_control;
  config.buffer_depth = 4;
  config.credit_delay = dc.credit_delay;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  config.telemetry.counters = true;
  config.validate = true;
  config.fault_fraction = 0.2;
  config.fault_seed = 2;
  config.fault_at_cycle = 250;
  Engine engine(net, *router, &traffic, config);
  KillSink kills;
  engine.set_trace_sink(&kills);
  std::vector<std::vector<PacketId>> fifos(net.lane_count());
  std::uint64_t kills_with_survivor = 0;
  std::uint64_t survivor_promoted = 0;
  while (engine.cycle() < config.total_cycles()) {
    for (topology::LaneId lane = 0; lane < net.lane_count(); ++lane) {
      fifos[lane] = EngineTestPeer::fifo_packets(engine, lane);
    }
    kills.killed.clear();
    engine.step();
    const auto killed_now = [&](PacketId pid) {
      return std::find(kills.killed.begin(), kills.killed.end(), pid) !=
             kills.killed.end();
    };
    for (const std::vector<PacketId>& fifo : fifos) {
      if (std::any_of(fifo.begin(), fifo.end(), killed_now) &&
          !std::all_of(fifo.begin(), fifo.end(), killed_now)) {
        ++kills_with_survivor;
        if (killed_now(fifo.front())) ++survivor_promoted;
      }
    }
  }
  const SimResult r = engine.run();  // every cycle has run: just finish
  EXPECT_GT(kills_with_survivor, 0u);
  EXPECT_GT(survivor_promoted, 0u);
  EXPECT_EQ(digest(r, net), dc.digest);
  EXPECT_EQ(r.terminated_messages, dc.terminated_messages);
}

INSTANTIATE_TEST_SUITE_P(
    FaultInjection, DeepFifoKill,
    ::testing::Values(
        DeepKillCase{"TMIN_delay0", NetworkKind::kTMIN,
                     FlowControlScheme::kCredit, 0, 0x9f15299a9eca5167ULL,
                     1361},
        DeepKillCase{"TMIN_delay2", NetworkKind::kTMIN,
                     FlowControlScheme::kCredit, 2, 0x3265e57fea3ea56fULL,
                     1315},
        DeepKillCase{"BMIN_1vc_delay0", NetworkKind::kBMIN,
                     FlowControlScheme::kCredit, 0, 0xbb2f78a228d41ae1ULL,
                     1277},
        DeepKillCase{"BMIN_1vc_delay2", NetworkKind::kBMIN,
                     FlowControlScheme::kCredit, 2, 0xe40d4edcbca371d0ULL,
                     1176},
        DeepKillCase{"TMIN_onoff_delay0", NetworkKind::kTMIN,
                     FlowControlScheme::kOnOff, 0, 0x5d84c14bd0cf9a21ULL,
                     1311},
        DeepKillCase{"TMIN_onoff_delay2", NetworkKind::kTMIN,
                     FlowControlScheme::kOnOff, 2, 0xec7a45b5559d4942ULL,
                     1243}),
    [](const ::testing::TestParamInfo<DeepKillCase>& info) {
      return std::string(info.param.name);
    });

// A kill is permanent: a pair whose unique path it cut is terminated
// even when the message is injected long after the kill landed.
TEST(FaultInjection, KillIsPermanent) {
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
  engine.set_fault_plan(plan);
  RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  while (engine.cycle() < 64) engine.step();
  const PacketId pid = engine.inject_message(src, dst, 4);
  EXPECT_TRUE(engine.run_until_idle(10'000));
  EXPECT_FALSE(sink.timeline(pid).was_delivered());
  EXPECT_TRUE(sink.timeline(pid).was_terminated());
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
