// Tests for the flit-level wormhole engine: pipelining, blocking, virtual
// channel multiplexing, dilated channels, turnaround worms, conservation,
// ordering, and saturation behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/validate.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim {

// Friend of Engine: turns the worm chase off before the first step, so a
// chase network runs on the multi-pass scan instead.
struct EngineTestPeer {
  static bool chase(const Engine& e) { return e.chase_; }
  static void disable_chase(Engine& e) { e.chase_ = false; }
};

namespace {

using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig make_config(NetworkKind kind, const std::string& topo,
                          unsigned k, unsigned n, unsigned d = 2,
                          unsigned m = 2) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = topo;
  config.radix = k;
  config.stages = n;
  config.dilation = kind == NetworkKind::kDMIN ? d : 1;
  config.vcs = kind == NetworkKind::kVMIN ? m : 1;
  return config;
}

SimConfig manual_config() {
  SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 0;
  config.measure_cycles = 1'000'000;  // everything measured
  config.drain_cycles = 0;
  config.deadlock_watchdog_cycles = 20'000;
  return config;
}

/// Latency (deliver - create) of a single message on an idle network.
std::uint64_t solo_latency(const Network& net, std::uint64_t src,
                           std::uint64_t dst, std::uint32_t len) {
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  const PacketId id = engine.inject_message(
      static_cast<topology::NodeId>(src), dst, len);
  EXPECT_TRUE(engine.run_until_idle(100'000));
  const PacketState& pkt = engine.packet(id);
  EXPECT_TRUE(pkt.delivered());
  return pkt.deliver_cycle - pkt.create_cycle;
}

// ---- Zero-load latency -----------------------------------------------------

TEST(Engine, ZeroLoadLatencyFormulaUnidirectional) {
  // With no contention, latency = path_length + length - 2 cycles when the
  // message is created at an idle node (header takes one cycle per channel
  // starting the creation cycle; tail follows len-1 cycles behind).
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 2, 3));
  const unsigned path_len = 4;  // n + 1
  for (std::uint32_t len : {1u, 2u, 8u, 100u}) {
    EXPECT_EQ(solo_latency(net, 0, 7, len), path_len + len - 2) << len;
  }
}

TEST(Engine, ZeroLoadLatencyIsDistanceInsensitive) {
  // The hallmark of wormhole switching (Section 1): latency without
  // contention does not depend on the route length beyond the pipeline
  // fill — here all unidirectional routes have the same length, so check
  // all destinations give identical latency.
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 4, 3));
  const std::uint64_t base = solo_latency(net, 0, 1, 64);
  for (std::uint64_t dst : {2ull, 17ull, 38ull, 63ull}) {
    EXPECT_EQ(solo_latency(net, 0, dst, 64), base);
  }
}

TEST(Engine, ZeroLoadLatencyBminDependsOnTurnStage) {
  // BMIN path length is 2(t+1): latency = 2(t+1) + len - 2.
  const Network net = topology::build_network(
      make_config(NetworkKind::kBMIN, "butterfly", 2, 3));
  const std::uint32_t len = 16;
  EXPECT_EQ(solo_latency(net, 0b000, 0b001, len), 2u + len - 2);  // t = 0
  EXPECT_EQ(solo_latency(net, 0b000, 0b010, len), 4u + len - 2);  // t = 1
  EXPECT_EQ(solo_latency(net, 0b000, 0b100, len), 6u + len - 2);  // t = 2
}

TEST(Engine, AllNetworksDeliverEveryPair) {
  for (NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kDMIN,
                           NetworkKind::kVMIN, NetworkKind::kBMIN}) {
    const Network net = topology::build_network(
        make_config(kind, "cube", 2, 3));
    const auto router = routing::make_router(net);
    for (std::uint64_t s = 0; s < 8; ++s) {
      for (std::uint64_t d = 0; d < 8; ++d) {
        if (s == d) continue;
        Engine engine(net, *router, nullptr, manual_config());
        const PacketId id = engine.inject_message(
            static_cast<topology::NodeId>(s), d, 12);
        ASSERT_TRUE(engine.run_until_idle(10'000));
        EXPECT_TRUE(engine.packet(id).delivered());
        EXPECT_EQ(engine.flits_in_flight(), 0);
      }
    }
  }
}

// ---- Wormhole blocking -----------------------------------------------------

TEST(Engine, OutputContentionSerializesWorms) {
  // Two same-length worms race for the same destination; the loser's header
  // waits until the winner's tail releases the shared ejection channel.
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  const std::uint32_t len = 10;
  const PacketId a = engine.inject_message(0, 7, len);
  const PacketId b = engine.inject_message(1, 7, len);
  ASSERT_TRUE(engine.run_until_idle(10'000));
  std::uint64_t lat_a = engine.packet(a).deliver_cycle;
  std::uint64_t lat_b = engine.packet(b).deliver_cycle;
  if (lat_a > lat_b) std::swap(lat_a, lat_b);
  EXPECT_EQ(lat_a, 4 + len - 2);        // winner unimpeded
  EXPECT_EQ(lat_b, 4 + len - 2 + len);  // loser delayed by one worm
}

TEST(Engine, BlockedWormHoldsChannelsInPlace) {
  // While blocked, a worm's flits stay buffered along its path (wormhole,
  // not store-and-forward): with single-flit buffers the blocked worm
  // occupies one flit per hop it acquired.
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  engine.inject_message(0, 7, 50);
  engine.inject_message(1, 7, 50);
  // After a few cycles both worms have stopped making progress except the
  // winner streaming; the loser holds exactly its acquired buffers.
  for (int i = 0; i < 10; ++i) engine.step();
  // Total buffered flits: path has 4 channels -> at most 4 buffered flits
  // per worm (3 switch buffers + 0; ejection consumes instantly), the
  // winner pipeline holds 3, the loser holds up to 3 stalled flits.
  EXPECT_GT(engine.flits_in_flight(), 0);
  EXPECT_LE(engine.flits_in_flight(), 6);
  ASSERT_TRUE(engine.run_until_idle(10'000));
}

// ---- Virtual channels and dilation ----------------------------------------

// Two worms whose cube-MIN routes share two consecutive inter-stage
// channels: (000 -> 111) and (100 -> 110) enter G_1 and G_2 on the same
// channel addresses.
struct SharedSegment {
  std::uint64_t src_a = 0b000, dst_a = 0b111;
  std::uint64_t src_b = 0b100, dst_b = 0b110;
};

std::pair<std::uint64_t, std::uint64_t> race_shared_segment(
    NetworkKind kind, std::uint32_t len) {
  const Network net = topology::build_network(
      make_config(kind, "cube", 2, 3));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  const SharedSegment seg;
  const PacketId a = engine.inject_message(
      static_cast<topology::NodeId>(seg.src_a), seg.dst_a, len);
  const PacketId b = engine.inject_message(
      static_cast<topology::NodeId>(seg.src_b), seg.dst_b, len);
  EXPECT_TRUE(engine.run_until_idle(100'000));
  return {engine.packet(a).deliver_cycle, engine.packet(b).deliver_cycle};
}

TEST(Engine, VirtualChannelsShareBandwidthFairly) {
  const std::uint32_t len = 100;
  const auto [a, b] = race_shared_segment(NetworkKind::kVMIN, len);
  // Both worms interleave on the shared physical channels at ~half rate:
  // both finish around 2 * len, together, far earlier than serialized.
  EXPECT_NEAR(static_cast<double>(a), static_cast<double>(b), 4.0);
  EXPECT_GE(std::max(a, b), 2ull * len - 10);
  EXPECT_LE(std::max(a, b), 2ull * len + 20);
}

TEST(Engine, TminSerializesTheSameScenario) {
  const std::uint32_t len = 100;
  const auto [a, b] = race_shared_segment(NetworkKind::kTMIN, len);
  const auto first = std::min(a, b);
  const auto second = std::max(a, b);
  EXPECT_EQ(first, 4 + len - 2);
  // The loser waits for the winner's tail to clear the shared segment.
  EXPECT_GE(second, first + len - 5);
}

TEST(Engine, DilatedChannelsRunAtFullRate) {
  const std::uint32_t len = 100;
  const auto [a, b] = race_shared_segment(NetworkKind::kDMIN, len);
  // Each worm gets its own physical channel: both at full speed.
  EXPECT_LE(std::max(a, b), 4 + len - 2 + 6);
}

TEST(Engine, VminChannelBandwidthIsConserved) {
  // With two VCs active on one physical channel, total transfer rate stays
  // one flit/cycle: delivering both worms takes ~2 * len, not less.
  const std::uint32_t len = 200;
  const auto [a, b] = race_shared_segment(NetworkKind::kVMIN, len);
  EXPECT_GE(std::max(a, b), 2ull * len - 10);
}

// ---- Ordering and conservation ---------------------------------------------

TEST(Engine, SameSourceDestinationPairStaysFifo) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 4, 3));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  std::vector<PacketId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(engine.inject_message(3, 42, 20 + i));
  }
  ASSERT_TRUE(engine.run_until_idle(100'000));
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(engine.packet(ids[i - 1]).deliver_cycle,
              engine.packet(ids[i]).deliver_cycle);
  }
}

TEST(Engine, RandomStressConservesAllFlits) {
  util::Rng rng(1234);
  for (NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kDMIN,
                           NetworkKind::kVMIN, NetworkKind::kBMIN}) {
    const Network net = topology::build_network(
        make_config(kind, "cube", 4, 2));
    const auto router = routing::make_router(net);
    Engine engine(net, *router, nullptr, manual_config());
    const std::uint64_t N = net.node_count();
    std::vector<PacketId> ids;
    for (int i = 0; i < 300; ++i) {
      const auto src = static_cast<topology::NodeId>(rng.below(N));
      std::uint64_t dst = rng.below(N);
      while (dst == src) dst = rng.below(N);
      const auto len = static_cast<std::uint32_t>(rng.between(1, 64));
      ids.push_back(engine.inject_message(src, dst, len));
    }
    ASSERT_TRUE(engine.run_until_idle(1'000'000))
        << topology::to_string(kind);
    for (PacketId id : ids) {
      EXPECT_TRUE(engine.packet(id).delivered());
    }
    EXPECT_EQ(engine.flits_in_flight(), 0);
  }
}

TEST(Engine, HeavyRandomTrafficNeverDeadlocks) {
  // Poisson traffic near saturation for an extended run; the watchdog
  // aborts the process if anything wedges.
  for (NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kDMIN,
                           NetworkKind::kVMIN, NetworkKind::kBMIN}) {
    const Network net = topology::build_network(
        make_config(kind, "cube", 2, 3));
    const auto router = routing::make_router(net);
    traffic::WorkloadSpec workload;
    workload.offered = 0.9;
    workload.length = traffic::LengthSpec::uniform(4, 64);
    traffic::StandardTraffic traffic(net, workload);
    SimConfig config;
    config.seed = 99;
    config.warmup_cycles = 1'000;
    config.measure_cycles = 20'000;
    config.drain_cycles = 1'000;
    config.deadlock_watchdog_cycles = 10'000;
    Engine engine(net, *router, &traffic, config);
    const SimResult result = engine.run();
    EXPECT_GT(result.delivered_messages_total, 100u);
  }
}

// ---- Metrics ----------------------------------------------------------------

TEST(Engine, OfferedLoadMatchesConfiguration) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kDMIN, "cube", 4, 3));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.30;
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 5;
  config.warmup_cycles = 20'000;
  config.measure_cycles = 120'000;
  config.drain_cycles = 30'000;
  Engine engine(net, *router, &traffic, config);
  const SimResult result = engine.run();
  EXPECT_NEAR(result.offered_fraction(), 0.30, 0.02);
  // DMIN sustains 30%: accepted == offered and queues stay small.
  EXPECT_NEAR(result.throughput_fraction(), 0.30, 0.02);
  EXPECT_TRUE(result.sustainable());
}

TEST(Engine, OverloadIsDetectedAsUnsustainable) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 4, 3));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.95;  // far past TMIN saturation
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 6;
  config.warmup_cycles = 20'000;
  config.measure_cycles = 150'000;
  config.drain_cycles = 0;
  Engine engine(net, *router, &traffic, config);
  const SimResult result = engine.run();
  EXPECT_FALSE(result.sustainable());
  EXPECT_LT(result.throughput_fraction(), 0.9);
  EXPECT_GT(result.max_source_queue, 100u);
}

TEST(Engine, LatencyStatsOnlyCoverMeasuredWindow) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.2;
  workload.length = traffic::LengthSpec::fixed(16);
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 8;
  config.warmup_cycles = 5'000;
  config.measure_cycles = 20'000;
  config.drain_cycles = 5'000;
  Engine engine(net, *router, &traffic, config);
  const SimResult result = engine.run();
  EXPECT_GT(result.latency_cycles.count(), 0u);
  EXPECT_LE(result.latency_cycles.count(),
            result.generated_messages_in_window);
  // Zero-load latency bound: every measured latency >= pipeline minimum.
  EXPECT_GE(result.latency_cycles.min(), 16.0 + 4.0 - 2.0 - 1e-9);
}

TEST(Engine, ChannelUtilizationRecording) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.3;
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 9;
  config.warmup_cycles = 2'000;
  config.measure_cycles = 10'000;
  config.drain_cycles = 1'000;
  config.telemetry.counters = true;
  Engine engine(net, *router, &traffic, config);
  const SimResult result = engine.run();
  ASSERT_EQ(result.channel_busy_cycles.size(), net.channels().size());
  std::uint64_t total_busy = 0;
  for (std::uint64_t busy : result.channel_busy_cycles) {
    EXPECT_LE(busy, config.measure_cycles);
    total_busy += busy;
  }
  EXPECT_GT(total_busy, 0u);
}

TEST(Engine, InjectRejectsSelfMessages) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  EXPECT_DEATH(engine.inject_message(3, 3, 8), "self-addressed");
}

// Both engines take packet ids from next_packet_id: the last 32-bit value
// is kNoPacket, so the id space ends one short of it instead of wrapping.
TEST(Engine, PacketIdSpaceExhaustionAborts) {
  EXPECT_EQ(next_packet_id(0), 0u);
  EXPECT_EQ(next_packet_id(kNoPacket - 1), kNoPacket - 1);
  EXPECT_DEATH(next_packet_id(kNoPacket), "packet id space exhausted");
}

TEST(Engine, IdleReportsCorrectly) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  EXPECT_TRUE(engine.idle());
  engine.inject_message(0, 5, 4);
  EXPECT_FALSE(engine.idle());
  EXPECT_TRUE(engine.run_until_idle(1'000));
}

/// Sets an environment variable for one scope, restoring what it was
/// (CI runs the suite with WORMSIM_VALIDATE=1).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

// Regression: the engines re-read the variables with their own rule,
// which took any value but "0" as on, so "false" switched all three on.
TEST(Observers, FalseInEnvironmentSwitchesOff) {
  const ScopedEnv trace("WORMSIM_TRACE", "false");
  const ScopedEnv profile("WORMSIM_PROFILE", "false");
  const ScopedEnv validate("WORMSIM_VALIDATE", "false");
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, SimConfig{});
  EXPECT_EQ(engine.worm_tracer(), nullptr);
  EXPECT_EQ(engine.profiler(), nullptr);
  EXPECT_EQ(engine.validator(), nullptr);
}

// The variables are defaults: a config that says otherwise wins, in
// both directions.
TEST(Observers, ExplicitConfigBeatsEnvironment) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  {
    const ScopedEnv trace("WORMSIM_TRACE", "1");
    const ScopedEnv profile("WORMSIM_PROFILE", "true");
    const ScopedEnv validate("WORMSIM_VALIDATE", "1");
    SimConfig config;
    EXPECT_TRUE(config.telemetry.worm_trace);
    EXPECT_TRUE(config.telemetry.profile);
    EXPECT_TRUE(config.validate);
    config.telemetry.worm_trace = false;
    config.telemetry.profile = false;
    config.validate = false;
    Engine engine(net, *router, nullptr, config);
    EXPECT_EQ(engine.worm_tracer(), nullptr);
    EXPECT_EQ(engine.profiler(), nullptr);
    EXPECT_EQ(engine.validator(), nullptr);
  }
  {
    const ScopedEnv trace("WORMSIM_TRACE", "0");
    const ScopedEnv profile("WORMSIM_PROFILE", "0");
    const ScopedEnv validate("WORMSIM_VALIDATE", "0");
    SimConfig config;
    config.telemetry.worm_trace = true;
    config.telemetry.profile = true;
    config.validate = true;
    Engine engine(net, *router, nullptr, config);
    EXPECT_NE(engine.worm_tracer(), nullptr);
    EXPECT_NE(engine.profiler(), nullptr);
    EXPECT_NE(engine.validator(), nullptr);
  }
}

// ---- The worm chase against the multi-pass scan -------------------------

/// One digest per cycle of that cycle's kFlitMoved events, sorted: the
/// cycle's move set, whatever order the engine found the moves in.
class MoveSetSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    if (event.kind != TraceEvent::Kind::kFlitMoved) return;
    if (event.cycle != cycle_) {
      flush();
      cycle_ = event.cycle;
    }
    moves_.emplace_back(event.lane, event.packet, event.flit_seq);
  }
  /// (cycle, move-set digest) for every cycle with at least one move.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> take() {
    flush();
    return std::move(digests_);
  }

 private:
  void flush() {
    if (moves_.empty()) return;
    std::sort(moves_.begin(), moves_.end());
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a
    for (const auto& [lane, packet, seq] : moves_) {
      for (const std::uint64_t word : {std::uint64_t{lane},
                                       std::uint64_t{packet},
                                       std::uint64_t{seq}}) {
        h = (h ^ word) * 1099511628211ull;
      }
    }
    digests_.emplace_back(cycle_, h);
    moves_.clear();
  }

  std::uint64_t cycle_ = 0;
  std::vector<std::tuple<topology::LaneId, PacketId, std::uint32_t>> moves_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests_;
};

struct ChaseRun {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> move_sets;
  std::uint64_t latency_mean_bits = 0;
};

ChaseRun run_chase_case(const Network& net, double load, std::uint64_t seed,
                        bool chase) {
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = load;
  workload.length = traffic::LengthSpec::uniform(8, 64);
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = seed;
  config.warmup_cycles = 500;
  config.measure_cycles = 2'000;
  config.drain_cycles = 500;
  Engine engine(net, *router, &traffic, config);
  EXPECT_TRUE(EngineTestPeer::chase(engine));
  if (!chase) EngineTestPeer::disable_chase(engine);
  MoveSetSink sink;
  engine.set_trace_sink(&sink);
  const SimResult result = engine.run();
  return {sink.take(), std::bit_cast<std::uint64_t>(result.mean_latency_us())};
}

struct ChaseNet {
  const char* name;
  NetworkKind kind;
  unsigned extra_stages;
};

void PrintTo(const ChaseNet& net, std::ostream* os) { *os << net.name; }

class ChaseMatchesScan : public ::testing::TestWithParam<ChaseNet> {};

// The chase (DESIGN.md §7) must find exactly the moves the multi-pass
// scan finds, cycle by cycle, on every single-lane network with the
// paper's buffers; the golden rows pin it at one seed only.
TEST_P(ChaseMatchesScan, SameMovesEveryCycle) {
  const ChaseNet& p = GetParam();
  for (const auto& [k, n] : {std::pair{2u, 6u}, std::pair{4u, 3u}}) {
    NetworkConfig nc = make_config(p.kind, "cube", k, n);
    nc.extra_stages = p.extra_stages;
    const Network net = topology::build_network(nc);
    for (const double load : {0.3, 0.9}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        SCOPED_TRACE(nc.describe() + " load " + std::to_string(load) +
                     " seed " + std::to_string(seed));
        const ChaseRun chase = run_chase_case(net, load, seed, true);
        const ChaseRun scan = run_chase_case(net, load, seed, false);
        ASSERT_FALSE(chase.move_sets.empty());
        const auto diverged = std::mismatch(
            chase.move_sets.begin(), chase.move_sets.end(),
            scan.move_sets.begin(), scan.move_sets.end());
        ASSERT_TRUE(diverged.first == chase.move_sets.end() &&
                    diverged.second == scan.move_sets.end())
            << "move sets differ from cycle "
            << (diverged.first != chase.move_sets.end()
                    ? diverged.first->first
                    : diverged.second->first);
        EXPECT_EQ(chase.latency_mean_bits, scan.latency_mean_bits);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SingleLaneNets, ChaseMatchesScan,
    ::testing::Values(ChaseNet{"TMIN", NetworkKind::kTMIN, 0},
                      ChaseNet{"DMIN", NetworkKind::kDMIN, 0},
                      ChaseNet{"BMIN_1vc", NetworkKind::kBMIN, 0},
                      ChaseNet{"TMIN_x1", NetworkKind::kTMIN, 1},
                      ChaseNet{"DMIN_x1", NetworkKind::kDMIN, 1}),
    [](const ::testing::TestParamInfo<ChaseNet>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace wormsim::sim
