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

#include "golden_digest.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/validate.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim {

// Friend of Engine: turns the worm chase off before the first step, so a
// chase network runs on the multi-pass scan instead; wakes every sleeping
// header, so the next step serves every header as the engine did before
// blocked headers slept; and schedules every channel with nothing to
// send.
struct EngineTestPeer {
  static bool chase(const Engine& e) { return e.chase_; }
  static void disable_chase(Engine& e) { e.chase_ = false; }
  static void wake_all(Engine& e) { e.wake_all(); }
  /// Sets the seed bit of every channel that is not faulty, whose
  /// injection node is not transmitting and none of whose lanes is
  /// allocated; returns how many it set.
  static std::size_t seed_sourceless(Engine& e) {
    std::size_t seeded = 0;
    for (topology::ChannelId ch = 0; ch < e.network_.channel_count(); ++ch) {
      if (e.channel_faulty_.test(ch)) continue;
      const std::uint32_t node = e.ch_src_node_[ch];
      bool sourceless = node == topology::kInvalidId ||
                        e.node_tx_packet_[node] == kNoPacket;
      for (unsigned v = 0; v < e.ch_num_lanes_[ch]; ++v) {
        sourceless = sourceless && e.alloc_owner_[e.ch_first_lane_[ch] + v] ==
                                       topology::kInvalidId;
      }
      if (sourceless && !e.seed_bits_.test(ch)) {
        e.seed_bits_.set(ch);
        ++seeded;
      }
    }
    return seeded;
  }
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
  RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  const PacketId id = engine.inject_message(
      static_cast<topology::NodeId>(src), dst, len);
  EXPECT_TRUE(engine.run_until_idle(100'000));
  const PacketTimeline pkt = sink.timeline(id);
  EXPECT_TRUE(pkt.was_delivered());
  return pkt.delivered - pkt.created;
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
        RecordingTraceSink sink;
        engine.set_trace_sink(&sink);
        const PacketId id = engine.inject_message(
            static_cast<topology::NodeId>(s), d, 12);
        ASSERT_TRUE(engine.run_until_idle(10'000));
        EXPECT_TRUE(sink.timeline(id).was_delivered());
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
  RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  const std::uint32_t len = 10;
  const PacketId a = engine.inject_message(0, 7, len);
  const PacketId b = engine.inject_message(1, 7, len);
  ASSERT_TRUE(engine.run_until_idle(10'000));
  std::uint64_t lat_a = sink.timeline(a).delivered;
  std::uint64_t lat_b = sink.timeline(b).delivered;
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
  RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  const SharedSegment seg;
  const PacketId a = engine.inject_message(
      static_cast<topology::NodeId>(seg.src_a), seg.dst_a, len);
  const PacketId b = engine.inject_message(
      static_cast<topology::NodeId>(seg.src_b), seg.dst_b, len);
  EXPECT_TRUE(engine.run_until_idle(100'000));
  return {sink.timeline(a).delivered, sink.timeline(b).delivered};
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

/// The round robin as it was written: step from the pointer, modulo the
/// lane count, until a ready lane.
unsigned modulo_pick(std::uint32_t ready, unsigned from, unsigned lanes) {
  unsigned pick = from % lanes;
  while ((ready & (1u << pick)) == 0) pick = (pick + 1) % lanes;
  return pick;
}

TEST(RoundRobinPick, MatchesTheModuloLoopOnEveryMaskAndPointer) {
  for (unsigned lanes = 1; lanes <= 8; ++lanes) {
    for (std::uint32_t ready = 1; ready < (1u << lanes); ++ready) {
      for (unsigned from = 0; from < lanes; ++from) {
        ASSERT_EQ(round_robin_pick(ready, from),
                  modulo_pick(ready, from, lanes))
            << lanes << " lanes, ready " << ready << ", from " << from;
      }
    }
  }
}

TEST(RoundRobinPick, MatchesTheModuloLoopOnRandomMasksAt32Lanes) {
  util::Rng rng(32);
  for (int i = 0; i < 100'000; ++i) {
    // Sparse masks too, so the pick often has to wrap.
    std::uint32_t ready = static_cast<std::uint32_t>(rng());
    if (i % 2 == 1) ready &= static_cast<std::uint32_t>(rng());
    if (i % 4 == 3) ready &= static_cast<std::uint32_t>(rng());
    if (ready == 0) continue;
    const auto from = static_cast<unsigned>(rng.below(32));
    ASSERT_EQ(round_robin_pick(ready, from), modulo_pick(ready, from, 32))
        << "ready " << ready << ", from " << from;
  }
}

// ---- Ordering and conservation ---------------------------------------------

TEST(Engine, SameSourceDestinationPairStaysFifo) {
  const Network net = topology::build_network(
      make_config(NetworkKind::kTMIN, "cube", 4, 3));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  std::vector<PacketId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(engine.inject_message(3, 42, 20 + i));
  }
  ASSERT_TRUE(engine.run_until_idle(100'000));
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(sink.timeline(ids[i - 1]).delivered,
              sink.timeline(ids[i]).delivered);
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
    RecordingTraceSink sink;
    engine.set_trace_sink(&sink);
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
    std::vector<std::uint8_t> delivered(ids.size(), 0);
    for (const TraceEvent& event : sink.events()) {
      if (event.kind == TraceEvent::Kind::kDelivered) {
        ASSERT_LT(event.packet, ids.size());
        ++delivered[event.packet];
      }
    }
    for (PacketId id : ids) EXPECT_EQ(delivered[id], 1u) << id;
    EXPECT_EQ(engine.flits_in_flight(), 0);
  }
}

// ---- Packet records -----------------------------------------------------------

struct RecordRun {
  std::size_t records = 0;  ///< Engine::packet_count() after run()
  std::uint64_t nodes = 0;
  SimResult result;
};

/// Runs the 64-node TMIN under uniform traffic of 16-flit messages at
/// `offered` load, with a `measure`-cycle window and a sample of every
/// cycle.
RecordRun run_for_records(double offered, std::uint64_t measure,
                          std::uint64_t queue_capacity = 1'500) {
  const Network net =
      topology::build_network(make_config(NetworkKind::kTMIN, "cube", 4, 3));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = offered;
  workload.length = traffic::LengthSpec::fixed(16);
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 5;
  config.warmup_cycles = 200;
  config.measure_cycles = measure;
  config.drain_cycles = 200;
  config.queue_capacity = queue_capacity;
  config.telemetry.sampling = true;
  config.telemetry.sample_interval_cycles = 1;
  config.telemetry.sample_capacity = config.total_cycles();
  Engine engine(net, *router, &traffic, config);
  RecordRun run;
  run.result = engine.run();
  run.records = engine.packet_count();
  run.nodes = net.node_count();
  return run;
}

// A delivered message's record is reused, so at a sustainable load the
// record table holds about the messages alive at once however long the
// run: a 4x longer window, about 4x the messages, not 4x the records.
TEST(PacketRecords, FlatInRunLengthAtSustainableLoad) {
  const RecordRun short_run = run_for_records(0.3, 2'000);
  const RecordRun long_run = run_for_records(0.3, 8'000);
  ASSERT_GT(short_run.result.delivered_messages_total, 0u);
  EXPECT_GT(long_run.result.delivered_messages_total,
            3 * short_run.result.delivered_messages_total);
  EXPECT_LE(long_run.records, short_run.records + short_run.records / 4);
  EXPECT_LT(20 * long_run.records, long_run.result.delivered_messages_total);
}

// Past saturation the source queues fill and drop: a live message is
// queued (at most queue_capacity per node), transmitting (at most one per
// node) or in flight, so the records stay within that bound.
TEST(PacketRecords, BoundedBySourceQueuesPastSaturation) {
  constexpr std::uint64_t kCapacity = 4;
  const RecordRun run = run_for_records(1.0, 2'000, kCapacity);
  EXPECT_GT(run.result.dropped_messages, 0u);
  std::int64_t worms = 0;
  for (const telemetry::Sample& sample : run.result.telemetry_samples) {
    worms = std::max(worms, sample.worms_in_flight);
  }
  ASSERT_EQ(run.result.telemetry_samples.size(), 2'400u);
  EXPECT_LE(run.records, run.nodes * (kCapacity + 1) +
                             static_cast<std::uint64_t>(worms));
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
  ASSERT_TRUE(result.telemetry_counters.enabled());
  std::uint64_t total_busy = 0;
  for (const topology::PhysChannel& ch : net.channels()) {
    const std::uint64_t busy =
        result.telemetry_counters.channel_flits(net, ch.id);
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

/// FNV-1a over 64-bit words.
struct Fnv64 {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t word) { h = (h ^ word) * 1099511628211ull; }
};

/// One digest per cycle of that cycle's events, sorted: what the cycle
/// did, whatever order the engine did it in.
class CycleEventSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    if (event.cycle != cycle_) {
      flush();
      cycle_ = event.cycle;
    }
    events_.emplace_back(static_cast<int>(event.kind), event.packet,
                         event.flit_seq, event.lane);
  }
  /// (cycle, event-set digest) for every cycle with at least one event.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> take() {
    flush();
    return std::move(digests_);
  }

 private:
  void flush() {
    if (events_.empty()) return;
    std::sort(events_.begin(), events_.end());
    Fnv64 f;
    for (const auto& [kind, packet, seq, lane] : events_) {
      f.add(static_cast<std::uint64_t>(kind));
      f.add(packet);
      f.add(seq);
      f.add(lane);
    }
    digests_.emplace_back(cycle_, f.h);
    events_.clear();
  }

  std::uint64_t cycle_ = 0;
  std::vector<std::tuple<int, PacketId, std::uint32_t, topology::LaneId>>
      events_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests_;
};

struct ChaseRun {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cycle_events;
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
  CycleEventSink sink;
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
        ASSERT_FALSE(chase.cycle_events.empty());
        const auto diverged = std::mismatch(
            chase.cycle_events.begin(), chase.cycle_events.end(),
            scan.cycle_events.begin(), scan.cycle_events.end());
        ASSERT_TRUE(diverged.first == chase.cycle_events.end() &&
                    diverged.second == scan.cycle_events.end())
            << "events differ from cycle "
            << (diverged.first != chase.cycle_events.end()
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

// ---- Sleeping headers against serving every header every cycle -----------

struct SleepCase {
  std::string name;
  NetworkKind kind;
  unsigned vcs;
  ArbitrationOrder arbitration = ArbitrationOrder::kRotating;
  LaneSelection lane_selection = LaneSelection::kRandomFree;
  FlowControlScheme flow_control = FlowControlScheme::kCredit;
  std::uint32_t buffer_depth = 1;
  std::uint32_t credit_delay = 0;
  bool faults = false;
};

void PrintTo(const SleepCase& c, std::ostream* os) { *os << c.name; }

struct SleepRun {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cycle_events;
  std::uint64_t stats = 0;       ///< results and window counters
  std::uint64_t worm_trace = 0;  ///< stages and blocked intervals
  std::uint64_t denials = 0;
  std::uint64_t terminated = 0;
};

SleepRun run_sleep_case(const SleepCase& c, bool serve_every_cycle) {
  NetworkConfig nc = make_config(c.kind, "cube", 4, 3);
  nc.vcs = c.vcs;
  const Network net = topology::build_network(nc);
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.6;
  workload.length = traffic::LengthSpec::uniform(4, 32);
  traffic::StandardTraffic traffic(net, workload);
  SimConfig config;
  config.seed = 11;
  config.warmup_cycles = 500;
  config.measure_cycles = 1'500;
  config.drain_cycles = 500;
  config.arbitration = c.arbitration;
  config.lane_selection = c.lane_selection;
  config.flow_control = c.flow_control;
  config.buffer_depth = c.buffer_depth;
  config.credit_delay = c.credit_delay;
  if (c.faults) {
    config.fault_fraction = 0.05;
    config.fault_seed = 3;
    config.fault_at_cycle = 500;
  }
  config.telemetry.counters = true;
  config.telemetry.worm_trace = true;
  Engine engine(net, *router, &traffic, config);
  CycleEventSink sink;
  engine.set_trace_sink(&sink);
  if (serve_every_cycle) {
    while (engine.cycle() < config.total_cycles()) {
      EngineTestPeer::wake_all(engine);
      engine.step();
    }
  }
  const SimResult r = engine.run();

  SleepRun run;
  run.cycle_events = sink.take();
  Fnv64 stats;
  stats.add(std::bit_cast<std::uint64_t>(r.latency_cycles.mean()));
  stats.add(r.latency_cycles.count());
  stats.add(r.delivered_messages_total);
  stats.add(r.delivered_flits_in_window);
  stats.add(r.terminated_messages);
  stats.add(r.terminated_flits);
  const telemetry::Counters& counters = r.telemetry_counters;
  for (const auto* v : {&counters.lane_flits, &counters.lane_blocked,
                        &counters.lane_credit_starved,
                        &counters.lane_fault_terminated,
                        &counters.switch_grants, &counters.switch_denials}) {
    for (const std::uint64_t x : *v) stats.add(x);
  }
  run.stats = stats.h;
  Fnv64 trace;
  for (const telemetry::WormRecord& w : r.worm_trace->records()) {
    trace.add(w.id);
    for (const telemetry::StageSpan& stage : w.stages) {
      trace.add(stage.in_lane);
      trace.add(stage.out_lane);
      trace.add(stage.arrive_cycle);
      trace.add(stage.grant_cycle);
      trace.add(stage.blocked_cycles);
    }
    for (const telemetry::BlockedInterval& b : w.blocked) {
      trace.add(b.first_cycle);
      trace.add(b.last_cycle);
      trace.add(b.waiting_lane);
      trace.add(b.culprit_lane);
      trace.add(b.culprit_worm);
      trace.add(b.chain_depth);
      trace.add(b.credit_starved ? 1 : 0);
    }
    trace.add(w.blocked_cycles);
    trace.add(w.starved_cycles);
    trace.add(w.terminate_cycle);
  }
  run.worm_trace = trace.h;
  run.denials = counters.total_denials();
  run.terminated = r.terminated_messages;
  return run;
}

class SleepMatchesServe : public ::testing::TestWithParam<SleepCase> {};

// A header denied with every candidate allocated or dead sleeps until its
// switch releases one of them or a fault kill lands (DESIGN.md §7), and
// its skipped denials are charged in bulk (§10).  Waking every
// sleeper before each step serves every header every cycle, as the
// engine did before; both must give the same events cycle by cycle, the
// same counters and the same worm traces.
TEST_P(SleepMatchesServe, SameEventsCountersAndTraces) {
  const SleepCase& c = GetParam();
  const SleepRun sleep = run_sleep_case(c, false);
  const SleepRun serve = run_sleep_case(c, true);
  ASSERT_FALSE(sleep.cycle_events.empty());
  EXPECT_GT(serve.denials, 0u) << "no header was ever blocked";
  if (c.faults) {
    EXPECT_GT(serve.terminated, 0u) << "the kill hit no worm";
  }
  const auto diverged =
      std::mismatch(sleep.cycle_events.begin(), sleep.cycle_events.end(),
                    serve.cycle_events.begin(), serve.cycle_events.end());
  ASSERT_TRUE(diverged.first == sleep.cycle_events.end() &&
              diverged.second == serve.cycle_events.end())
      << "events differ from cycle "
      << (diverged.first != sleep.cycle_events.end()
              ? diverged.first->first
              : diverged.second->first);
  EXPECT_EQ(sleep.denials, serve.denials);
  EXPECT_EQ(sleep.stats, serve.stats);
  EXPECT_EQ(sleep.worm_trace, serve.worm_trace);
}

std::vector<SleepCase> sleep_cases() {
  const struct {
    const char* name;
    NetworkKind kind;
    unsigned vcs;
  } nets[] = {{"TMIN", NetworkKind::kTMIN, 1},
              {"DMIN", NetworkKind::kDMIN, 1},
              {"VMIN", NetworkKind::kVMIN, 2},
              {"BMIN", NetworkKind::kBMIN, 2},
              {"BMIN_1vc", NetworkKind::kBMIN, 1}};
  std::vector<SleepCase> cases;
  for (const auto& net : nets) {
    const std::string name = net.name;
    const SleepCase base{name, net.kind, net.vcs};
    cases.push_back(base);
    SleepCase c = base;
    c.name = name + "_random_arb_first_free";
    c.arbitration = ArbitrationOrder::kRandom;
    c.lane_selection = LaneSelection::kFirstFree;
    cases.push_back(c);
    c = base;
    c.name = name + "_fixed_arb";
    c.arbitration = ArbitrationOrder::kFixed;
    cases.push_back(c);
    c = base;
    c.name = name + "_vct";
    c.flow_control = FlowControlScheme::kVirtualCutThrough;
    c.buffer_depth = 32;
    cases.push_back(c);
    c = base;
    c.name = name + "_credit_delay";
    c.buffer_depth = 4;
    c.credit_delay = 2;
    cases.push_back(c);
    c = base;
    c.name = name + "_kill";
    c.faults = true;
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Networks, SleepMatchesServe, ::testing::ValuesIn(sleep_cases()),
    [](const ::testing::TestParamInfo<SleepCase>& info) {
      return info.param.name;
    });

// ---- The advance frontier: a try of a source-less channel is a no-op ------

struct FrontierCase {
  std::string name;
  NetworkKind kind;
  unsigned vcs = 2;
  ArbitrationOrder arbitration = ArbitrationOrder::kRotating;
  FlowControlScheme flow_control = FlowControlScheme::kCredit;
  std::uint32_t buffer_depth = 1;
  std::uint32_t credit_delay = 0;
  bool kill = false;
};

void PrintTo(const FrontierCase& c, std::ostream* os) { *os << c.name; }

struct FrontierRun {
  /// Every event as (cycle, kind, packet, seq, lane), sorted: each
  /// cycle's events in an order that does not depend on the engine's.
  std::vector<std::tuple<std::uint64_t, int, PacketId, std::uint32_t,
                         topology::LaneId>>
      events;
  telemetry::Counters counters;
  std::uint64_t digest = 0;
  std::uint64_t terminated = 0;
  std::size_t extra_seeds = 0;  ///< bits seed_sourceless set
};

FrontierRun run_frontier_case(const FrontierCase& c, bool seed_sourceless) {
  const Network net = topology::build_network(golden_network(c.kind, c.vcs));
  const auto router = routing::make_router(net);
  traffic::StandardTraffic traffic(net, golden_workload());
  SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  config.arbitration = c.arbitration;
  config.flow_control = c.flow_control;
  config.buffer_depth = c.buffer_depth;
  config.credit_delay = c.credit_delay;
  config.telemetry.counters = true;
  config.telemetry.sampling = true;
  config.telemetry.sample_interval_cycles = 256;
  config.telemetry.sample_capacity = 64;
  if (c.kill) {
    config.fault_fraction = 0.05;
    config.fault_seed = 4;  // kills channels that some pair needs
    config.fault_at_cycle = 500;
  }
  Engine engine(net, *router, &traffic, config);
  RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  FrontierRun run;
  if (seed_sourceless) {
    while (engine.cycle() < config.total_cycles()) {
      run.extra_seeds += EngineTestPeer::seed_sourceless(engine);
      engine.step();
    }
  }
  const SimResult r = engine.run();
  for (const TraceEvent& e : sink.events()) {
    run.events.emplace_back(e.cycle, static_cast<int>(e.kind), e.packet,
                            e.flit_seq, e.lane);
  }
  std::sort(run.events.begin(), run.events.end());
  run.counters = r.telemetry_counters;
  run.digest = digest(r, net);
  run.terminated = r.terminated_messages;
  return run;
}

class SourcelessSeeds : public ::testing::TestWithParam<FrontierCase> {};

// Unblock events schedule their channel whether or not it has anything
// to send (DESIGN.md §7), which is sound only if trying a channel with
// no source changes no state.  Seeding every such channel before each
// step must give the same events cycle by cycle, the same counters and
// the same golden digest.
TEST_P(SourcelessSeeds, ChangeNoEventCounterOrDigest) {
  const FrontierCase& c = GetParam();
  const FrontierRun plain = run_frontier_case(c, false);
  const FrontierRun seeded = run_frontier_case(c, true);
  ASSERT_FALSE(plain.events.empty());
  EXPECT_GT(seeded.extra_seeds, 0u);
  if (c.kill) {
    EXPECT_GT(plain.terminated, 0u) << "the kill hit no worm";
  }
  const auto diverged =
      std::mismatch(plain.events.begin(), plain.events.end(),
                    seeded.events.begin(), seeded.events.end());
  ASSERT_TRUE(diverged.first == plain.events.end() &&
              diverged.second == seeded.events.end())
      << "events differ from cycle "
      << std::get<0>(diverged.first != plain.events.end() ? *diverged.first
                                                          : *diverged.second);
  const telemetry::Counters& a = plain.counters;
  const telemetry::Counters& b = seeded.counters;
  EXPECT_EQ(a.lane_flits, b.lane_flits);
  EXPECT_EQ(a.lane_blocked, b.lane_blocked);
  EXPECT_EQ(a.switch_grants, b.switch_grants);
  EXPECT_EQ(a.switch_denials, b.switch_denials);
  EXPECT_EQ(a.lane_credit_starved, b.lane_credit_starved);
  EXPECT_EQ(a.lane_fault_terminated, b.lane_fault_terminated);
  EXPECT_EQ(plain.digest, seeded.digest);
}

std::vector<FrontierCase> frontier_cases() {
  std::vector<FrontierCase> cases;
  for (const GoldenCase& gc : kCases) {
    if (gc.store_forward) continue;
    FrontierCase c{gc.name, gc.kind, gc.vcs, gc.arbitration};
    c.buffer_depth = gc.buffer_depth;
    c.credit_delay = gc.credit_delay;
    cases.push_back(c);
  }
  FrontierCase c{"TMIN_onoff_depth4_delay2", NetworkKind::kTMIN, 1};
  c.flow_control = FlowControlScheme::kOnOff;
  c.buffer_depth = 4;
  c.credit_delay = 2;
  cases.push_back(c);
  c = FrontierCase{"TMIN_vct_depth64", NetworkKind::kTMIN, 1};
  c.flow_control = FlowControlScheme::kVirtualCutThrough;
  c.buffer_depth = 64;
  cases.push_back(c);
  c = FrontierCase{"TMIN_depth4_delay0", NetworkKind::kTMIN, 1};
  c.buffer_depth = 4;
  cases.push_back(c);
  c = FrontierCase{"BMIN_vc_deep_kill", NetworkKind::kBMIN, 2};
  c.buffer_depth = 4;
  c.credit_delay = 2;
  c.kill = true;
  cases.push_back(c);
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Frontier, SourcelessSeeds, ::testing::ValuesIn(frontier_cases()),
    [](const ::testing::TestParamInfo<FrontierCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace wormsim::sim
