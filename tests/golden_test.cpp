// Golden determinism tests for the simulation engines.
//
// Pins the *bitwise* content of SimResult — latency statistics, histogram
// bins, channel busy cycles, telemetry counters and samples — for one
// small configuration per network kind (TMIN/DMIN/VMIN/BMIN), plus a
// random-arbitration variant and two store-and-forward references.  The
// expected digests in engine_golden.inc were emitted by the
// pre-optimization scan-order engine, so they prove the active-set
// scheduler reproduces the exact same fixpoint move-set and RNG draw
// order (same seed -> identical results, no silent behavior drift in any
// figure).
//
// Regenerating (only legitimate after an *intentional* semantic change):
//   WORMSIM_EMIT_GOLDEN=1 ./tests/golden_test --gtest_filter='Golden.Emit'
//       > /tmp/golden.out
//   sed -n '/BEGIN engine_golden/,/END engine_golden/p' /tmp/golden.out
// and paste the block into tests/engine_golden.inc.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim {
namespace {

// ---- FNV-1a over the exact bit patterns of a SimResult ------------------

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

// ---- The pinned configurations ------------------------------------------

struct GoldenCase {
  const char* name;
  topology::NetworkKind kind;
  ArbitrationOrder arbitration;
  bool store_forward;
};

constexpr GoldenCase kCases[] = {
    {"TMIN", topology::NetworkKind::kTMIN, ArbitrationOrder::kRotating, false},
    {"DMIN", topology::NetworkKind::kDMIN, ArbitrationOrder::kRotating, false},
    {"VMIN", topology::NetworkKind::kVMIN, ArbitrationOrder::kRotating, false},
    {"BMIN", topology::NetworkKind::kBMIN, ArbitrationOrder::kRotating, false},
    {"TMIN_rand_arb", topology::NetworkKind::kTMIN, ArbitrationOrder::kRandom,
     false},
    {"SF_TMIN", topology::NetworkKind::kTMIN, ArbitrationOrder::kRotating,
     true},
    {"SF_BMIN", topology::NetworkKind::kBMIN, ArbitrationOrder::kRotating,
     true},
};

struct GoldenExpect {
  const char* name;
  std::uint64_t digest;
  std::uint64_t delivered_messages_total;
  std::uint64_t latency_mean_bits;  ///< bit pattern of latency_cycles.mean()
};

constexpr GoldenExpect kExpected[] = {
#include "engine_golden.inc"
};

topology::NetworkConfig golden_network(topology::NetworkKind kind) {
  topology::NetworkConfig config;
  config.kind = kind;
  config.topology = "cube";
  config.radix = 2;
  config.stages = 3;
  config.dilation = 2;
  config.vcs = 2;
  return config;
}

traffic::WorkloadSpec golden_workload() {
  traffic::WorkloadSpec workload;
  workload.offered = 0.45;
  workload.length = traffic::LengthSpec::uniform(4, 64);
  return workload;
}

SimResult run_case(const GoldenCase& gc, bool worm_trace = false) {
  const topology::Network net = topology::build_network(golden_network(gc.kind));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload = golden_workload();
  traffic::StandardTraffic traffic(net, workload);
  if (gc.store_forward) {
    StoreForwardConfig config;
    config.seed = 7;
    config.buffer_packets = 2;
    config.warmup_cycles = 500;
    config.measure_cycles = 4'000;
    config.drain_cycles = 1'500;
    config.telemetry.worm_trace = worm_trace;
    StoreForwardEngine engine(net, *router, &traffic, config);
    return engine.run();
  }
  SimConfig config;
  config.seed = 7;
  config.arbitration = gc.arbitration;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  config.record_channel_utilization = true;
  config.telemetry.counters = true;
  config.telemetry.sampling = true;
  config.telemetry.sample_interval_cycles = 256;
  config.telemetry.sample_capacity = 64;
  config.telemetry.worm_trace = worm_trace;
  Engine engine(net, *router, &traffic, config);
  return engine.run();
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Two runs of the same seed must agree bit for bit (no hidden global
// state, no address-dependent iteration anywhere in the hot loop).
TEST(Golden, SameSeedSameBits) {
  for (const GoldenCase& gc : kCases) {
    SCOPED_TRACE(gc.name);
    const SimResult a = run_case(gc);
    const SimResult b = run_case(gc);
    EXPECT_EQ(digest(a), digest(b));
    EXPECT_EQ(a.delivered_messages_total, b.delivered_messages_total);
    EXPECT_EQ(bits_of(a.latency_cycles.mean()), bits_of(b.latency_cycles.mean()));
  }
}

// Every run must match the committed pre-optimization snapshot exactly.
TEST(Golden, MatchesCommittedSnapshot) {
  ASSERT_EQ(std::size(kExpected), std::size(kCases));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    SCOPED_TRACE(kCases[i].name);
    ASSERT_STREQ(kExpected[i].name, kCases[i].name);
    const SimResult r = run_case(kCases[i]);
    EXPECT_EQ(r.delivered_messages_total,
              kExpected[i].delivered_messages_total);
    EXPECT_EQ(bits_of(r.latency_cycles.mean()),
              kExpected[i].latency_mean_bits)
        << "latency mean drifted: " << r.latency_cycles.mean();
    EXPECT_EQ(digest(r), kExpected[i].digest);
  }
}

// Per-worm tracing must be a pure observer: with worm_trace on, every
// digest still matches the committed pre-tracing snapshot bit for bit
// (the tracer draws no randomness and never feeds back into the engine).
TEST(Golden, TraceOnDigestsBitwiseUnchanged) {
  ASSERT_EQ(std::size(kExpected), std::size(kCases));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    SCOPED_TRACE(kCases[i].name);
    const SimResult r = run_case(kCases[i], /*worm_trace=*/true);
    ASSERT_NE(r.worm_trace, nullptr);
    EXPECT_EQ(digest(r), kExpected[i].digest);
    EXPECT_EQ(r.delivered_messages_total,
              kExpected[i].delivered_messages_total);
    EXPECT_EQ(bits_of(r.latency_cycles.mean()),
              kExpected[i].latency_mean_bits);
  }
}

// Emits the .inc content (see file comment); passes silently otherwise.
TEST(Golden, Emit) {
  const char* env = std::getenv("WORMSIM_EMIT_GOLDEN");
  if (env == nullptr || env[0] == '\0' || env[0] == '0') GTEST_SKIP();
  std::printf("// BEGIN engine_golden\n");
  for (const GoldenCase& gc : kCases) {
    const SimResult r = run_case(gc);
    std::printf("    {\"%s\", 0x%016llxULL, %lluULL, 0x%016llxULL},\n",
                gc.name, static_cast<unsigned long long>(digest(r)),
                static_cast<unsigned long long>(r.delivered_messages_total),
                static_cast<unsigned long long>(
                    bits_of(r.latency_cycles.mean())));
  }
  std::printf("// END engine_golden\n");
}

}  // namespace
}  // namespace wormsim::sim
