// Golden determinism tests for the simulation engines.
//
// Pins the *bitwise* content of SimResult (the digest of
// golden_digest.hpp) — latency statistics, histogram bins, per-channel
// busy cycles, telemetry counters and samples — for one small configuration
// per network kind (TMIN/DMIN/VMIN/BMIN), plus a
// random-arbitration variant, a single-VC BMIN (the single-lane advance
// path on a network whose channel ids are not feed-forward), a 2-VC BMIN
// with 4-flit buffers and credit delay 2 (the one-pass advance under
// delayed credits) and two store-and-forward references.  The expected
// digests in engine_golden.inc were emitted by the pre-optimization
// scan-order engine, so they prove the active-set scheduler reproduces
// the exact same fixpoint move-set and RNG draw order (same seed ->
// identical results, no silent behavior drift in any figure).  BMIN_1vc
// was emitted later, by the multi-pass scan the worm chase replaced, and
// BMIN_vc_deep by the engine that served every blocked header every
// cycle and re-tried upstream channels under delayed credits.
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
#include <filesystem>
#include <string>
#include <vector>

#include "golden_digest.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim {
namespace {

SimConfig case_config(const GoldenCase& gc) {
  SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  if (gc.store_forward) {
    config.buffer_depth = 2;
    return config;
  }
  config.arbitration = gc.arbitration;
  config.buffer_depth = gc.buffer_depth;
  config.credit_delay = gc.credit_delay;
  config.telemetry.counters = true;
  config.telemetry.sampling = true;
  config.telemetry.sample_interval_cycles = 256;
  config.telemetry.sample_capacity = 64;
  return config;
}

/// Runs `gc` under `config`.  On wormhole cases `sink` sees every engine
/// event and `packets` receives the engine's packet_count().
SimResult run_case(const GoldenCase& gc, const SimConfig& config,
                   TraceSink* sink = nullptr, std::size_t* packets = nullptr) {
  const topology::Network net =
      topology::build_network(golden_network(gc.kind, gc.vcs));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload = golden_workload();
  traffic::StandardTraffic traffic(net, workload);
  if (gc.store_forward) {
    StoreForwardEngine engine(net, *router, &traffic, config);
    return engine.run();
  }
  Engine engine(net, *router, &traffic, config);
  engine.set_trace_sink(sink);
  SimResult result = engine.run();
  if (packets != nullptr) *packets = engine.packet_count();
  return result;
}

SimResult run_case(const GoldenCase& gc, bool worm_trace = false) {
  SimConfig config = case_config(gc);
  config.telemetry.worm_trace = worm_trace;
  return run_case(gc, config);
}

/// digest() of a run of `gc`, on the network the case runs on.
std::uint64_t case_digest(const GoldenCase& gc, const SimResult& r) {
  const topology::Network net =
      topology::build_network(golden_network(gc.kind, gc.vcs));
  return digest(r, net);
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
    EXPECT_EQ(case_digest(gc, a), case_digest(gc, b));
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
    EXPECT_EQ(case_digest(kCases[i], r), kExpected[i].digest);
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
    EXPECT_EQ(case_digest(kCases[i], r), kExpected[i].digest);
    EXPECT_EQ(r.delivered_messages_total,
              kExpected[i].delivered_messages_total);
    EXPECT_EQ(bits_of(r.latency_cycles.mean()),
              kExpected[i].latency_mean_bits);
  }
}

// Every observer at once — counters, sampling, worm trace, heartbeats,
// profiler, validator, and a recording sink on the wormhole cases — still
// leaves every digest on the committed snapshot, and the sink sees one
// delivery per delivered message and at least as many creations as the
// engine holds packet records (records are reused).  The
// store-and-forward engine ignores the per-cycle observers it has no use
// for, so its digests cannot move either.
TEST(Golden, EveryObserverOnDigestsBitwiseUnchanged) {
  ASSERT_EQ(std::size(kExpected), std::size(kCases));
  const std::string dir = testing::TempDir() + "golden_all_observers";
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const GoldenCase& gc = kCases[i];
    SCOPED_TRACE(gc.name);
    SimConfig config = case_config(gc);
    config.telemetry.counters = true;
    config.telemetry.sampling = true;
    config.telemetry.worm_trace = true;
    config.telemetry.heartbeat_cycles = 256;
    config.telemetry.heartbeat_dir = dir;
    config.telemetry.heartbeat_tag = gc.name;
    config.telemetry.profile = true;
    config.validate = true;
    RecordingTraceSink sink;
    std::size_t packets = 0;
    const SimResult r = run_case(gc, config, &sink, &packets);
    EXPECT_EQ(case_digest(gc, r), kExpected[i].digest);
    EXPECT_EQ(r.delivered_messages_total,
              kExpected[i].delivered_messages_total);
    EXPECT_EQ(bits_of(r.latency_cycles.mean()),
              kExpected[i].latency_mean_bits);
    EXPECT_NE(r.worm_trace, nullptr);
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + gc.name + ".ndjson"));
    if (gc.store_forward) continue;
    EXPECT_TRUE(r.phase_profile.enabled);
    std::size_t created = 0;
    std::size_t delivered = 0;
    for (const TraceEvent& event : sink.events()) {
      created += event.kind == TraceEvent::Kind::kCreated ? 1 : 0;
      delivered += event.kind == TraceEvent::Kind::kDelivered ? 1 : 0;
    }
    EXPECT_GT(created, 0u);
    EXPECT_GT(packets, 0u);
    EXPECT_LE(packets, created);
    EXPECT_EQ(delivered, r.delivered_messages_total);
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
                gc.name,
                static_cast<unsigned long long>(case_digest(gc, r)),
                static_cast<unsigned long long>(r.delivered_messages_total),
                static_cast<unsigned long long>(
                    bits_of(r.latency_cycles.mean())));
  }
  std::printf("// END engine_golden\n");
}

}  // namespace
}  // namespace wormsim::sim
