// Tests for the content-addressed sweep-point cache: fingerprint
// stability and sensitivity, hit/miss/store accounting, corrupt-entry
// rejection, and bitwise replay through the scheduler.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "experiment/cache.hpp"
#include "experiment/figures.hpp"
#include "experiment/scheduler.hpp"
#include "partition/cluster.hpp"

namespace wormsim::experiment {
namespace {

namespace fs = std::filesystem;

std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "wormsim_cache_" + tag;
  fs::remove_all(dir);
  return dir;
}

SeriesSpec tiny_spec() {
  SeriesSpec spec;
  spec.label = "tmin cube";
  spec.net = tmin_config("cube", 2, 3);
  spec.workload = [](const topology::NetView& network, double load) {
    traffic::WorkloadSpec workload;
    workload.offered = load;
    workload.length = traffic::LengthSpec::uniform(4, 32);
    workload.clustering = partition::Clustering::global(network.node_count());
    return workload;
  };
  return spec;
}

/// The cache key of `spec` at `load` over `base`, as the pool forms it.
std::string key_of(const SeriesSpec& spec, double load,
                   const sim::SimConfig& base) {
  return ResultCache::fingerprint(resolve_point(spec, load, base));
}

SweepOptions tiny_options() {
  SweepOptions options;
  options.loads = {0.1, 0.3};
  options.sim.seed = 11;
  options.sim.warmup_cycles = 1'000;
  options.sim.measure_cycles = 6'000;
  options.sim.drain_cycles = 1'000;
  return options;
}

SweepPoint sample_point() {
  SweepPoint point;
  point.offered_requested = 0.3;
  point.offered_measured = 0.2987654321098765;
  point.throughput = 0.29;
  point.latency_us = 12.25;
  point.latency_p95_us = 31.5;
  point.latency_p99_us = 47.75;
  point.network_latency_us = 7.125;
  point.queueing_us = 5.0 / 3.0;  // not exactly representable in decimal
  point.sustainable = true;
  point.max_source_queue = 7;
  point.delivered_messages = 12345;
  point.delivery_fraction = 0.921875;
  point.terminated_messages = 1047;
  point.time_to_drain_us = 63.5;
  return point;
}

void expect_point_eq(const SweepPoint& a, const SweepPoint& b) {
  EXPECT_EQ(a.offered_requested, b.offered_requested);
  EXPECT_EQ(a.offered_measured, b.offered_measured);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.latency_us, b.latency_us);
  EXPECT_EQ(a.latency_p95_us, b.latency_p95_us);
  EXPECT_EQ(a.latency_p99_us, b.latency_p99_us);
  EXPECT_EQ(a.network_latency_us, b.network_latency_us);
  EXPECT_EQ(a.queueing_us, b.queueing_us);
  EXPECT_EQ(a.sustainable, b.sustainable);
  EXPECT_EQ(a.max_source_queue, b.max_source_queue);
  EXPECT_EQ(a.delivered_messages, b.delivered_messages);
  EXPECT_EQ(a.delivery_fraction, b.delivery_fraction);
  EXPECT_EQ(a.terminated_messages, b.terminated_messages);
  EXPECT_EQ(a.time_to_drain_us, b.time_to_drain_us);
}

TEST(CacheFingerprint, StableAcrossCalls) {
  const SeriesSpec spec = tiny_spec();
  const sim::SimConfig config = tiny_options().sim;
  EXPECT_EQ(key_of(spec, 0.3, config),
            key_of(spec, 0.3, config));
}

TEST(CacheFingerprint, SensitiveToEveryInput) {
  const SeriesSpec base = tiny_spec();
  const sim::SimConfig config = tiny_options().sim;
  const std::string fp = key_of(base, 0.3, config);

  EXPECT_NE(fp, key_of(base, 0.30001, config));

  sim::SimConfig other_seed = config;
  other_seed.seed = config.seed + 1;
  EXPECT_NE(fp, key_of(base, 0.3, other_seed));

  sim::SimConfig other_cycles = config;
  other_cycles.measure_cycles += 1;
  EXPECT_NE(fp, key_of(base, 0.3, other_cycles));

  SeriesSpec other_net = base;
  other_net.net = dmin_config("cube", 2, 3);
  EXPECT_NE(fp, key_of(other_net, 0.3, config));

  SeriesSpec other_switching = base;
  other_switching.switching = SeriesSpec::Switching::kStoreForward;
  EXPECT_NE(fp, key_of(other_switching, 0.3, config));

  // tweak_sim is applied before serializing, so a tweak that changes a
  // result-affecting field changes the address...
  SeriesSpec tweaked = base;
  tweaked.tweak_sim = [](sim::SimConfig& c) { c.seed += 99; };
  EXPECT_NE(fp, key_of(tweaked, 0.3, config));

  // ...and the label (presentation only) does not.
  SeriesSpec relabeled = base;
  relabeled.label = "same physics, different name";
  EXPECT_EQ(fp, key_of(relabeled, 0.3, config));
}

TEST(CacheFingerprint, SensitiveToFlowControlKnobs) {
  // The flow-control axes change delivered results, so a point computed
  // at one (scheme, depth, delay) must never satisfy a probe for another
  // — each knob must move the address.
  const SeriesSpec spec = tiny_spec();
  const sim::SimConfig config = tiny_options().sim;
  const std::string fp = key_of(spec, 0.3, config);

  sim::SimConfig deeper = config;
  deeper.buffer_depth = 4;
  EXPECT_NE(fp, key_of(spec, 0.3, deeper));

  sim::SimConfig onoff = config;
  onoff.flow_control = sim::FlowControlScheme::kOnOff;
  EXPECT_NE(fp, key_of(spec, 0.3, onoff));

  sim::SimConfig vct = config;
  vct.flow_control = sim::FlowControlScheme::kVirtualCutThrough;
  EXPECT_NE(fp, key_of(spec, 0.3, vct));

  sim::SimConfig delayed = config;
  delayed.credit_delay = 2;
  EXPECT_NE(fp, key_of(spec, 0.3, delayed));

  // All three knobs are distinct axes, not aliases of one another.
  sim::SimConfig deep_delayed = deeper;
  deep_delayed.credit_delay = 2;
  EXPECT_NE(key_of(spec, 0.3, deeper),
            key_of(spec, 0.3, deep_delayed));
}

TEST(CacheFingerprint, ObservabilityTogglesDoNotSplitTheAddressSpace) {
  const SeriesSpec spec = tiny_spec();
  sim::SimConfig config = tiny_options().sim;
  const std::string fp = key_of(spec, 0.3, config);
  config.telemetry.counters = true;
  config.telemetry.sampling = true;
  config.validate = true;
  EXPECT_EQ(fp, key_of(spec, 0.3, config));
}

TEST(CacheFingerprint, EngineSemanticsVersionLooksLikeAHash) {
  const std::string& version = ResultCache::engine_semantics_version();
  ASSERT_EQ(version.size(), 16u);
  for (const char c : version) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
  // ...and is folded into every fingerprint.
  EXPECT_NE(key_of(tiny_spec(), 0.3, tiny_options().sim)
                .find(version),
            std::string::npos);
}

// The whole key of one point, committed: a field dropped from the key or
// moved within it fails here instead of silently merging or splitting
// cache addresses (SensitiveToEveryInput covers only the fields it
// varies).  fig18a's TMIN at 30% load in quick mode; the engine-semantics
// version is substituted, so regenerated golden digests do not fail it.
TEST(CacheFingerprint, PinnedForFig18aTminQuick) {
  RunOptions options;
  options.quick = true;
  const FigureSpec fig18a = figure_spec("fig18a");
  ASSERT_EQ(fig18a.series.front().label, "TMIN(cube)");
  const std::string expected =
      "cache_schema=4;engine=" + ResultCache::engine_semantics_version() +
      ";net.kind=TMIN;net.topology=cube;net.radix=4;net.stages=3;"
      "net.dilation=1;net.vcs=1;net.vc_node_links=0;net.extra_stages=0;"
      "net.splitter_dilation=0;net.wiring_seed=24301;switching=wormhole;"
      "sim.seed=20250707;sim.arbitration=0;sim.lane_selection=0;"
      "sim.warmup_cycles=5000;sim.measure_cycles=15000;"
      "sim.drain_cycles=5000;sim.sustainable_queue_limit=100;"
      "sim.queue_capacity=1500;sim.deadlock_watchdog_cycles=50000;"
      "sim.buffer_depth=1;sim.flow_control=credit;sim.credit_delay=0;"
      "sim.fault_fraction=0;sim.fault_seed=1;sim.fault_at_cycle=0;"
      "load=0.29999999999999999;wl.pattern=0;"
      "wl.hotspot_extra=0.050000000000000003;wl.butterfly_index=2;"
      "wl.len.kind=0;wl.len.min=8;"
      "wl.len.max=1024;wl.len.long_min=512;wl.len.long_max=1024;"
      "wl.len.short_fraction=0.5;wl.cluster_of="
      "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
      "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
      ";wl.cluster_weights=;";
  EXPECT_EQ(key_of(fig18a.series.front(), 0.3, options.sim_config()),
            expected);
}

TEST(Cache, StoreThenLoadRoundTripsBitwise) {
  const ResultCache cache(fresh_cache_dir("roundtrip"));
  const std::string fp =
      key_of(tiny_spec(), 0.3, tiny_options().sim);
  EXPECT_FALSE(cache.load(fp).has_value());
  const SweepPoint point = sample_point();
  cache.store(fp, point);
  const auto loaded = cache.load(fp);
  ASSERT_TRUE(loaded.has_value());
  expect_point_eq(point, *loaded);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(Cache, InfinitePercentileRoundTrips) {
  const ResultCache cache(fresh_cache_dir("inf"));
  SweepPoint point = sample_point();
  point.latency_p95_us = std::numeric_limits<double>::infinity();
  point.latency_p99_us = std::numeric_limits<double>::infinity();
  point.sustainable = false;
  const std::string fp =
      key_of(tiny_spec(), 0.95, tiny_options().sim);
  cache.store(fp, point);
  const auto loaded = cache.load(fp);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(std::isinf(loaded->latency_p95_us));
  EXPECT_TRUE(std::isinf(loaded->latency_p99_us));
  expect_point_eq(point, *loaded);
}

TEST(Cache, TruncatedEntryIsRejectedNotFatal) {
  const ResultCache cache(fresh_cache_dir("truncated"));
  const std::string fp =
      key_of(tiny_spec(), 0.3, tiny_options().sim);
  cache.store(fp, sample_point());
  // Simulate a crash mid-write from a pre-atomic-rename world: chop the
  // entry in half.
  const std::string path = cache.entry_path(fp);
  std::string bytes;
  {
    std::ifstream in(path);
    std::getline(in, bytes, '\0');
  }
  ASSERT_GT(bytes.size(), 10u);
  {
    std::ofstream out(path, std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_FALSE(cache.load(fp).has_value());
  EXPECT_EQ(cache.stats().rejected, 1u);
  // The scheduler's behaviour on rejection: recompute and overwrite.
  cache.store(fp, sample_point());
  ASSERT_TRUE(cache.load(fp).has_value());
}

TEST(Cache, GarbageEntryIsRejectedNotFatal) {
  const ResultCache cache(fresh_cache_dir("garbage"));
  const std::string fp =
      key_of(tiny_spec(), 0.3, tiny_options().sim);
  {
    std::ofstream out(cache.entry_path(fp), std::ios::trunc);
    out << "not json at all {{{";
  }
  EXPECT_FALSE(cache.load(fp).has_value());
  EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST(Cache, KeyMismatchReadsAsMiss) {
  const ResultCache cache(fresh_cache_dir("collision"));
  const std::string fp_a =
      key_of(tiny_spec(), 0.1, tiny_options().sim);
  const std::string fp_b =
      key_of(tiny_spec(), 0.3, tiny_options().sim);
  cache.store(fp_a, sample_point());
  // Force the hash-collision path: copy A's entry file to B's path.  The
  // embedded key no longer matches the probe, so it must not be trusted.
  fs::copy_file(cache.entry_path(fp_a), cache.entry_path(fp_b),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(cache.load(fp_b).has_value());
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_TRUE(cache.load(fp_a).has_value());
}

TEST(Cache, SchedulerWarmRunIsAllHitsAndBitwiseEqual) {
  const std::string dir = fresh_cache_dir("scheduler");
  const std::vector<SeriesSpec> specs = {tiny_spec()};
  const SweepOptions options = tiny_options();

  ResultCache cold(dir);
  PoolOptions pool;
  pool.threads = 2;
  pool.cache = &cold;
  PoolStats cold_stats;
  const auto first = run_series_pool(specs, options, pool, &cold_stats);
  EXPECT_EQ(cold_stats.computed, options.loads.size());
  EXPECT_EQ(cold.stats().hits, 0u);

  ResultCache warm(dir);
  pool.cache = &warm;
  PoolStats warm_stats;
  const auto second = run_series_pool(specs, options, pool, &warm_stats);
  EXPECT_EQ(warm_stats.computed, 0u);
  // Busy time counts simulate time only; an all-hits run does none.
  EXPECT_EQ(warm_stats.busy_seconds, 0.0);
  EXPECT_EQ(warm.stats().hits, options.loads.size());
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().stores, 0u);

  // And equal to an uncached sequential run, bitwise.
  PoolOptions uncached;
  uncached.threads = 1;
  const auto reference = run_series_pool(specs, options, uncached);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_EQ(reference.size(), 1u);
  ASSERT_EQ(first[0].points.size(), reference[0].points.size());
  ASSERT_EQ(second[0].points.size(), reference[0].points.size());
  for (std::size_t p = 0; p < reference[0].points.size(); ++p) {
    SCOPED_TRACE(p);
    expect_point_eq(reference[0].points[p], first[0].points[p]);
    expect_point_eq(reference[0].points[p], second[0].points[p]);
  }
}

TEST(Cache, NoTemporaryFilesLeftBehind) {
  const std::string dir = fresh_cache_dir("tmpfiles");
  const ResultCache cache(dir);
  for (double load : {0.1, 0.2, 0.3}) {
    cache.store(key_of(tiny_spec(), load,
                                         tiny_options().sim),
                sample_point());
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << entry.path() << " left behind";
  }
}

}  // namespace
}  // namespace wormsim::experiment
