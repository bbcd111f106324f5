// Tests for the point-granular sweep scheduler: bitwise equivalence with
// the sequential path, the speculated early-stop contract, and the
// deterministic figure sharding used by CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "experiment/figures.hpp"
#include "experiment/scheduler.hpp"
#include "partition/cluster.hpp"

namespace wormsim::experiment {
namespace {

void expect_point_eq(const SweepPoint& a, const SweepPoint& b) {
  // EXPECT_EQ on doubles is exact equality, not a ULP tolerance: the
  // scheduler promises bitwise-identical output.
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

void expect_series_eq(const std::vector<Series>& a,
                      const std::vector<Series>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    SCOPED_TRACE(a[s].label);
    EXPECT_EQ(a[s].label, b[s].label);
    ASSERT_EQ(a[s].points.size(), b[s].points.size());
    for (std::size_t p = 0; p < a[s].points.size(); ++p) {
      SCOPED_TRACE(p);
      expect_point_eq(a[s].points[p], b[s].points[p]);
    }
  }
}

SeriesSpec tiny_spec(const topology::NetworkConfig& net) {
  SeriesSpec spec;
  spec.label = net.describe();
  spec.net = net;
  spec.workload = [](const topology::NetView& network, double load) {
    traffic::WorkloadSpec workload;
    workload.offered = load;
    workload.length = traffic::LengthSpec::uniform(4, 32);
    workload.clustering = partition::Clustering::global(network.node_count());
    return workload;
  };
  return spec;
}

std::vector<SeriesSpec> tiny_specs() {
  return {tiny_spec(tmin_config("cube", 2, 3)),
          tiny_spec(dmin_config("cube", 2, 3)), tiny_spec(bmin_config(2, 3))};
}

SweepOptions tiny_options() {
  SweepOptions options;
  options.loads = {0.1, 0.3};
  options.sim.seed = 3;
  options.sim.warmup_cycles = 1'000;
  options.sim.measure_cycles = 6'000;
  options.sim.drain_cycles = 1'000;
  return options;
}

/// Loads chosen so every series saturates partway through: the sequential
/// loop stops early and the pool must speculate and discard.
SweepOptions saturating_options() {
  SweepOptions options = tiny_options();
  options.loads = {0.05, 0.10, 0.70, 0.80, 0.90, 0.95};
  options.sim.sustainable_queue_limit = 4;  // trip the verdict early
  options.stop_after_unsustainable = 2;
  return options;
}

TEST(Scheduler, PoolMatchesSequentialBitwise) {
  const auto specs = tiny_specs();
  const auto options = tiny_options();
  PoolOptions sequential;
  sequential.threads = 1;
  const auto base = run_series_pool(specs, options, sequential);
  // 0 = one worker per hardware thread; 16 is more workers than points.
  for (unsigned threads : {0u, 2u, 3u, 8u, 16u}) {
    SCOPED_TRACE(threads);
    PoolOptions pool;
    pool.threads = threads;
    expect_series_eq(base, run_series_pool(specs, options, pool));
  }
}

// A real registered figure, run through the same entry point figures_cli
// and the bench harness use (--threads), must produce bitwise-identical
// points in every field whether the series run sequentially or fanned out
// over the worker pool.
TEST(Scheduler, FigureSubsetBitwiseEqual) {
  for (const char* id : {"fig16a", "fig18a"}) {
    SCOPED_TRACE(id);
    RunOptions options;
    options.quick = true;
    options.seed = 99;
    options.threads = 1;
    const FigureResult sequential = run_figure(id, options);
    options.threads = 3;
    expect_series_eq(sequential.series, run_figure(id, options).series);
  }
}

TEST(Scheduler, MatchesRunSeriesPointForPoint) {
  const auto specs = tiny_specs();
  const auto options = tiny_options();
  PoolOptions pool;
  pool.threads = 4;
  const auto pooled = run_series_pool(specs, options, pool);
  std::vector<Series> sequential;
  for (const SeriesSpec& spec : specs) {
    sequential.push_back(run_series(spec, options));
  }
  expect_series_eq(sequential, pooled);
}

// The early-stop contract: stop_after_unsustainable makes later points
// conditional on earlier verdicts.  A speculating pool must emit exactly
// the sequential point set — no extra trailing points, same values.
TEST(Scheduler, EarlyStopContractWithSpeculation) {
  const auto specs = tiny_specs();
  const auto options = saturating_options();
  std::vector<Series> sequential;
  for (const SeriesSpec& spec : specs) {
    sequential.push_back(run_series(spec, options));
  }
  // The scenario only exercises the contract if some series actually
  // stops early.
  bool some_series_stopped = false;
  for (const Series& series : sequential) {
    if (series.points.size() < options.loads.size()) {
      some_series_stopped = true;
    }
  }
  ASSERT_TRUE(some_series_stopped);

  for (unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    PoolOptions pool;
    pool.threads = threads;
    PoolStats stats;
    const auto pooled = run_series_pool(specs, options, pool, &stats);
    expect_series_eq(sequential, pooled);
    // Every emitted point was either computed or replayed; speculated
    // points are extra work, never extra output.
    std::size_t emitted = 0;
    for (const Series& series : pooled) emitted += series.points.size();
    EXPECT_GE(stats.computed + stats.cache_hits, emitted);
    // Instrumentation: the pool reports its actual worker count (clamped
    // to the point count), summed simulate time, and its own wall time.
    EXPECT_GT(stats.threads, 0u);
    EXPECT_LE(stats.threads, threads);
    EXPECT_GT(stats.busy_seconds, 0.0);
    EXPECT_GT(stats.wall_seconds, 0.0);
    EXPECT_GT(stats.utilization(), 0.0);
    EXPECT_LE(stats.utilization(), 1.0 + 1e-9);
  }
}

TEST(Scheduler, StopDisabledRunsEveryLoad) {
  const auto specs = tiny_specs();
  SweepOptions options = saturating_options();
  options.stop_after_unsustainable = 0;
  PoolOptions pool;
  pool.threads = 8;
  const auto pooled = run_series_pool(specs, options, pool);
  for (const Series& series : pooled) {
    EXPECT_EQ(series.points.size(), options.loads.size());
  }
}

TEST(Scheduler, EmptyInputs) {
  PoolOptions pool;
  pool.threads = 4;
  EXPECT_TRUE(run_series_pool({}, tiny_options(), pool).empty());
  SweepOptions no_loads = tiny_options();
  no_loads.loads.clear();
  const auto series = run_series_pool(tiny_specs(), no_loads, pool);
  ASSERT_EQ(series.size(), 3u);
  for (const Series& s : series) EXPECT_TRUE(s.points.empty());
}

// ---- CI sharding ---------------------------------------------------------

TEST(Sharding, ShardsPartitionTheRegistry) {
  RunOptions options;
  options.quick = true;
  const std::vector<std::string> all = figure_ids();
  for (unsigned count : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(count);
    std::set<std::string> seen;
    std::size_t total = 0;
    for (unsigned index = 0; index < count; ++index) {
      for (const std::string& id : shard_figure_ids(index, count, options)) {
        EXPECT_TRUE(seen.insert(id).second) << id << " assigned twice";
        ++total;
      }
    }
    EXPECT_EQ(total, all.size());
    for (const std::string& id : all) {
      EXPECT_TRUE(seen.count(id) == 1) << id << " unassigned";
    }
  }
}

TEST(Sharding, DeterministicAndOrderPreserving) {
  RunOptions options;
  options.quick = true;
  const std::vector<std::string> all = figure_ids();
  for (unsigned index = 0; index < 4; ++index) {
    const auto first = shard_figure_ids(index, 4, options);
    EXPECT_EQ(first, shard_figure_ids(index, 4, options));
    EXPECT_FALSE(first.empty()) << "shard " << index << " got no figures";
    // Registry order within a shard.
    std::vector<std::size_t> positions;
    for (const std::string& id : first) {
      positions.push_back(static_cast<std::size_t>(
          std::find(all.begin(), all.end(), id) - all.begin()));
    }
    EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
  }
}

// Union of sharded figure runs == the sequential --all run, bitwise; this
// is the property the CI figures matrix relies on.
TEST(Sharding, ShardedUnionEqualsSequentialBitwise) {
  RunOptions options;
  options.quick = true;
  options.seed = 7;
  // Restrict to a cheap subset but drive it through the real partition
  // function so assignment logic is what's under test.
  const std::vector<std::string> subset = {"fig16a", "fig18a", "fig20a"};
  std::vector<FigureResult> sequential;
  for (const std::string& id : subset) {
    sequential.push_back(run_figure(id, options));
  }
  std::vector<FigureResult> sharded;
  for (unsigned index = 0; index < 2; ++index) {
    for (const std::string& id : shard_figure_ids(index, 2, options)) {
      if (std::find(subset.begin(), subset.end(), id) == subset.end()) {
        continue;
      }
      options.threads = 3;  // sharded CI runs use the pool
      sharded.push_back(run_figure(id, options));
      options.threads = 1;
    }
  }
  ASSERT_EQ(sharded.size(), subset.size());
  for (const FigureResult& expected : sequential) {
    const auto it = std::find_if(
        sharded.begin(), sharded.end(),
        [&](const FigureResult& r) { return r.id == expected.id; });
    ASSERT_NE(it, sharded.end()) << expected.id;
    EXPECT_EQ(it->title, expected.title);
    expect_series_eq(expected.series, it->series);
  }
}

}  // namespace
}  // namespace wormsim::experiment
