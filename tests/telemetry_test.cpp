// Tests for the telemetry subsystem: engine counters reconciling with
// SimResult totals, heatmaps cross-checked against the partitioning
// channel-usage analysis, Chrome-trace export, the JSON document model,
// versioned result files, and the sweep tweak-ordering regression.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "experiment/figures.hpp"
#include "experiment/results_json.hpp"
#include "experiment/run_options.hpp"
#include "experiment/sweep.hpp"
#include "partition/channel_usage.hpp"
#include "partition/cluster.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/manifest.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"

namespace wormsim::telemetry {
namespace {

topology::NetworkConfig small_tmin() {
  topology::NetworkConfig config;
  config.kind = topology::NetworkKind::kTMIN;
  config.topology = "cube";
  config.radix = 2;
  config.stages = 3;
  config.dilation = 1;
  config.vcs = 1;
  return config;
}

sim::SimConfig manual_config() {
  sim::SimConfig config;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 30;
  config.drain_cycles = 0;
  return config;
}

// ---- Counters -----------------------------------------------------------

TEST(Counters, DisabledByDefaultAndCostsNothingToCarry) {
  const topology::Network net = topology::build_network(small_tmin());
  const auto router = routing::make_router(net);
  sim::Engine engine(net, *router, nullptr, manual_config());
  engine.inject_message(0, 5, 4);
  ASSERT_TRUE(engine.run_until_idle(1'000));
  EXPECT_FALSE(engine.telemetry_counters().enabled());
}

TEST(Counters, EjectionCrossingsReconcileWithDeliveredFlits) {
  const topology::Network net = topology::build_network(small_tmin());
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.3;
  workload.length = traffic::LengthSpec::uniform(4, 32);
  traffic::StandardTraffic traffic(net, workload);

  sim::SimConfig config;
  config.seed = 99;
  config.warmup_cycles = 1'000;
  config.measure_cycles = 8'000;
  config.drain_cycles = 1'000;
  config.telemetry.counters = true;
  sim::Engine engine(net, *router, &traffic, config);
  const sim::SimResult result = engine.run();

  ASSERT_TRUE(result.telemetry_counters.enabled());
  EXPECT_GT(result.delivered_flits_in_window, 0u);

  // Counters cover the measurement window only, so ejection-channel
  // crossings equal the windowed delivered-flit total exactly.
  std::uint64_t ejection_crossings = 0;
  for (topology::NodeId node = 0; node < net.node_count(); ++node) {
    ejection_crossings += result.telemetry_counters.channel_flits(
        net, net.ejection_channel(node));
  }
  EXPECT_EQ(ejection_crossings, result.delivered_flits_in_window);

  // A denial and a blocked header-cycle are recorded together.
  EXPECT_EQ(result.telemetry_counters.total_denials(),
            result.telemetry_counters.total_blocked_cycles());
  EXPECT_GT(result.telemetry_counters.total_grants(), 0u);
}

TEST(Counters, FullWindowRunCountsEveryCrossingExactly) {
  // With no warmup the whole run is the measurement window, so every
  // flit's full journey is counted: stages+1 channel crossings per flit
  // on a TMIN, and one ejection crossing per delivered flit.
  const topology::Network net = topology::build_network(small_tmin());
  const auto router = routing::make_router(net);
  sim::SimConfig config = manual_config();
  config.telemetry.counters = true;
  sim::Engine engine(net, *router, nullptr, config);
  std::uint64_t flits = 0;
  for (topology::NodeId src = 0; src < net.node_count(); ++src) {
    const std::uint64_t dst = (src + 3) % net.node_count();
    const std::uint32_t length = 4 + src;
    engine.inject_message(src, dst, length);
    flits += length;
  }
  ASSERT_TRUE(engine.run_until_idle(10'000));

  const Counters& counters = engine.telemetry_counters();
  EXPECT_EQ(counters.total_flit_crossings(), flits * (net.stages() + 1));
  std::uint64_t ejection_crossings = 0;
  for (topology::NodeId node = 0; node < net.node_count(); ++node) {
    ejection_crossings +=
        counters.channel_flits(net, net.ejection_channel(node));
  }
  EXPECT_EQ(ejection_crossings, flits);
}

// ---- Heatmap ------------------------------------------------------------

// Rows are the (connection level, role) groups with their mean and max
// busy fraction, the per-level table cluster_workload prints.
TEST(Heatmap, AggregatesByLevelAndRole) {
  const topology::Network net = topology::build_network(small_tmin());
  Counters counters;
  counters.resize_for(net.lane_count(), net.switches().size());
  // Mark every injection channel busy half the time.
  for (const topology::PhysChannel& ch : net.channels()) {
    if (ch.role == topology::ChannelRole::kInjection) {
      counters.lane_flits[ch.first_lane] = 50;
    }
  }
  const ChannelHeatmap heatmap = build_heatmap(net, counters, 100);
  bool found_injection = false;
  for (const StageRow& row : heatmap.stages) {
    if (row.role == topology::ChannelRole::kInjection) {
      found_injection = true;
      EXPECT_EQ(row.cells.size(), 8u);
      EXPECT_DOUBLE_EQ(row.mean_utilization, 0.5);
      EXPECT_DOUBLE_EQ(row.max_utilization, 0.5);
    } else {
      EXPECT_DOUBLE_EQ(row.mean_utilization, 0.0);
    }
  }
  EXPECT_TRUE(found_injection);
  EXPECT_EQ(topology::role_name(topology::ChannelRole::kForward), "forward");
}

TEST(Heatmap, MatchesChannelUsageAnalysis) {
  // Drive all intra-cluster pairs of one contiguous half of a 8-node TMIN
  // and compare the channels the simulation actually touched, per
  // connection level, against the static usage analysis (Section 4).
  const topology::Network net = topology::build_network(small_tmin());
  const auto router = routing::make_router(net);
  const partition::Clustering clustering =
      partition::Clustering::contiguous(net.node_count(), 2);
  const partition::UsageReport report =
      partition::analyze_channel_usage(net.topology(), clustering);

  sim::SimConfig config = manual_config();
  config.telemetry.counters = true;
  sim::Engine engine(net, *router, nullptr, config);
  for (topology::NodeId s : clustering.clusters[0]) {
    for (topology::NodeId d : clustering.clusters[0]) {
      if (s != d) engine.inject_message(s, d, 4);
    }
  }
  ASSERT_TRUE(engine.run_until_idle(100'000));

  const ChannelHeatmap heatmap =
      build_heatmap(net, engine.telemetry_counters(), engine.cycle());
  ASSERT_FALSE(heatmap.stages.empty());
  EXPECT_EQ(heatmap.cycles, engine.cycle());

  // Channels with traffic per connection level C_0 .. C_n.
  std::vector<std::uint64_t> used_per_level(net.stages() + 1, 0);
  for (const StageRow& row : heatmap.stages) {
    ASSERT_LT(row.conn_index, used_per_level.size());
    for (const ChannelCell& cell : row.cells) {
      if (cell.flits > 0) ++used_per_level[row.conn_index];
    }
  }
  const std::vector<std::uint64_t>& expected =
      report.clusters[0].channels_per_level;
  ASSERT_EQ(used_per_level.size(), expected.size());
  for (std::size_t level = 0; level < expected.size(); ++level) {
    EXPECT_EQ(used_per_level[level], expected[level]) << "level " << level;
  }
}

TEST(Heatmap, UtilizationBoundedAndHottestConsistent) {
  const topology::Network net = topology::build_network(small_tmin());
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.4;
  traffic::StandardTraffic traffic(net, workload);
  sim::SimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 500;
  config.telemetry.counters = true;
  sim::Engine engine(net, *router, &traffic, config);
  const sim::SimResult result = engine.run();

  const ChannelHeatmap heatmap =
      build_heatmap(net, result.telemetry_counters, result.measure_cycles);
  EXPECT_GT(heatmap.total_flits, 0u);
  double max_seen = 0.0;
  std::uint64_t flit_sum = 0;
  for (const StageRow& row : heatmap.stages) {
    EXPECT_LE(row.min_utilization, row.mean_utilization);
    EXPECT_LE(row.mean_utilization, row.max_utilization);
    EXPECT_LE(row.max_utilization, 1.0);  // one flit per channel per cycle
    flit_sum += row.total_flits;
    for (const ChannelCell& cell : row.cells) {
      max_seen = std::max(max_seen, cell.utilization);
    }
    EXPECT_FALSE(stage_label(row).empty());
  }
  EXPECT_EQ(flit_sum, heatmap.total_flits);
  EXPECT_DOUBLE_EQ(heatmap.hottest_utilization, max_seen);
  EXPECT_NE(heatmap.hottest_channel, topology::kInvalidId);

  std::ostringstream os;
  print_heatmap(heatmap, os);
  EXPECT_NE(os.str().find("C_1"), std::string::npos);
  EXPECT_NE(os.str().find("hottest"), std::string::npos);
}

// The glyph ramp must survive out-of-domain utilizations: values outside
// [0, 1] (including inf, NaN, and doubles too large for int) come from
// corrupted or mismatched counters, and casting them to int before
// clamping is undefined behavior.  Anything non-finite or negative maps
// to the cold end; anything >= 1 maps to the hot end.
TEST(Heatmap, PrintSurvivesOutOfDomainUtilization) {
  ChannelHeatmap heatmap;
  heatmap.cycles = 100;
  StageRow row;
  row.conn_index = 1;
  const double values[] = {0.0,
                           1.0,
                           -1.0,
                           1e300,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    ChannelCell cell;
    cell.channel = static_cast<topology::ChannelId>(i);
    cell.utilization = values[i];
    row.cells.push_back(cell);
  }
  heatmap.stages.push_back(row);

  std::ostringstream os;
  print_heatmap(heatmap, os);
  const std::string text = os.str();
  const std::size_t open = text.find('[');
  const std::size_t close = text.find(']');
  ASSERT_NE(open, std::string::npos);
  ASSERT_NE(close, std::string::npos);
  const std::string glyphs = text.substr(open + 1, close - open - 1);
  ASSERT_EQ(glyphs.size(), std::size(values));
  EXPECT_EQ(glyphs[0], ' ');   // 0.0 -> cold end
  EXPECT_EQ(glyphs[1], '@');   // 1.0 -> hot end
  EXPECT_EQ(glyphs[2], ' ');   // negative clamps cold
  EXPECT_EQ(glyphs[3], '@');   // huge clamps hot (no UB cast)
  EXPECT_EQ(glyphs[4], '@');   // +inf clamps hot
  EXPECT_EQ(glyphs[5], ' ');   // -inf clamps cold
  EXPECT_EQ(glyphs[6], ' ');   // NaN maps cold, not through the cast
}

// ---- Interval sampling --------------------------------------------------

TEST(Sampler, RingBufferKeepsNewestInOrder) {
  IntervalSampler sampler(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Sample s;
    s.cycle = i * 100;
    s.delivered_flits = i;
    sampler.record(s);
  }
  EXPECT_EQ(sampler.recorded(), 10u);
  EXPECT_EQ(sampler.dropped(), 6u);
  EXPECT_EQ(sampler.size(), 4u);
  const std::vector<Sample> ordered = sampler.ordered();
  ASSERT_EQ(ordered.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ordered[i].cycle, (7 + i) * 100);
    EXPECT_EQ(ordered[i].delivered_flits, 7 + i);
  }
}

TEST(Sampler, ZeroCapacityDropsEverything) {
  IntervalSampler sampler(0);
  sampler.record(Sample{});
  EXPECT_EQ(sampler.size(), 0u);
  EXPECT_EQ(sampler.recorded(), 0u);
  EXPECT_EQ(sampler.dropped(), 0u);
  EXPECT_TRUE(sampler.ordered().empty());
}

// Exactly `capacity` records is the boundary: the ring is full but nothing
// has been overwritten yet; the next record evicts exactly the oldest.
TEST(Sampler, ExactCapacityBoundaryThenFirstEviction) {
  IntervalSampler sampler(4);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    Sample s;
    s.cycle = i * 10;
    sampler.record(s);
  }
  EXPECT_EQ(sampler.size(), 4u);
  EXPECT_EQ(sampler.recorded(), 4u);
  EXPECT_EQ(sampler.dropped(), 0u);
  std::vector<Sample> ordered = sampler.ordered();
  ASSERT_EQ(ordered.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ordered[i].cycle, (i + 1) * 10);
  }

  Sample fifth;
  fifth.cycle = 50;
  sampler.record(fifth);
  EXPECT_EQ(sampler.size(), 4u);
  EXPECT_EQ(sampler.recorded(), 5u);
  EXPECT_EQ(sampler.dropped(), 1u);
  ordered = sampler.ordered();
  ASSERT_EQ(ordered.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ordered[i].cycle, (i + 2) * 10);  // 10 evicted, 20..50 kept
  }
}

TEST(Sampler, SingleSlotRingAlwaysHoldsTheLatest) {
  IntervalSampler sampler(1);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Sample s;
    s.cycle = i;
    sampler.record(s);
    ASSERT_EQ(sampler.ordered().size(), 1u);
    EXPECT_EQ(sampler.ordered()[0].cycle, i);
  }
  EXPECT_EQ(sampler.recorded(), 5u);
  EXPECT_EQ(sampler.dropped(), 4u);
}

// The engine samples whenever cycle % interval == 0, starting at cycle 0,
// and run() executes exactly total_cycles() steps — so the sample set is
// a closed-form function of (total, interval).
TEST(Sampler, EngineSamplesOnExactIntervalBoundaries) {
  const topology::Network net = topology::build_network(small_tmin());
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.3;
  traffic::StandardTraffic traffic(net, workload);
  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 2'000;
  config.drain_cycles = 137;  // total deliberately not a multiple of 256
  config.telemetry.sampling = true;
  config.telemetry.sample_interval_cycles = 256;
  config.telemetry.sample_capacity = 1'000;  // no wraparound
  sim::Engine engine(net, *router, &traffic, config);
  const sim::SimResult result = engine.run();

  const std::uint64_t total = config.total_cycles();
  const std::uint64_t expected = (total - 1) / 256 + 1;
  ASSERT_EQ(result.telemetry_samples.size(), expected);
  EXPECT_EQ(engine.sampler().dropped(), 0u);
  EXPECT_EQ(engine.sampler().recorded(), expected);
  for (std::size_t i = 0; i < result.telemetry_samples.size(); ++i) {
    EXPECT_EQ(result.telemetry_samples[i].cycle, i * 256);
  }
}

TEST(Sampler, EngineRecordsMonotonicSnapshots) {
  const topology::Network net = topology::build_network(small_tmin());
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.3;
  traffic::StandardTraffic traffic(net, workload);
  sim::SimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 500;
  config.telemetry.sampling = true;
  config.telemetry.sample_interval_cycles = 256;
  config.telemetry.sample_capacity = 8;  // force ring wraparound
  sim::Engine engine(net, *router, &traffic, config);
  const sim::SimResult result = engine.run();

  ASSERT_EQ(result.telemetry_samples.size(), 8u);
  EXPECT_GT(engine.sampler().dropped(), 0u);
  for (std::size_t i = 1; i < result.telemetry_samples.size(); ++i) {
    EXPECT_GT(result.telemetry_samples[i].cycle,
              result.telemetry_samples[i - 1].cycle);
    EXPECT_GE(result.telemetry_samples[i].delivered_flits,
              result.telemetry_samples[i - 1].delivered_flits);
    EXPECT_GE(result.telemetry_samples[i].flits_in_flight, 0);
    EXPECT_GE(result.telemetry_samples[i].worms_in_flight, 0);
  }
}

// ---- JSON document model ------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  JsonValue doc = JsonValue::object();
  doc.set("name", "w\"orm\n");
  doc.set("count", std::uint64_t{12345});
  doc.set("fraction", 0.25);
  doc.set("flag", true);
  doc.set("nothing", JsonValue());
  JsonValue list = JsonValue::array();
  list.push_back(1);
  list.push_back(2.5);
  list.push_back("three");
  doc.set("list", std::move(list));

  for (int indent : {-1, 0, 2}) {
    std::string error;
    const JsonValue back = JsonValue::parse(doc.dump_string(indent), &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(back.at("name").as_string(), "w\"orm\n");
    EXPECT_EQ(back.at("count").as_uint(), 12345u);
    EXPECT_DOUBLE_EQ(back.at("fraction").as_number(), 0.25);
    EXPECT_TRUE(back.at("flag").as_bool());
    EXPECT_TRUE(back.at("nothing").is_null());
    ASSERT_EQ(back.at("list").items().size(), 3u);
    EXPECT_DOUBLE_EQ(back.at("list").items()[1].as_number(), 2.5);
    EXPECT_EQ(back.at("list").items()[2].as_string(), "three");
  }
}

TEST(Json, ObjectsPreserveInsertionOrderAndSetReplaces) {
  JsonValue doc = JsonValue::object();
  doc.set("b", 1);
  doc.set("a", 2);
  doc.set("b", 3);  // replace in place, keep position
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "b");
  EXPECT_DOUBLE_EQ(doc.members()[0].second.as_number(), 3.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1} trailing"}) {
    std::string error;
    const JsonValue value = JsonValue::parse(bad, &error);
    EXPECT_TRUE(value.is_null()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, ParseRejectsMalformedNumbers) {
  // The number scanner must consume its whole token: stod's
  // longest-prefix behavior used to silently read "1-2" as 1 and
  // "1.2.3" as 1.2 — corrupting results instead of reporting the error.
  for (const char* bad :
       {"1-2", "1.2.3", "3-4e2", "1e", "1e+", "-", "1.2e4.5",
        "[1, 2-3]", "{\"p95\": 12..5}"}) {
    std::string error;
    const JsonValue value = JsonValue::parse(bad, &error);
    EXPECT_TRUE(value.is_null()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Well-formed exponent/sign forms still parse.
  const std::pair<const char*, double> good[] = {
      {"1e4", 1e4}, {"-2.5e-3", -2.5e-3}, {"0.5", 0.5}, {"12E+2", 1200.0}};
  for (const auto& [text, expected] : good) {
    std::string error;
    const JsonValue value = JsonValue::parse(text, &error);
    EXPECT_TRUE(error.empty()) << text << ": " << error;
    EXPECT_DOUBLE_EQ(value.as_number(), expected);
  }
}

TEST(Json, ParseFoldsUnicodeEscapes) {
  std::string error;
  const JsonValue value = JsonValue::parse("\"a\\u0041\\u00e9\"", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(value.as_string(), "aA\xc3\xa9");
}

// ---- Chrome trace export ------------------------------------------------

TEST(ChromeTrace, TwoMessageRunProducesParsableSlices) {
  const topology::Network net = topology::build_network(small_tmin());
  const auto router = routing::make_router(net);
  sim::Engine engine(net, *router, nullptr, manual_config());
  sim::RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  engine.inject_message(0, 6, 5);
  engine.inject_message(3, 1, 7);
  ASSERT_TRUE(engine.run_until_idle(1'000));

  std::ostringstream os;
  const std::size_t slices = write_chrome_trace(sink.events(), net, os);
  // Each worm occupies stages+1 = 4 lanes exactly once on a TMIN.
  EXPECT_EQ(slices, 8u);

  std::string error;
  const JsonValue doc = JsonValue::parse(os.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  std::size_t complete = 0, metadata = 0;
  for (const JsonValue& event : events.items()) {
    const std::string& phase = event.at("ph").as_string();
    if (phase == "X") {
      ++complete;
      EXPECT_GT(event.at("dur").as_number(), 0.0);
      EXPECT_FALSE(event.at("name").as_string().empty());
    } else if (phase == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(complete, slices);
  EXPECT_GT(metadata, 0u);  // process_name tracks for switches/nodes
}

TEST(ChromeTrace, EmptyEventStreamYieldsEmptyTrace) {
  const topology::Network net = topology::build_network(small_tmin());
  std::ostringstream os;
  const std::size_t slices = write_chrome_trace({}, net, os);
  EXPECT_EQ(slices, 0u);
  std::string error;
  const JsonValue doc = JsonValue::parse(os.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_TRUE(doc.at("traceEvents").items().empty());
}

// ---- Versioned results --------------------------------------------------

TEST(ResultWriter, ManifestCarriesSchemaAndProvenance) {
  RunManifest manifest;
  manifest.id = "fig18a";
  manifest.title = "cube clustering";
  manifest.seed = 42;
  manifest.quick = true;
  manifest.simulated_cycles = 1'000'000;
  manifest.wall_seconds = 2.0;
  EXPECT_DOUBLE_EQ(manifest.cycles_per_second(), 500'000.0);

  const JsonValue doc = manifest_to_json(manifest);
  EXPECT_EQ(doc.at("schema_version").as_uint(),
            static_cast<std::uint64_t>(kResultSchemaVersion));
  EXPECT_EQ(doc.at("tool").as_string(), "wormsim");
  EXPECT_EQ(doc.at("id").as_string(), "fig18a");
  EXPECT_EQ(doc.at("seed").as_uint(), 42u);
  EXPECT_TRUE(doc.at("quick").as_bool());
  EXPECT_DOUBLE_EQ(doc.at("cycles_per_second").as_number(), 500'000.0);
  // Baked in at configure time; never empty.
  EXPECT_FALSE(doc.at("git_revision").as_string().empty());
  EXPECT_STREQ(git_revision(), doc.at("git_revision").as_string().c_str());
  // No pool ran and no cache was attached: the optional objects are
  // omitted, keeping old documents and new readers compatible.
  EXPECT_EQ(doc.find("pool"), nullptr);
  EXPECT_EQ(doc.find("cache"), nullptr);
}

TEST(ResultWriter, ManifestEmbedsPoolAndCacheInstrumentation) {
  RunManifest manifest;
  manifest.id = "fig18a";
  manifest.wall_seconds = 2.0;
  manifest.pool_threads = 4;
  manifest.pool_busy_seconds = 6.0;
  manifest.points_computed = 10;
  manifest.points_cached = 3;
  manifest.points_speculated = 1;
  manifest.cache_used = true;
  manifest.cache_hits = 3;
  manifest.cache_misses = 10;
  manifest.cache_rejected = 1;
  manifest.cache_stores = 10;
  EXPECT_DOUBLE_EQ(manifest.pool_utilization(), 0.75);

  const JsonValue doc = manifest_to_json(manifest);
  const JsonValue& pool = doc.at("pool");
  EXPECT_EQ(pool.at("threads").as_uint(), 4u);
  EXPECT_DOUBLE_EQ(pool.at("busy_seconds").as_number(), 6.0);
  EXPECT_DOUBLE_EQ(pool.at("utilization").as_number(), 0.75);
  EXPECT_EQ(pool.at("points_computed").as_uint(), 10u);
  EXPECT_EQ(pool.at("points_cached").as_uint(), 3u);
  EXPECT_EQ(pool.at("points_speculated").as_uint(), 1u);
  const JsonValue& cache = doc.at("cache");
  EXPECT_EQ(cache.at("hits").as_uint(), 3u);
  EXPECT_EQ(cache.at("misses").as_uint(), 10u);
  EXPECT_EQ(cache.at("rejected").as_uint(), 1u);
  EXPECT_EQ(cache.at("stores").as_uint(), 10u);
}

TEST(ResultWriter, WritesAndReadsBackThroughTheFilesystem) {
  const std::string dir = testing::TempDir() + "wormsim_result_writer";
  std::filesystem::create_directories(dir);
  JsonValue doc = JsonValue::object();
  doc.set("schema_version", kResultSchemaVersion);
  doc.set("value", 7);
  const std::string path = dir + "/probe.json";
  write_json_file(path, doc);
  const JsonValue back = read_json_file(path);
  EXPECT_EQ(back.at("value").as_uint(), 7u);
}

// Threads that each write their own file and all rewrite one shared file,
// while a reader polls the shared file: every read and every file left
// behind is a complete document, and no temp file remains.
TEST(JsonFile, ConcurrentWritersLeaveCompleteDocuments) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "wormsim_json_file";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string shared = dir + "/shared.json";
  constexpr int kWriters = 4;
  constexpr int kRewrites = 100;
  constexpr std::size_t kPayload = 500;
  const auto parses_whole = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const JsonValue doc = JsonValue::parse(text.str(), &error);
    return error.empty() && doc.at("payload").items().size() == kPayload;
  };

  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      JsonValue doc = JsonValue::object();
      doc.set("writer", t);
      JsonValue payload = JsonValue::array();
      for (std::size_t i = 0; i < kPayload; ++i) payload.push_back(0.5 + i);
      doc.set("payload", std::move(payload));
      write_json_file(dir + "/own" + std::to_string(t) + ".json", doc);
      for (int round = 0; round < kRewrites; ++round) {
        doc.set("round", round);
        write_json_file(shared, doc);
      }
      --running;
    });
  }
  std::size_t reads = 0;
  std::size_t torn = 0;
  while (running.load() > 0) {
    if (!fs::exists(shared)) continue;
    ++reads;
    if (!parses_whole(shared)) ++torn;
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(torn, 0u) << "of " << reads << " reads";

  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".json")
        << entry.path() << " left behind";
    EXPECT_TRUE(parses_whole(entry.path().string())) << entry.path();
  }
  EXPECT_EQ(files, kWriters + 1u);
}

/// The json_dir a binary given no flags runs with: bind_run_knobs reads
/// each knob from its WORMSIM_* variable.
std::string json_dir_without_flags() {
  experiment::RunOptions options;
  util::CliParser cli("test");
  experiment::bind_run_knobs(cli, &options, experiment::knob::kFigureRun);
  const char* argv[] = {"prog"};
  EXPECT_EQ(cli.parse(1, const_cast<char**>(argv)),
            util::CliParser::Status::kOk);
  return options.json_dir;
}

TEST(ResultWriter, JsonDirComesFromEnvironment) {
  unsetenv("WORMSIM_JSON_DIR");
  EXPECT_TRUE(json_dir_without_flags().empty());
  setenv("WORMSIM_JSON_DIR", "/tmp/worm-results", 1);
  EXPECT_EQ(json_dir_without_flags(), "/tmp/worm-results");
  unsetenv("WORMSIM_JSON_DIR");
}

TEST(ResultsJson, FigureRoundTripsThroughText) {
  experiment::FigureResult result;
  result.id = "fig_test";
  result.title = "round trip";
  experiment::Series series;
  series.label = "TMIN(cube)";
  experiment::SweepPoint point;
  point.offered_requested = 0.5;
  point.offered_measured = 0.4375;
  point.throughput = 0.375;
  point.latency_us = 12.5;
  point.latency_p95_us = 30.25;
  point.latency_p99_us = 58.75;
  point.network_latency_us = 8.125;
  point.queueing_us = 4.375;
  point.sustainable = true;
  point.max_source_queue = 9;
  point.delivered_messages = 1234;
  point.delivery_fraction = 0.875;
  point.terminated_messages = 42;
  point.time_to_drain_us = 17.25;
  series.points.push_back(point);
  series.static_coverage = 0.875;
  point.offered_requested = 0.75;
  point.sustainable = false;
  series.points.push_back(point);
  result.series.push_back(series);

  RunManifest manifest;
  manifest.id = result.id;
  manifest.title = result.title;
  manifest.seed = 7;
  manifest.simulated_cycles = 10'000;
  manifest.wall_seconds = 0.5;

  const JsonValue doc = experiment::figure_to_json(result, manifest);
  std::string error;
  const JsonValue reparsed = JsonValue::parse(doc.dump_string(), &error);
  ASSERT_TRUE(error.empty()) << error;
  const experiment::FigureResult back = experiment::figure_from_json(reparsed);

  EXPECT_EQ(back.id, "fig_test");
  EXPECT_EQ(back.title, "round trip");
  ASSERT_EQ(back.series.size(), 1u);
  EXPECT_EQ(back.series[0].label, "TMIN(cube)");
  ASSERT_EQ(back.series[0].points.size(), 2u);
  const experiment::SweepPoint& p0 = back.series[0].points[0];
  EXPECT_DOUBLE_EQ(p0.offered_requested, 0.5);
  EXPECT_DOUBLE_EQ(p0.offered_measured, 0.4375);
  EXPECT_DOUBLE_EQ(p0.throughput, 0.375);
  EXPECT_DOUBLE_EQ(p0.latency_us, 12.5);
  EXPECT_DOUBLE_EQ(p0.latency_p95_us, 30.25);
  EXPECT_DOUBLE_EQ(p0.latency_p99_us, 58.75);
  EXPECT_DOUBLE_EQ(p0.network_latency_us, 8.125);
  EXPECT_DOUBLE_EQ(p0.queueing_us, 4.375);
  EXPECT_TRUE(p0.sustainable);
  EXPECT_EQ(p0.max_source_queue, 9u);
  EXPECT_EQ(p0.delivered_messages, 1234u);
  EXPECT_DOUBLE_EQ(p0.delivery_fraction, 0.875);
  EXPECT_EQ(p0.terminated_messages, 42u);
  EXPECT_DOUBLE_EQ(p0.time_to_drain_us, 17.25);
  EXPECT_DOUBLE_EQ(back.series[0].static_coverage, 0.875);
  EXPECT_FALSE(back.series[0].points[1].sustainable);
}

TEST(ResultsJson, OverflowedP95SurvivesRoundTrip) {
  // A saturated point's p95 is +infinity (latency histogram overflow).
  // JSON has no infinity, so the writer must emit a null value plus the
  // latency_p95_overflow flag, and the reader must restore infinity —
  // not 0, and not the old masked top-edge value.
  experiment::FigureResult result;
  result.id = "fig_sat";
  result.title = "saturated";
  experiment::Series series;
  series.label = "overloaded";
  experiment::SweepPoint point;
  point.offered_requested = 1.5;
  point.latency_us = 900.0;
  point.latency_p95_us = std::numeric_limits<double>::infinity();
  point.latency_p99_us = std::numeric_limits<double>::infinity();
  point.sustainable = false;
  series.points.push_back(point);
  result.series.push_back(series);

  RunManifest manifest;
  manifest.id = result.id;
  manifest.title = result.title;
  manifest.seed = 7;

  const JsonValue doc = experiment::figure_to_json(result, manifest);
  const std::string text = doc.dump_string();
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;

  std::string error;
  const JsonValue reparsed = JsonValue::parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  const JsonValue& p =
      reparsed.at("series").items().at(0).at("points").items().at(0);
  EXPECT_TRUE(p.at("latency_p95_us").is_null());
  EXPECT_TRUE(p.at("latency_p95_overflow").as_bool());
  EXPECT_TRUE(p.at("latency_p99_us").is_null());
  EXPECT_TRUE(p.at("latency_p99_overflow").as_bool());

  const experiment::FigureResult back = experiment::figure_from_json(reparsed);
  ASSERT_EQ(back.series.size(), 1u);
  ASSERT_EQ(back.series[0].points.size(), 1u);
  EXPECT_TRUE(std::isinf(back.series[0].points[0].latency_p95_us));
  EXPECT_TRUE(std::isinf(back.series[0].points[0].latency_p99_us));
}

TEST(ResultsJson, WriteFigureJsonCreatesFile) {
  experiment::FigureResult result;
  result.id = "fig_write_probe";
  result.title = "writer";
  RunManifest manifest;
  manifest.id = result.id;
  const std::string dir = testing::TempDir() + "wormsim_results_json";
  const std::string path =
      experiment::write_figure_json(result, manifest, dir);
  const JsonValue doc = read_json_file(path);
  EXPECT_EQ(doc.at("id").as_string(), "fig_write_probe");
  EXPECT_EQ(doc.at("schema_version").as_uint(),
            static_cast<std::uint64_t>(kResultSchemaVersion));
}

// ---- Sweep integration (satellite: tweak ordering regression) -----------

experiment::SeriesSpec tiny_spec() {
  experiment::SeriesSpec spec;
  spec.label = "tiny";
  spec.net = small_tmin();
  spec.workload = [](const topology::NetView& net, double load) {
    traffic::WorkloadSpec workload;
    workload.offered = load;
    workload.length = traffic::LengthSpec::uniform(4, 16);
    workload.clustering = partition::Clustering::global(net.node_count());
    return workload;
  };
  return spec;
}

TEST(Sweep, TweakSimAppliesAfterBaseConfig) {
  // Regression: run_point must copy the base config FIRST and apply the
  // series tweak LAST, so a tweak enabling telemetry (or re-seeding)
  // cannot be clobbered by SweepOptions::sim.
  experiment::SeriesSpec spec = tiny_spec();
  spec.tweak_sim = [](sim::SimConfig& config) {
    config.telemetry.counters = true;
    config.telemetry.sampling = true;
    config.telemetry.sample_interval_cycles = 128;
    config.seed = 4242;
  };
  sim::SimConfig base;
  base.seed = 1;  // the tweak must win over this
  base.warmup_cycles = 500;
  base.measure_cycles = 4'000;
  base.drain_cycles = 500;

  sim::SimResult full;
  const experiment::SweepPoint point =
      experiment::run_point(spec, 0.2, base, &full);
  EXPECT_GT(point.delivered_messages, 0u);
  ASSERT_TRUE(full.telemetry_counters.enabled());
  EXPECT_GT(full.telemetry_counters.total_flit_crossings(), 0u);
  EXPECT_FALSE(full.telemetry_samples.empty());

  // Re-seeding through the tweak changes the run: same base, different
  // tweak seed, different delivered totals (overwhelmingly likely).
  experiment::SeriesSpec reseeded = tiny_spec();
  reseeded.tweak_sim = [](sim::SimConfig& config) { config.seed = 777; };
  sim::SimResult a;
  sim::SimResult b;
  experiment::run_point(spec, 0.2, base, &a);
  experiment::run_point(reseeded, 0.2, base, &b);
  EXPECT_NE(a.delivered_flits_in_window, b.delivered_flits_in_window);
}

TEST(Sweep, FullResultMatchesSummaryPoint) {
  experiment::SeriesSpec spec = tiny_spec();
  sim::SimConfig base;
  base.warmup_cycles = 500;
  base.measure_cycles = 4'000;
  base.drain_cycles = 500;
  sim::SimResult full;
  const experiment::SweepPoint point =
      experiment::run_point(spec, 0.25, base, &full);
  EXPECT_DOUBLE_EQ(point.throughput, full.throughput_fraction());
  EXPECT_EQ(point.delivered_messages, full.delivered_messages_total);
  EXPECT_EQ(point.max_source_queue, full.max_source_queue);
}

}  // namespace
}  // namespace wormsim::telemetry
