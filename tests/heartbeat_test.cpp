// Streaming observability tests (DESIGN.md §15).
//
// The contract under test: heartbeats are a pure tap.  With
// TelemetryConfig::heartbeat_cycles > 0 both engines append NDJSON
// snapshots on an exact cycle cadence and atomically rewrite a status
// document, every emitted field except the three wall-clock keys is
// deterministic, and the simulation results are bitwise identical to a
// heartbeat-free run — the same zero-feedback rule the telemetry
// counters and the worm tracer already obey.  The phase profiler rides
// the same null-gated pattern and must attribute nearly all of the
// engine's wall time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "golden_digest.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_monitor.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"
#include "util/resource.hpp"

namespace wormsim::sim {
namespace {

topology::NetworkConfig small_network(
    topology::NetworkKind kind = topology::NetworkKind::kTMIN) {
  topology::NetworkConfig config;
  config.kind = kind;
  config.topology = "cube";
  config.radix = 2;
  config.stages = 3;
  config.dilation = 2;
  config.vcs = 2;
  return config;
}

traffic::WorkloadSpec workload_at(double offered) {
  traffic::WorkloadSpec workload;
  workload.offered = offered;
  workload.length = traffic::LengthSpec::uniform(4, 64);
  return workload;
}

SimConfig base_config() {
  SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  return config;
}

SimResult run_wormhole(const SimConfig& config, double offered = 0.45,
                       topology::NetworkKind kind =
                           topology::NetworkKind::kTMIN) {
  const topology::Network net = topology::build_network(small_network(kind));
  const auto router = routing::make_router(net);
  traffic::StandardTraffic traffic(net, workload_at(offered));
  Engine engine(net, *router, &traffic, config);
  return engine.run();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Strips the trailing wall-clock keys; the monitor emits them last on
/// every line type, so the prefix is the deterministic payload.
std::string deterministic_prefix(const std::string& line) {
  const std::size_t pos = line.find(",\"wall_seconds\":");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

telemetry::JsonValue parse_line(const std::string& line) {
  std::string error;
  telemetry::JsonValue doc = telemetry::JsonValue::parse(line, &error);
  EXPECT_TRUE(error.empty()) << error << " in: " << line;
  return doc;
}

// ---- Determinism ---------------------------------------------------------

// Two identically-seeded runs must produce byte-identical streams once
// the three wall-clock keys are stripped — the contract watchers and the
// CI schema check rely on.
TEST(Heartbeat, StreamDeterministicModuloWallClock) {
  std::vector<std::vector<std::string>> streams;
  for (int rep = 0; rep < 2; ++rep) {
    SimConfig config = base_config();
    config.telemetry.heartbeat_cycles = 512;
    config.telemetry.heartbeat_dir =
        testing::TempDir() + "hb_determinism_" + std::to_string(rep);
    config.telemetry.heartbeat_tag = "case";
    run_wormhole(config);
    streams.push_back(read_lines(config.telemetry.heartbeat_dir +
                                 "/case.ndjson"));
  }
  ASSERT_EQ(streams[0].size(), streams[1].size());
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    EXPECT_EQ(deterministic_prefix(streams[0][i]),
              deterministic_prefix(streams[1][i]))
        << "line " << i;
  }
}

// ---- Cadence -------------------------------------------------------------

// Exact-cadence boundary behavior: one heartbeat per full window, plus a
// final partial window when the run length is not a multiple of the
// cadence; none when it divides evenly.
TEST(Heartbeat, ExactCadenceAndFinalPartialWindow) {
  struct Case {
    std::uint64_t cadence;
    std::uint64_t expected_heartbeats;  // total cycles = 6000
  };
  // 6000 = 500 + 4000 + 1500.  1500 divides it; 701 leaves a 396-cycle
  // partial window the monitor must still emit.
  const Case cases[] = {{1500, 4}, {701, 9}};
  for (const Case& c : cases) {
    SimConfig config = base_config();
    config.telemetry.heartbeat_cycles = c.cadence;
    config.telemetry.heartbeat_dir = testing::TempDir() + "hb_cadence_" +
                                     std::to_string(c.cadence);
    config.telemetry.heartbeat_tag = "case";
    run_wormhole(config);
    const std::vector<std::string> lines =
        read_lines(config.telemetry.heartbeat_dir + "/case.ndjson");
    ASSERT_GE(lines.size(), 3u);
    EXPECT_EQ(parse_line(lines.front()).at("type").as_string(), "start");
    EXPECT_EQ(parse_line(lines.back()).at("type").as_string(), "final");
    std::uint64_t heartbeats = 0;
    std::uint64_t previous_cycle = 0;
    for (const std::string& line : lines) {
      const telemetry::JsonValue doc = parse_line(line);
      if (doc.at("type").as_string() != "heartbeat") continue;
      ++heartbeats;
      const std::uint64_t cycle = doc.at("cycle").as_uint();
      EXPECT_GT(cycle, previous_cycle);
      // Every full window lands exactly on the cadence grid; only the
      // last (partial) window may not.
      if (heartbeats * c.cadence <= 6'000) {
        EXPECT_EQ(cycle, heartbeats * c.cadence);
      } else {
        EXPECT_EQ(cycle, 6'000u);
      }
      previous_cycle = cycle;
    }
    EXPECT_EQ(heartbeats, c.expected_heartbeats) << "cadence " << c.cadence;
    EXPECT_EQ(previous_cycle, 6'000u);
    EXPECT_EQ(parse_line(lines.back()).at("cycle").as_uint(), 6'000u);
  }
}

// ---- Zero feedback -------------------------------------------------------

// The golden digest (golden_digest.hpp); heartbeats on must not move it.
TEST(Heartbeat, ResultsBitwiseIdenticalWithHeartbeatsOn) {
  const topology::NetworkKind kinds[] = {
      topology::NetworkKind::kTMIN, topology::NetworkKind::kDMIN,
      topology::NetworkKind::kVMIN, topology::NetworkKind::kBMIN};
  for (topology::NetworkKind kind : kinds) {
    SCOPED_TRACE(topology::to_string(kind));
    const topology::Network net = topology::build_network(small_network(kind));
    const SimResult off = run_wormhole(base_config(), 0.45, kind);
    SimConfig on_config = base_config();
    on_config.telemetry.heartbeat_cycles = 256;
    on_config.telemetry.heartbeat_dir =
        testing::TempDir() + "hb_feedback_" +
        std::string(topology::to_string(kind));
    const SimResult on = run_wormhole(on_config, 0.45, kind);
    EXPECT_EQ(digest(off, net), digest(on, net));
  }
}

// ---- Status document -----------------------------------------------------

TEST(Heartbeat, StatusFileReachesTerminalState) {
  SimConfig config = base_config();
  config.telemetry.heartbeat_cycles = 1'000;
  config.telemetry.heartbeat_dir = testing::TempDir() + "hb_status";
  config.telemetry.heartbeat_tag = "case";
  std::filesystem::remove_all(config.telemetry.heartbeat_dir);
  const SimResult result = run_wormhole(config);
  std::ifstream in(config.telemetry.heartbeat_dir + "/case.status.json");
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const telemetry::JsonValue doc = parse_line(buffer.str());
  EXPECT_TRUE(doc.at("finished").as_bool());
  EXPECT_DOUBLE_EQ(doc.at("progress").as_number(), 1.0);
  EXPECT_EQ(doc.at("cycle").as_uint(), 6'000u);
  EXPECT_EQ(doc.at("engine").as_string(), "wormhole");
  EXPECT_EQ(doc.at("messages_delivered").as_uint(),
            result.delivered_messages_total);
  // No temp file left behind by the atomic rewrites (write_json_file
  // names its temp files <path>.<pid>.<thread>.tmp).
  for (const auto& entry : std::filesystem::directory_iterator(
           config.telemetry.heartbeat_dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << entry.path() << " left behind";
  }
}

// ---- Onset detection -----------------------------------------------------

TEST(Heartbeat, SaturationOnsetFlagsOverloadedRun) {
  // Saturating load on the blocking TMIN: injection outruns acceptance
  // well inside the measurement window.
  SimConfig config = base_config();
  config.telemetry.heartbeat_cycles = 256;
  config.telemetry.heartbeat_dir = testing::TempDir() + "hb_onset_sat";
  config.sustainable_queue_limit =
      std::numeric_limits<std::uint64_t>::max();
  const SimResult saturated = run_wormhole(config, 1.0);
  EXPECT_NE(saturated.saturation_onset_cycle, telemetry::kNoOnset);
  EXPECT_LE(saturated.saturation_onset_cycle,
            config.warmup_cycles + config.measure_cycles);
  EXPECT_EQ(saturated.fault_onset_cycle, telemetry::kNoOnset);

  // A light load on the same network never trips the detector.
  SimConfig light = base_config();
  light.telemetry.heartbeat_cycles = 256;
  light.telemetry.heartbeat_dir = testing::TempDir() + "hb_onset_light";
  const SimResult ok = run_wormhole(light, 0.10);
  EXPECT_EQ(ok.saturation_onset_cycle, telemetry::kNoOnset);
  EXPECT_EQ(ok.fault_onset_cycle, telemetry::kNoOnset);
}

TEST(Heartbeat, FaultOnsetFollowsFaultPlan) {
  SimConfig config = base_config();
  config.telemetry.heartbeat_cycles = 256;
  config.telemetry.heartbeat_dir = testing::TempDir() + "hb_onset_fault";
  config.fault_fraction = 0.25;
  config.fault_seed = 3;
  config.fault_at_cycle = 2'000;
  const SimResult result = run_wormhole(config, 0.45);
  ASSERT_GT(result.terminated_messages, 0u);
  ASSERT_NE(result.fault_onset_cycle, telemetry::kNoOnset);
  // Terminations cannot precede the kill; the detector works on window
  // boundaries, so the onset lands at the first boundary at or after it.
  EXPECT_GT(result.fault_onset_cycle, config.fault_at_cycle);
  // The stream carries the kill transition as its own event line.
  const std::vector<std::string> lines =
      read_lines(config.telemetry.heartbeat_dir + "/run.ndjson");
  bool saw_kill = false;
  for (const std::string& line : lines) {
    const telemetry::JsonValue doc = parse_line(line);
    if (doc.at("type").as_string() == "fault") {
      EXPECT_EQ(doc.at("transition").as_string(), "kill");
      EXPECT_EQ(doc.at("cycle").as_uint(), config.fault_at_cycle);
      saw_kill = true;
    }
  }
  EXPECT_TRUE(saw_kill);
}

// ---- Store-and-forward engine --------------------------------------------

TEST(Heartbeat, StoreForwardEmitsStream) {
  const topology::Network net = topology::build_network(small_network());
  const auto router = routing::make_router(net);
  traffic::StandardTraffic traffic(net, workload_at(0.45));
  SimConfig config;
  config.seed = 7;
  config.buffer_depth = 2;
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  config.drain_cycles = 1'500;
  config.telemetry.heartbeat_cycles = 701;
  config.telemetry.heartbeat_dir = testing::TempDir() + "hb_sf";
  config.telemetry.heartbeat_tag = "sf";
  StoreForwardEngine engine(net, *router, &traffic, config);
  const SimResult result = engine.run();
  const std::vector<std::string> lines =
      read_lines(config.telemetry.heartbeat_dir + "/sf.ndjson");
  ASSERT_GE(lines.size(), 3u);
  const telemetry::JsonValue start = parse_line(lines.front());
  EXPECT_EQ(start.at("type").as_string(), "start");
  EXPECT_EQ(start.at("engine").as_string(), "store_forward");
  std::uint64_t heartbeats = 0;
  std::uint64_t previous_cycle = 0;
  for (const std::string& line : lines) {
    const telemetry::JsonValue doc = parse_line(line);
    if (doc.at("type").as_string() != "heartbeat") continue;
    ++heartbeats;
    const std::uint64_t cycle = doc.at("cycle").as_uint();
    EXPECT_GT(cycle, previous_cycle);
    previous_cycle = cycle;
  }
  EXPECT_GE(heartbeats, 1u);
  const telemetry::JsonValue final_line = parse_line(lines.back());
  EXPECT_EQ(final_line.at("type").as_string(), "final");
  EXPECT_EQ(final_line.at("messages_delivered").as_uint(),
            result.delivered_messages_total);
}

// ---- Stream schema -------------------------------------------------------

telemetry::StreamCheck check_stream_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  return telemetry::check_heartbeat_stream(in);
}

// Both engines' streams pass the schema check behind telemetry_report
// --check-stream: a wormhole stream with a fault line, and the
// store-and-forward stream.  The same wormhole stream cut before its
// final line fails it.
TEST(Heartbeat, StreamsPassTheSchemaCheck) {
  SimConfig config = base_config();
  config.telemetry.heartbeat_cycles = 256;
  config.telemetry.heartbeat_dir = testing::TempDir() + "hb_schema_fault";
  config.telemetry.heartbeat_tag = "case";
  config.fault_fraction = 0.25;
  config.fault_seed = 3;
  config.fault_at_cycle = 2'000;
  run_wormhole(config);
  const std::string wormhole_path =
      config.telemetry.heartbeat_dir + "/case.ndjson";
  const telemetry::StreamCheck wormhole = check_stream_file(wormhole_path);
  EXPECT_TRUE(wormhole.ok()) << wormhole.line << ": " << wormhole.error;
  EXPECT_EQ(wormhole.faults, 1u);
  EXPECT_EQ(wormhole.heartbeats, 24u);  // 23 full windows + 1 partial
  EXPECT_EQ(wormhole.last_cycle, 6'000u);

  const topology::Network net = topology::build_network(small_network());
  const auto router = routing::make_router(net);
  traffic::StandardTraffic traffic(net, workload_at(0.45));
  SimConfig sf_config = base_config();
  sf_config.buffer_depth = 2;
  sf_config.telemetry.heartbeat_cycles = 701;
  sf_config.telemetry.heartbeat_dir = testing::TempDir() + "hb_schema_sf";
  sf_config.telemetry.heartbeat_tag = "sf";
  StoreForwardEngine(net, *router, &traffic, sf_config).run();
  const telemetry::StreamCheck store_forward = check_stream_file(
      sf_config.telemetry.heartbeat_dir + "/sf.ndjson");
  EXPECT_TRUE(store_forward.ok())
      << store_forward.line << ": " << store_forward.error;
  EXPECT_GE(store_forward.heartbeats, 1u);
  EXPECT_EQ(store_forward.faults, 0u);

  std::vector<std::string> lines = read_lines(wormhole_path);
  ASSERT_EQ(parse_line(lines.back()).at("type").as_string(), "final");
  lines.pop_back();
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  std::istringstream cut(text);
  const telemetry::StreamCheck unfinished =
      telemetry::check_heartbeat_stream(cut);
  EXPECT_EQ(unfinished.error, "stream has no \"final\" line");
  EXPECT_EQ(unfinished.line, lines.size() + 1);
}

// ---- Phase profiler ------------------------------------------------------

TEST(Heartbeat, ProfilerOffByDefaultOnWhenAsked) {
  const SimResult off = run_wormhole(base_config());
  EXPECT_FALSE(off.phase_profile.enabled);

  SimConfig config = base_config();
  config.telemetry.profile = true;
  config.telemetry.sampling = false;
  config.telemetry.heartbeat_cycles = 0;
  const SimResult on = run_wormhole(config);
  ASSERT_TRUE(on.phase_profile.enabled);
  EXPECT_GT(on.phase_profile.total_seconds, 0.0);
  EXPECT_GT(on.phase_profile.attributed_seconds(), 0.0);
  // The buckets can never exceed the wall they partition (small slack
  // for clock granularity), and on any real run they cover most of it.
  EXPECT_LE(on.phase_profile.attributed_seconds(),
            on.phase_profile.total_seconds * 1.02);
  EXPECT_GE(on.phase_profile.coverage(), 0.80);
  // Every per-cycle phase the sequential engine runs must have ticked.
  // With sampling and heartbeats off, telemetry has no work and takes no
  // lap.
  using telemetry::EnginePhase;
  for (EnginePhase phase :
       {EnginePhase::kArrivals, EnginePhase::kStartTx, EnginePhase::kRouting,
        EnginePhase::kAdvance}) {
    EXPECT_GT(on.phase_profile.seconds[static_cast<std::size_t>(phase)], 0.0)
        << telemetry::engine_phase_name(phase);
  }
  const auto telemetry_s = [](const SimResult& r) {
    return r.phase_profile
        .seconds[static_cast<std::size_t>(EnginePhase::kTelemetry)];
  };
  EXPECT_EQ(telemetry_s(on), 0.0);

  // A heartbeat is telemetry work: the cycles that emit one lap it.
  config.telemetry.heartbeat_cycles = 1'000;
  config.telemetry.heartbeat_dir = testing::TempDir() + "hb_profiler";
  const SimResult beating = run_wormhole(config);
  EXPECT_GT(telemetry_s(beating), 0.0);
}

// Start-tx laps only in a cycle that starts a transmission: an engine
// with no traffic source and nothing injected has none to start, so its
// profile reads start_tx 0 while the phases that ran read more.
TEST(Heartbeat, IdleStartTxTakesNoLap) {
  const topology::Network net = topology::build_network(small_network());
  const auto router = routing::make_router(net);
  SimConfig config = base_config();
  config.telemetry.profile = true;
  Engine engine(net, *router, nullptr, config);
  for (int i = 0; i < 1'000; ++i) engine.step();
  ASSERT_NE(engine.profiler(), nullptr);
  const auto seconds = [&](telemetry::EnginePhase phase) {
    return engine.profiler()->profile().seconds[static_cast<std::size_t>(
        phase)];
  };
  EXPECT_EQ(seconds(telemetry::EnginePhase::kStartTx), 0.0);
  EXPECT_GT(seconds(telemetry::EnginePhase::kAdvance), 0.0);
}

TEST(Heartbeat, ProfilerIsZeroFeedback) {
  const SimResult off = run_wormhole(base_config());
  SimConfig config = base_config();
  config.telemetry.profile = true;
  const SimResult on = run_wormhole(config);
  const topology::Network net = topology::build_network(small_network());
  EXPECT_EQ(digest(off, net), digest(on, net));
}

// ---- Peak RSS helper -----------------------------------------------------

TEST(Heartbeat, PeakRssHelperReportsPlausibleValue) {
  const double rss = util::peak_rss_mib();
  // Any live test process is megabytes big; the helper only returns 0
  // on platforms with neither /proc nor getrusage.
  EXPECT_GT(rss, 1.0);
  EXPECT_LT(rss, 1024.0 * 1024.0);
}

// ---- Drain tally -----------------------------------------------------------

/// The drain verdict and the heartbeat creation counts, recomputed from a
/// run's trace events: the oracle for the engine's running tally, which
/// never walks the messages of the run.
struct DrainOracle {
  bool drained = true;
  std::uint64_t time_to_drain_cycles = 0;
  std::uint64_t measured_unfinished = 0;
  std::vector<std::uint64_t> create_cycles;  ///< indexed by serial
};

DrainOracle drain_oracle(const RecordingTraceSink& sink,
                         const SimConfig& config) {
  const std::uint64_t begin = config.warmup_cycles;
  const std::uint64_t end = begin + config.measure_cycles;
  DrainOracle oracle;
  std::vector<std::uint64_t> resolved;
  std::vector<std::uint8_t> delivered;
  for (const TraceEvent& event : sink.events()) {
    if (event.kind == TraceEvent::Kind::kCreated) {
      // Serials count creations, so they arrive in order.
      EXPECT_EQ(event.packet, oracle.create_cycles.size());
      oracle.create_cycles.push_back(event.cycle);
      resolved.push_back(kNoCycle);
      delivered.push_back(0);
    } else if (event.kind == TraceEvent::Kind::kDelivered ||
               event.kind == TraceEvent::Kind::kTerminated) {
      EXPECT_EQ(resolved.at(event.packet), kNoCycle);
      resolved.at(event.packet) = event.cycle;
      delivered.at(event.packet) =
          event.kind == TraceEvent::Kind::kDelivered ? 1 : 0;
    }
  }
  std::uint64_t last = 0;
  for (std::size_t id = 0; id < oracle.create_cycles.size(); ++id) {
    const std::uint64_t created = oracle.create_cycles[id];
    if (created >= begin && created < end && !delivered[id]) {
      ++oracle.measured_unfinished;
    }
    if (created >= end) continue;
    if (resolved[id] == kNoCycle) {
      oracle.drained = false;
    } else {
      last = std::max(last, resolved[id]);
    }
  }
  oracle.time_to_drain_cycles =
      oracle.drained ? (last > end ? last - end : 0) : config.drain_cycles;
  return oracle;
}

/// Runs `config` on `kind`'s golden network under the golden workload at
/// `offered` load with a recording sink and a heartbeat every 256 cycles,
/// then checks the drain verdict, the unfinished count and every
/// heartbeat's creation count against the oracle.  Returns the result.
SimResult expect_tally_matches_oracle(SimConfig config,
                                      topology::NetworkKind kind,
                                      unsigned vcs, double offered,
                                      const std::string& name) {
  SCOPED_TRACE(name);
  config.telemetry.heartbeat_cycles = 256;
  config.telemetry.heartbeat_dir = testing::TempDir() + "hb_drain_tally";
  config.telemetry.heartbeat_tag = name;
  const topology::Network net =
      topology::build_network(golden_network(kind, vcs));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload = golden_workload();
  workload.offered = offered;
  traffic::StandardTraffic traffic(net, workload);
  Engine engine(net, *router, &traffic, config);
  RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  const SimResult result = engine.run();

  const DrainOracle oracle = drain_oracle(sink, config);
  EXPECT_EQ(result.drained, oracle.drained);
  EXPECT_EQ(result.time_to_drain_cycles, oracle.time_to_drain_cycles);
  EXPECT_EQ(result.measured_messages_unfinished, oracle.measured_unfinished);
  std::size_t checked = 0;
  for (const std::string& line : read_lines(
           config.telemetry.heartbeat_dir + "/" + name + ".ndjson")) {
    const telemetry::JsonValue doc = parse_line(line);
    const std::string type = doc.at("type").as_string();
    if (type != "heartbeat" && type != "final") continue;
    // A line at cycle B follows cycle B - 1.
    const std::uint64_t boundary = doc.at("cycle").as_uint();
    const auto created = static_cast<std::uint64_t>(std::count_if(
        oracle.create_cycles.begin(), oracle.create_cycles.end(),
        [&](std::uint64_t cycle) { return cycle < boundary; }));
    EXPECT_EQ(doc.at("messages_created").as_uint(), created)
        << type << " line at cycle " << boundary;
    ++checked;
  }
  EXPECT_EQ(checked, config.total_cycles() / 256 + 2);
  return result;
}

SimConfig golden_config(const GoldenCase& gc) {
  SimConfig config = base_config();
  config.arbitration = gc.arbitration;
  config.buffer_depth = gc.buffer_depth;
  config.credit_delay = gc.credit_delay;
  return config;
}

// The drain verdict, the unfinished count and heartbeat messages_created
// are tallied as messages are created and resolved; the trace events say
// what each must read.  Covers every wormhole golden case, a fault kill
// inside the measurement window (a terminated message resolves the drain
// but stays unfinished) and a full source queue that drops messages (a
// dropped message never resolves).
TEST(DrainTally, MatchesTraceEventOracle) {
  bool drained_late = false;
  for (const GoldenCase& gc : kCases) {
    if (gc.store_forward) continue;
    const SimResult r = expect_tally_matches_oracle(
        golden_config(gc), gc.kind, gc.vcs, 0.45, gc.name);
    drained_late |= r.drained && r.time_to_drain_cycles > 0;
  }
  EXPECT_TRUE(drained_late);

  SimConfig kill = base_config();
  kill.fault_fraction = 0.25;
  kill.fault_seed = 3;
  kill.fault_at_cycle = 2'000;
  const SimResult killed = expect_tally_matches_oracle(
      kill, topology::NetworkKind::kTMIN, 2, 0.45, "kill");
  EXPECT_GT(killed.terminated_messages, 0u);

  SimConfig drop = base_config();
  drop.queue_capacity = 2;
  const SimResult dropped = expect_tally_matches_oracle(
      drop, topology::NetworkKind::kTMIN, 2, 1.0, "drop");
  EXPECT_GT(dropped.dropped_messages, 0u);
  EXPECT_FALSE(dropped.drained);
}

}  // namespace
}  // namespace wormsim::sim
