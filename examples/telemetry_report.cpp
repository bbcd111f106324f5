// Telemetry report: ASCII channel heatmaps, interval-sample timelines,
// Chrome-trace export, and JSON results-directory summaries.
//
// Modes:
//   telemetry_report --figure=fig18a --load=0.5 [--quick] [--seed=N]
//       Runs every series of a figure at one offered load, each point
//       resolved as a sweep resolves it (experiment::resolve_point), with
//       telemetry counters + sampling enabled and prints, per series, the
//       per-stage channel heatmap of the run's own network view,
//       arbitration totals, and a saturation timeline.
//   telemetry_report --dir=results/json
//       Summarizes a directory of schema-versioned JSON results (one row
//       per file: id, seed, git revision, points, peak throughput).
//       Exit 1 when any .json file in DIR does not parse.
//   telemetry_report --chrome=trace.json [--messages=N]
//       Replays a small manually injected DMIN run and writes a
//       chrome://tracing / Perfetto JSON file of worm lane occupancy.
//   telemetry_report --figure=fig18a --load=0.5 --stalls
//                    [--worm-trace=DIR]
//       Stall-attribution view: runs the figure's series with per-worm
//       tracing on and prints the latency decomposition (queue / routing
//       / blocked / streaming mean+p95), the blocking-chain-depth
//       histogram, and the top culprit lanes and worms.  --worm-trace
//       additionally writes one Perfetto per-worm trace per series into
//       DIR (and implies --stalls).
//   telemetry_report --figure=fig18a --load=0.5 --profile
//       Profiles the runs and adds the engine phase-attribution table
//       (DESIGN.md §15) to the per-series report: wall seconds per engine
//       phase and the coverage of the attribution against total engine
//       wall time.  With --stalls the table follows each series' stall
//       report.
//   telemetry_report --watch=DIR [--watch-iterations=N]
//                    [--watch-interval-ms=M]
//       Live view of a heartbeat directory (--heartbeat-cycles /
//       --heartbeat-dir on figures_cli): polls every *.status.json under
//       DIR and renders one row per run until all runs finish (or N
//       iterations elapse).  Status files are rewritten atomically, so
//       polling never observes a torn document.
//   telemetry_report --check-stream=FILE
//       Schema-checks one NDJSON heartbeat stream
//       (telemetry::check_heartbeat_stream): every line parses, line
//       types and required keys are right, cycles are monotonic, and the
//       stream is start...final complete.  Exit 1 on violation.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <limits>
#include <thread>

#include "experiment/figures.hpp"
#include "experiment/results_json.hpp"
#include "experiment/sweep.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/run_monitor.hpp"
#include "telemetry/worm_trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace wormsim;

void print_samples(const std::vector<telemetry::Sample>& samples,
                   std::ostream& os) {
  if (samples.empty()) {
    os << "  (no samples recorded)\n";
    return;
  }
  // Thin the timeline to at most 12 rows; the full series is in the
  // SimResult for programmatic use.
  const std::size_t stride = samples.size() > 12 ? samples.size() / 12 : 1;
  util::Table table({"cycle", "delivered_flits", "flits_in_flight",
                     "worms_in_flight", "mean_queue"});
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    const telemetry::Sample& sample = samples[i];
    table.row()
        .cell(sample.cycle)
        .cell(sample.delivered_flits)
        .cell(static_cast<std::int64_t>(sample.flits_in_flight))
        .cell(static_cast<std::int64_t>(sample.worms_in_flight))
        .cell(sample.mean_queue_depth, 2);
  }
  table.print(os);
}

void print_phase_profile(const telemetry::PhaseProfile& profile,
                         std::ostream& os) {
  const double attributed = profile.attributed_seconds();
  util::Table table({"engine_phase", "seconds", "share%"});
  for (std::size_t i = 0; i < telemetry::kEnginePhaseCount; ++i) {
    table.row()
        .cell(std::string(telemetry::engine_phase_name(
            static_cast<telemetry::EnginePhase>(i))))
        .cell(profile.seconds[i], 4)
        .cell(attributed > 0.0 ? profile.seconds[i] / attributed * 100.0
                               : 0.0,
              1);
  }
  table.print(os);
  os << "  attributed " << util::format_double(attributed, 3) << "s of "
     << util::format_double(profile.total_seconds, 3)
     << "s engine wall (coverage "
     << util::format_double(profile.coverage() * 100.0, 1) << "%)\n";
}

std::string sanitize_for_filename(const std::string& label) {
  std::string out;
  for (char c : label) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    out.push_back(keep ? c : '_');
  }
  return out;
}

void p95_cell(util::Table& table, double p95_cycles) {
  if (p95_cycles == std::numeric_limits<double>::infinity()) {
    table.cell(std::string("overflow"));
  } else {
    table.cell(p95_cycles, 1);
  }
}

/// The --figure report of one run: channel heatmap (from the run's own
/// view), arbitration totals, saturation timeline, phase profile.
void print_telemetry(const topology::NetView& view,
                     const sim::SimResult& result) {
  if (result.telemetry_counters.enabled()) {
    const telemetry::ChannelHeatmap heatmap = telemetry::build_heatmap(
        view, result.telemetry_counters, result.measure_cycles);
    telemetry::print_heatmap(heatmap, std::cout);
    std::cout << "  arbitration: "
              << result.telemetry_counters.total_grants() << " grants, "
              << result.telemetry_counters.total_denials()
              << " denials; blocked header-cycles "
              << result.telemetry_counters.total_blocked_cycles() << "\n";
  } else {
    std::cout << "  (no channel heatmap: the store-and-forward engine "
                 "keeps no per-lane counters)\n";
  }
  print_samples(result.telemetry_samples, std::cout);
  if (result.phase_profile.enabled) {
    print_phase_profile(result.phase_profile, std::cout);
  }
}

/// The --stalls report of one run, starting with the worm counts that end
/// the caller's summary line: latency decomposition, blocking-chain
/// depths, culprit lanes and worms; when `trace_path` is set, also writes
/// the run's Perfetto per-worm trace there.  Returns false when that
/// write fails.
bool print_stalls(const telemetry::WormTracer& tracer,
                  const std::string& trace_path) {
  const telemetry::WormTraceSummary summary =
      telemetry::summarize_worm_trace(tracer);
  std::cout << "  (" << summary.delivered << " worms, " << summary.unfinished
            << " unfinished)\n";
  util::Table table({"component", "mean_cycles", "mean_us", "p95_cycles"});
  const auto component = [&table](const char* name,
                                  const util::OnlineStats& cycles)
      -> util::Table& {
    return table.row()
        .cell(std::string(name))
        .cell(cycles.mean(), 1)
        .cell(cycles.mean() / topology::kFlitsPerMicrosecond, 2);
  };
  component("queue", summary.queue_cycles);
  p95_cell(table, summary.queue_p95_cycles);
  component("routing", summary.routing_cycles);
  p95_cell(table, summary.routing_p95_cycles);
  component("blocked", summary.blocked_cycles);
  p95_cell(table, summary.blocked_p95_cycles);
  component("streaming", summary.streaming_cycles);
  p95_cell(table, summary.streaming_p95_cycles);
  component("total", summary.total_cycles).cell(std::string("-"));
  table.print(std::cout);

  std::cout << "  blocked intervals " << summary.blocked_intervals
            << "; chain depth";
  if (summary.blocked_intervals == 0) std::cout << " (none)";
  for (std::size_t depth = 1; depth < summary.chain_depth_histogram.size();
       ++depth) {
    if (summary.chain_depth_histogram[depth] == 0) continue;
    std::cout << "  " << depth << ":" << summary.chain_depth_histogram[depth];
  }
  std::cout << "\n";
  if (!summary.top_lanes.empty()) {
    std::cout << "  top culprit lanes:";
    for (const telemetry::WormTraceSummary::CulpritLane& lane :
         summary.top_lanes) {
      std::cout << "  " << lane.lane << " (" << lane.cycles << "cyc/"
                << lane.intervals << "int)";
    }
    std::cout << "\n";
  }
  if (!summary.top_worms.empty()) {
    std::cout << "  top culprit worms:";
    for (const telemetry::WormTraceSummary::CulpritWorm& worm :
         summary.top_worms) {
      std::cout << "  " << worm.worm << " (" << worm.cycles << "cyc/"
                << worm.intervals << "int)";
    }
    std::cout << "\n";
  }
  // Sub-attribution of blocked/streaming time where the downstream FIFO
  // had space but credits lagged.  Structurally zero at depth 1 /
  // delay 0, so legacy reports keep their exact bytes.
  if (summary.starved_cycles_total > 0) {
    std::cout << "  credit starvation: " << summary.starved_cycles_total
              << " starved cycles across " << summary.starved_worms
              << " worms; top starving lanes:";
    for (const telemetry::WormTraceSummary::StarvedLane& lane :
         summary.top_starved_lanes) {
      std::cout << "  " << lane.lane << " (" << lane.cycles << "cyc)";
    }
    std::cout << "\n";
  }

  if (trace_path.empty()) return true;
  std::ofstream out(trace_path, std::ios::trunc);
  if (!out.good()) {
    std::cerr << "cannot write '" << trace_path << "'\n";
    return false;
  }
  const std::size_t slices = telemetry::write_worm_trace_chrome(tracer, out);
  std::cout << "  wrote " << slices << " slices to " << trace_path << "\n";
  return true;
}

/// Runs every series of `figure` at `load` and prints one report per
/// series: the --figure report, or with `stalls` the --stalls report
/// (per-worm traces into `trace_dir` when it is set).
int report_series(const std::string& figure, double load,
                  const experiment::RunOptions& options, bool stalls,
                  const std::string& trace_dir) {
  if (!experiment::figure_exists(figure)) {
    std::cerr << "unknown figure '" << figure << "'\n";
    return 1;
  }
  if (!trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec) {
      std::cerr << "cannot create '" << trace_dir << "': " << ec.message()
                << "\n";
      return 1;
    }
  }
  const experiment::FigureSpec spec = experiment::figure_spec(figure);
  std::cout << (stalls ? "== stall attribution: " : "== telemetry report: ")
            << spec.title << " @ load "
            << util::format_double(load * 100.0, 0) << "% ==\n";
  for (const experiment::SeriesSpec& series : spec.series) {
    experiment::ResolvedPoint point =
        experiment::resolve_point(series, load, options.sim_config());
    telemetry::TelemetryConfig& observe = point.sim.telemetry;
    if (stalls) {
      observe.worm_trace = true;
    } else {
      observe.counters = true;
      observe.sampling = true;
    }
    sim::SimResult result;
    const experiment::SweepPoint summary =
        experiment::run_point(point, &result);
    if (stalls && result.worm_trace == nullptr) {
      std::cerr << "tracer missing for '" << series.label << "'\n";
      return 1;
    }

    std::cout << "\n-- " << series.label << " --\n";
    std::cout << "accepted "
              << util::format_double(summary.throughput * 100.0, 1)
              << "%  latency " << util::format_double(summary.latency_us, 1)
              << " us  "
              << (summary.sustainable ? "sustainable" : "SATURATED");
    if (!stalls) {
      std::cout << "\n";
      print_telemetry(point.net.view, result);
      continue;
    }
    std::string trace_path;
    if (!trace_dir.empty()) {
      trace_path = (std::filesystem::path(trace_dir) /
                    (figure + "_" + sanitize_for_filename(series.label) +
                     ".trace.json"))
                       .string();
    }
    if (!print_stalls(*result.worm_trace, trace_path)) return 1;
    if (result.phase_profile.enabled) {
      print_phase_profile(result.phase_profile, std::cout);
    }
  }
  return 0;
}

int report_directory(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "cannot read directory '" << dir << "'\n";
    return 1;
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "no .json results in '" << dir << "'\n";
    return 1;
  }
  util::Table table({"id", "schema", "seed", "git", "series", "points",
                     "peak_accepted%", "min_delivery%", "terminated",
                     "cycles/s"});
  std::size_t summarized = 0;
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::string error;
    const telemetry::JsonValue doc = telemetry::JsonValue::parse(text, &error);
    if (!error.empty()) {
      std::cerr << "skipping '" << path.string() << "': " << error << "\n";
      continue;
    }
    std::size_t points = 0;
    double peak = 0.0;
    // Fault-SLO roll-up (PR 9 fields): worst per-point delivery fraction
    // and the summed terminated messages.  find() keeps pre-fault results
    // readable — those files show "-".
    bool have_slo = false;
    double min_delivery = 1.0;
    std::uint64_t terminated = 0;
    for (const telemetry::JsonValue& series : doc.at("series").items()) {
      for (const telemetry::JsonValue& p : series.at("points").items()) {
        ++points;
        peak = std::max(peak, p.at("throughput").as_number());
        if (const telemetry::JsonValue* v = p.find("delivery_fraction")) {
          have_slo = true;
          min_delivery = std::min(min_delivery, v->as_number());
        }
        if (const telemetry::JsonValue* v = p.find("terminated_messages")) {
          terminated += v->as_uint();
        }
      }
    }
    table.row()
        .cell(doc.at("id").as_string())
        .cell(doc.at("schema_version").as_uint())
        .cell(doc.at("seed").as_uint())
        .cell(doc.at("git_revision").as_string())
        .cell(static_cast<std::uint64_t>(doc.at("series").items().size()))
        .cell(static_cast<std::uint64_t>(points))
        .cell(peak * 100.0, 1);
    if (have_slo) {
      table.cell(min_delivery * 100.0, 1).cell(terminated);
    } else {
      table.cell(std::string("-")).cell(std::string("-"));
    }
    table.cell(doc.at("cycles_per_second").as_number(), 0);
    ++summarized;
  }
  // Every file skipped is as useless to a caller (or a CI step) as an
  // empty directory: fail loudly instead of printing a bare header.
  if (summarized == 0) {
    std::cerr << "no readable .json results in '" << dir << "' ("
              << files.size() << " file(s) skipped)\n";
    return 1;
  }
  table.print(std::cout);
  // A result that does not parse is a writer bug: print what did parse,
  // then fail, so a CI step over a results directory catches it.
  return summarized == files.size() ? 0 : 1;
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// One polling pass over every *.status.json under `dir`.  Returns the
/// number of runs seen; *all_finished reports whether every one of them
/// has written its terminal status.
std::size_t render_watch_pass(const std::string& dir, bool* all_finished,
                              std::ostream& os) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec) &&
        ends_with(it->path().filename().string(), ".status.json")) {
      files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  *all_finished = !files.empty();
  util::Table table({"run", "engine", "phase", "progress%", "cycle",
                     "in_flight", "delivered", "onset", "Mcyc/s"});
  std::size_t shown = 0;
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::string error;
    const telemetry::JsonValue doc = telemetry::JsonValue::parse(text, &error);
    if (!error.empty()) continue;  // racing writer; next pass catches up
    const bool finished = doc.at("finished").as_bool();
    if (!finished) *all_finished = false;
    // Run label: path relative to the watch root, minus the suffix —
    // e.g. "fig18a/tmin_load0p5".
    std::string run = std::filesystem::relative(path, dir, ec).string();
    if (ec || run.empty()) run = path.filename().string();
    run.resize(run.size() - std::string(".status.json").size());
    std::string onset = "-";
    if (const telemetry::JsonValue* v = doc.find("fault_onset_cycle")) {
      onset = "fault@" + std::to_string(v->as_uint());
    } else if (const telemetry::JsonValue* v2 =
                   doc.find("saturation_onset_cycle")) {
      onset = "sat@" + std::to_string(v2->as_uint());
    }
    table.row()
        .cell(run)
        .cell(doc.at("engine").as_string())
        .cell(finished ? std::string("done")
                       : doc.at("phase").as_string())
        .cell(doc.at("progress").as_number() * 100.0, 1)
        .cell(doc.at("cycle").as_uint())
        .cell(doc.at("flits_in_flight").as_uint())
        .cell(doc.at("messages_delivered").as_uint())
        .cell(onset)
        .cell(doc.at("cycles_per_second").as_number() * 1e-6, 2);
    ++shown;
  }
  if (shown > 0) table.print(os);
  return shown;
}

int watch_directory(const std::string& dir, std::int64_t iterations,
                    std::int64_t interval_ms) {
  for (std::int64_t pass = 0;; ++pass) {
    bool all_finished = false;
    const std::size_t runs = render_watch_pass(dir, &all_finished, std::cout);
    if (runs == 0) {
      std::cout << "(no *.status.json under '" << dir << "' yet)\n";
    }
    std::cout.flush();
    if (runs > 0 && all_finished) {
      std::cout << runs << " run(s), all finished\n";
      return 0;
    }
    if (iterations > 0 && pass + 1 >= iterations) {
      // Bounded watch (tests, CI): report what we saw and leave the
      // still-running sweeps to the next invocation.
      std::cout << runs << " run(s), still in progress\n";
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    std::cout << "----\n";
  }
}

int check_stream(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "cannot open stream '" << path << "'\n";
    return 1;
  }
  const telemetry::StreamCheck check = telemetry::check_heartbeat_stream(in);
  if (!check.ok()) {
    std::cerr << path << ":" << check.line << ": " << check.error << "\n";
    return 1;
  }
  std::cout << "ok: " << path << " (" << check.heartbeats << " heartbeat(s), "
            << check.faults << " fault event(s), last cycle "
            << check.last_cycle << ")\n";
  return 0;
}

int export_chrome(const std::string& path, std::int64_t messages,
                  std::uint64_t seed) {
  const topology::Network network =
      topology::build_network(experiment::dmin_config());
  const auto router = routing::make_router(network);
  sim::SimConfig config;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 30;
  config.drain_cycles = 0;
  sim::Engine engine(network, *router, nullptr, config);
  sim::RecordingTraceSink sink;
  engine.set_trace_sink(&sink);
  util::Rng rng(seed);
  for (std::int64_t i = 0; i < messages; ++i) {
    const auto src = static_cast<topology::NodeId>(
        rng.below(network.node_count()));
    std::uint64_t dst = rng.below(network.node_count());
    while (dst == src) dst = rng.below(network.node_count());
    engine.inject_message(src, dst, 16 + 8 * static_cast<std::uint32_t>(
                                                i % 4));
  }
  if (!engine.run_until_idle(1'000'000)) {
    std::cerr << "run did not drain\n";
    return 1;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    std::cerr << "cannot write '" << path << "'\n";
    return 1;
  }
  const std::size_t slices = telemetry::write_chrome_trace(
      sink.events(), network, out);
  std::cout << "wrote " << slices << " occupancy slices for " << messages
            << " worms to " << path
            << " (open in chrome://tracing or ui.perfetto.dev)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string figure = "fig18a";
  std::string dir;
  std::string chrome;
  double load = 0.5;
  std::int64_t messages = 8;
  bool stalls = false;
  std::string watch;
  std::int64_t watch_iterations = 0;
  std::int64_t watch_interval_ms = 1000;
  std::string check_stream_path;
  std::string worm_trace_dir;
  experiment::RunOptions options;
  util::CliParser cli(
      "telemetry_report: channel heatmaps, trace export, results summary");
  cli.add_flag("figure", &figure, "figure id to run with telemetry on");
  cli.add_flag("load", &load, "offered load fraction for --figure");
  cli.add_flag("dir", &dir, "summarize a directory of JSON results");
  cli.add_flag("chrome", &chrome, "write a Chrome-trace JSON to this path");
  cli.add_flag("messages", &messages, "worms to record for --chrome");
  cli.add_flag("stalls", &stalls,
               "per-worm stall attribution view for --figure");
  cli.add_flag("watch", &watch,
               "live view of a heartbeat directory: poll every "
               "*.status.json under DIR until all runs finish");
  cli.add_flag("watch-iterations", &watch_iterations,
               "stop --watch after N polling passes (0 = until every run "
               "finishes)");
  cli.add_flag("watch-interval-ms", &watch_interval_ms,
               "polling interval for --watch in milliseconds");
  cli.add_flag("check-stream", &check_stream_path,
               "schema-check one NDJSON heartbeat stream file; exit 1 on "
               "any violation");
  cli.add_flag("worm-trace", &worm_trace_dir,
               "write per-worm Perfetto traces here (implies --stalls)");
  experiment::bind_run_knobs(
      cli, &options,
      experiment::knob::kQuick | experiment::knob::kSeed |
          experiment::knob::kScenario | experiment::knob::kHeartbeat |
          experiment::knob::kProfile);
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }

  if (!check_stream_path.empty()) return check_stream(check_stream_path);
  if (!watch.empty()) {
    return watch_directory(watch, watch_iterations,
                           std::max<std::int64_t>(1, watch_interval_ms));
  }
  if (!dir.empty()) return report_directory(dir);
  if (!chrome.empty()) return export_chrome(chrome, messages, options.seed);
  return report_series(figure, load, options,
                       stalls || !worm_trace_dir.empty(), worm_trace_dir);
}
