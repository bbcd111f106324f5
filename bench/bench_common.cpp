#include "bench/bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "experiment/results_json.hpp"
#include "telemetry/result_writer.hpp"

namespace wormsim::bench {

namespace {

// SeriesSpec objects must outlive benchmark execution; keep them here.
std::vector<std::shared_ptr<experiment::FigureSpec>> g_specs;

// One slot per registered (figure, series, load) point.  The registered
// lambdas write their SweepPoint here so the harness can assemble JSON
// results after the (possibly filtered) benchmark run.
struct PointSlot {
  std::size_t figure = 0;  ///< index into g_specs
  std::size_t series = 0;
  double load = 0.0;
  bool ran = false;
  experiment::SweepPoint point;
};
std::vector<PointSlot> g_slots;

/// Consumes a --json or --json=<dir> argument from argv (google-benchmark
/// rejects flags it does not know).  Returns the directory, empty when
/// the flag is absent.
std::string strip_json_flag(int& argc, char** argv) {
  std::string dir;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      dir = "results/json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      dir = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return dir;
}

/// Consumes a --threads=<n> argument.  Returns 0 when absent (meaning:
/// honor WORMSIM_THREADS, else run through google-benchmark).
unsigned strip_threads_flag(int& argc, char** argv) {
  unsigned threads = 0;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<unsigned>(
          std::strtoul(argv[i] + 10, nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return threads;
}

void write_json_results(const std::string& dir,
                        const experiment::RunOptions& options,
                        const sim::SimConfig& sim, double wall_seconds) {
  for (std::size_t f = 0; f < g_specs.size(); ++f) {
    experiment::FigureResult result;
    result.id = g_specs[f]->id;
    result.title = g_specs[f]->title;
    result.series.resize(g_specs[f]->series.size());
    std::size_t ran = 0;
    for (std::size_t s = 0; s < g_specs[f]->series.size(); ++s) {
      result.series[s].label = g_specs[f]->series[s].label;
    }
    for (const PointSlot& slot : g_slots) {
      if (slot.figure != f || !slot.ran) continue;
      result.series[slot.series].points.push_back(slot.point);
      ++ran;
    }
    if (ran == 0) continue;  // figure filtered out entirely

    telemetry::RunManifest manifest;
    manifest.id = result.id;
    manifest.title = result.title;
    manifest.seed = options.seed;
    manifest.quick = options.quick;
    manifest.simulated_cycles =
        static_cast<std::uint64_t>(ran) * sim.total_cycles();
    // Wall time is for the whole binary run; with several figures per
    // binary the per-figure cycles/sec is an aggregate rate.
    manifest.wall_seconds = wall_seconds;
    const std::string path =
        experiment::write_figure_json(result, manifest, dir);
    std::printf("# json result: %s\n", path.c_str());
  }
}

}  // namespace

int run_figures(const std::vector<std::string>& figure_ids, int argc,
                char** argv) {
  std::string json_dir = strip_json_flag(argc, argv);
  const unsigned threads_flag = strip_threads_flag(argc, argv);
  experiment::RunOptions options = experiment::RunOptions::from_env();
  if (json_dir.empty()) json_dir = options.json_dir;  // WORMSIM_JSON_DIR
  if (threads_flag > 0) options.threads = threads_flag;

  // With a worker pool requested, per-point benchmark registration would
  // serialize the sweep again; run each figure through run_figure, which
  // fans the points out over the point pool and produces bitwise the same
  // points and JSON results as the sequential path.
  if (options.threads > 1) {
    options.json_dir = json_dir;
    for (const std::string& id : figure_ids) {
      const experiment::FigureResult result =
          experiment::run_figure(id, options);
      experiment::print_figure(result, std::cout);
    }
    return 0;
  }

  const sim::SimConfig sim = options.sim_config();
  const std::vector<double> loads = options.loads();

  // Registered lambdas capture slot *indices* (not pointers), so slots
  // stay valid regardless of vector growth.
  std::size_t total_points = 0;
  std::vector<std::shared_ptr<experiment::FigureSpec>> specs;
  for (const std::string& id : figure_ids) {
    specs.push_back(std::make_shared<experiment::FigureSpec>(
        experiment::figure_spec(id)));
    total_points += specs.back()->series.size() * loads.size();
  }
  g_slots.reserve(total_points);

  for (std::size_t f = 0; f < specs.size(); ++f) {
    const auto& spec = specs[f];
    std::printf("# %s\n", spec->title.c_str());
    for (std::size_t s = 0; s < spec->series.size(); ++s) {
      for (double load : loads) {
        const std::size_t slot = g_slots.size();
        g_slots.push_back({f, s, load, false, {}});
        const std::string name =
            spec->id + "/" + spec->series[s].label + "/load=" +
            util::format_double(load * 100.0, 0) + "%";
        benchmark::RegisterBenchmark(
            name.c_str(),
            [spec, s, load, sim, slot](benchmark::State& state) {
              run_point_benchmark(state, spec->series[s], load, sim,
                                  &g_slots[slot].point);
              g_slots[slot].ran = true;
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
    g_specs.push_back(spec);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const auto wall_start = std::chrono::steady_clock::now();
  benchmark::RunSpecifiedBenchmarks();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  benchmark::Shutdown();

  if (!json_dir.empty()) {
    write_json_results(json_dir, options, sim, wall_seconds);
  }
  return 0;
}

}  // namespace wormsim::bench
