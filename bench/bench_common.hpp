// Shared harness for the figure benchmarks.
//
// Each bench binary reproduces one figure (or ablation) of the paper: it
// registers one google-benchmark per (series, offered-load) point.  A
// benchmark run executes the full warmup/measure/drain simulation for that
// point once and reports the paper's metrics as counters:
//
//   offered_pct   requested offered load (% of injection capacity)
//   accepted_pct  measured accepted throughput (% of capacity)
//   latency_us    mean end-to-end message latency
//   netlat_us     mean in-network latency
//   sustainable   1.0 when the source queues stayed within the paper's
//                 100-message limit
//
// Environment knobs: WORMSIM_QUICK=1 shrinks the simulations for smoke
// runs; WORMSIM_SEED=<n> changes the seed; WORMSIM_JSON_DIR=<dir> (or the
// --json[=dir] flag, default results/json) writes one schema-versioned
// JSON result per figure with seed/git-revision/cycles-per-second
// provenance (see src/telemetry/result_writer.hpp).  --threads=<n> (or
// WORMSIM_THREADS=<n>) with n > 1 runs the figures through the point
// pool (experiment/scheduler.hpp) instead of per-point benchmarks; points
// and JSON output are bitwise identical to the sequential run.
#pragma once

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "experiment/figures.hpp"
#include "experiment/sweep.hpp"
#include "util/table.hpp"

namespace wormsim::bench {

inline void run_point_benchmark(benchmark::State& state,
                                const experiment::SeriesSpec& spec,
                                double load, const sim::SimConfig& sim,
                                experiment::SweepPoint* out = nullptr) {
  experiment::SweepPoint point;
  for (auto _ : state) {
    point = experiment::run_point(spec, load, sim);
  }
  state.counters["offered_pct"] = point.offered_requested * 100.0;
  state.counters["accepted_pct"] = point.throughput * 100.0;
  state.counters["latency_us"] = point.latency_us;
  state.counters["netlat_us"] = point.network_latency_us;
  state.counters["sustainable"] = point.sustainable ? 1.0 : 0.0;
  if (out != nullptr) *out = point;
}

/// Registers all points of the given figures and runs the benchmark
/// driver.  Call from each bench binary's main().  Strips a leading
/// --json[=dir] flag before handing argv to google-benchmark.
int run_figures(const std::vector<std::string>& figure_ids, int argc,
                char** argv);

}  // namespace wormsim::bench
