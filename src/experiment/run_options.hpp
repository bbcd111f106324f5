// Run controls shared by the figure runner and the example binaries, and
// the one table that declares each shared knob: its --flag, its
// WORMSIM_* variable, its help text and its parser (run_options.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/sweep.hpp"
#include "sim/config.hpp"

namespace wormsim::util {
class CliParser;
}

namespace wormsim::experiment {

/// Global run controls shared by all figures.
struct RunOptions {
  bool quick = false;          ///< smoke-test mode: tiny sims, few loads
  std::uint64_t seed = 20250707;
  /// Point-pool worker threads (experiment/scheduler.hpp); 0 means one
  /// per hardware thread.  Results are bitwise identical to the
  /// sequential run (each point owns its RNG; pinned by
  /// tests/scheduler_test.cpp).
  unsigned threads = 1;
  /// When non-empty, run_figure also writes a schema-versioned JSON
  /// result (seed, git revision, wall time, cycles/sec, all points) as
  /// `<json_dir>/<figure_id>.json`; see experiment/results_json.hpp.
  std::string json_dir;
  /// When non-empty, every sweep point is looked up in (and stored to) a
  /// content-addressed on-disk cache under this directory before
  /// simulating; see experiment/cache.hpp.  Safe to share between
  /// concurrent processes.
  std::string cache_dir;

  /// Scenario knobs applied to every series; a series' tweak_sim can
  /// still override them.  The defaults are the paper's fault-free
  /// single-flit wormhole switches.  sim_config() replaces the seed, the
  /// three phase lengths and telemetry.profile from the other fields.
  /// With telemetry.heartbeat_cycles > 0, run_figure streams each point's
  /// NDJSON heartbeats to `<heartbeat_dir>/<figure_id>/<point tag>.ndjson`
  /// (DESIGN.md §15); results are bitwise unchanged either way.
  sim::SimConfig sim;

  /// Attribute engine wall time to per-phase buckets (telemetry/
  /// profiler.hpp); surfaces as the manifest's "profile" object and in
  /// telemetry_report's phase table.  Diagnostics only — never in results.
  /// Defaults to the config's own default (WORMSIM_PROFILE).
  bool profile = sim.telemetry.profile;

  /// Simulation phases sized for stable means (quick mode shrinks them).
  sim::SimConfig sim_config() const;
  std::vector<double> loads() const;
  SweepOptions sweep_options() const;
};

/// Groups of shared knobs, for bind_run_knobs.
namespace knob {
enum : std::uint32_t {
  kQuick = 1u << 0,
  kSeed = 1u << 1,
  /// --threads, --json-dir and --cache-dir: how run_figure runs a figure.
  kFigureRun = 1u << 2,
  /// The knobs that reach every engine unchanged through RunOptions::sim:
  /// flow control, implicit topology and faults.
  kScenario = 1u << 3,
  kHeartbeat = 1u << 4,
  kProfile = 1u << 5,
  kAll = (1u << 6) - 1,
};
}  // namespace knob

/// Binds the `knobs` groups of shared knobs to `*options`.  Each knob is
/// read from its WORMSIM_* variable now (a malformed value aborts naming
/// the variable) and registered on `cli` as a --flag that overrides it:
/// a flag beats the variable, which beats the value `*options` held.
/// `*options` must outlive `cli`.
void bind_run_knobs(util::CliParser& cli, RunOptions* options,
                    std::uint32_t knobs);

}  // namespace wormsim::experiment
