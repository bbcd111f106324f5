// Figure registry: one entry per evaluation figure of the paper plus the
// future-work ablations listed in DESIGN.md.  Bench binaries and examples
// call run_figure() and print the resulting latency/throughput series.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "experiment/cache.hpp"
#include "experiment/scheduler.hpp"
#include "experiment/sweep.hpp"

namespace wormsim::experiment {

/// Global run controls shared by all figures.
struct RunOptions {
  bool quick = false;          ///< smoke-test mode: tiny sims, few loads
  std::uint64_t seed = 20250707;
  /// Point-pool worker threads (experiment/scheduler.hpp); results are
  /// bitwise identical to the sequential run (each point owns its RNG;
  /// pinned by tests/scheduler_test.cpp).
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

  /// Flow-control axes applied to every series (a series' tweak_sim can
  /// still override them): per-lane input fifo depth in flits, the
  /// backpressure scheme, and the credit/signal return delay in cycles.
  /// The defaults are the paper's single-flit wormhole switches.
  std::uint32_t buffer_depth = 1;
  sim::FlowControlScheme flow_control = sim::FlowControlScheme::kCredit;
  std::uint32_t credit_delay = 0;

  /// Compute topology records on the fly instead of materializing the
  /// graph (SimConfig::implicit_topology; bitwise neutral).  The
  /// paper-sized 64-node figures don't need it; the knob exists for the
  /// million-node studies (DESIGN.md §13).
  bool implicit_topology = false;

  /// Runtime fault injection applied to every series (DESIGN.md §14): a
  /// seed-driven fraction of interior channels dies at fault_at_cycle.
  /// 0 (the default) keeps every figure bitwise identical to the
  /// fault-free baseline; the dedicated fault figures set their own
  /// fractions via tweak_sim, which wins over these globals.
  double fault_fraction = 0.0;
  std::uint64_t fault_seed = 1;
  std::uint64_t fault_at_cycle = 0;

  /// Streaming observability (DESIGN.md §15).  heartbeat_cycles > 0 makes
  /// every simulated point append NDJSON heartbeat snapshots to
  /// `<heartbeat_dir>/<figure_id>/<point tag>.ndjson` plus an atomically
  /// rewritten `.status.json` beside it; `telemetry_report --watch` renders
  /// the directory live.  0 (the default) is the exact heartbeat-free fast
  /// path, and heartbeats never feed back into results (golden digests are
  /// bitwise unchanged either way).
  std::uint64_t heartbeat_cycles = 0;
  std::string heartbeat_dir;
  /// Attribute engine wall time to per-phase buckets (telemetry/
  /// profiler.hpp); surfaces as the manifest's "profile" object and in
  /// `telemetry_report --profile`.  Diagnostics only — never in results.
  bool profile = false;

  /// Simulation phases sized for stable means (quick mode shrinks them).
  sim::SimConfig sim_config() const;
  std::vector<double> loads() const;
  SweepOptions sweep_options() const;

  /// Honors WORMSIM_QUICK=1, WORMSIM_SEED=<n>, WORMSIM_THREADS=<n>,
  /// WORMSIM_JSON_DIR=<dir>, WORMSIM_CACHE_DIR=<dir>,
  /// WORMSIM_BUFFER_DEPTH=<flits>, WORMSIM_FLOW_CONTROL=<scheme>,
  /// WORMSIM_CREDIT_DELAY=<cycles>, WORMSIM_IMPLICIT_TOPOLOGY=1,
  /// WORMSIM_FAULT_FRACTION=<f>, WORMSIM_FAULT_SEED=<n>,
  /// WORMSIM_FAULT_AT_CYCLE=<n>, WORMSIM_HEARTBEAT=<cycles>,
  /// WORMSIM_HEARTBEAT_DIR=<dir>, and WORMSIM_PROFILE=1.  A malformed
  /// number or scheme name aborts with a diagnostic.
  static RunOptions from_env();
};

struct FigureResult {
  std::string id;
  std::string title;
  std::vector<Series> series;
  /// Execution stats: pool worker/timing counters and, when a cache was
  /// attached, this run's hit/miss/rejected/store deltas.  Also embedded
  /// in the JSON manifest; figures_cli prints an end-of-run summary from
  /// them (to stderr — stdout is the byte-pinned table).
  PoolStats pool_stats;
  double wall_seconds = 0.0;
  bool cache_used = false;
  ResultCache::Stats cache_stats;
};

/// A figure's definition before running: its title and the series
/// (network + workload) it sweeps.  Bench binaries use this to register
/// one benchmark per point.
struct FigureSpec {
  std::string id;
  std::string title;
  std::vector<SeriesSpec> series;
};

FigureSpec figure_spec(const std::string& id);

/// Runs a figure by id ("fig16a" ... "fig20b", "ablation_*").  Aborts on
/// unknown ids; consult figure_ids().
FigureResult run_figure(const std::string& id, const RunOptions& options);

std::vector<std::string> figure_ids();

/// True if `id` names a registered figure.
bool figure_exists(const std::string& id);

/// Deterministic partition of the full figure x point work list into
/// `shard_count` shards, aligned to figure boundaries so every shard
/// emits complete figures (a figure's table and JSON come from exactly
/// one shard; the union over all shards is the whole registry).  Figures
/// are weighed by their point count (series x loads under `options`) and
/// greedily assigned to the lightest shard, so shard wall times stay
/// balanced.  Returns shard `shard_index`'s figure ids in registry order.
/// Requires shard_index < shard_count.
std::vector<std::string> shard_figure_ids(unsigned shard_index,
                                          unsigned shard_count,
                                          const RunOptions& options);

/// Renders the figure as an aligned table (one row per point, one block
/// per series).
void print_figure(const FigureResult& result, std::ostream& os);

/// Machine-readable CSV: one row per (series, point) with a `series`
/// column — ready for plotting tools.
void print_figure_csv(const FigureResult& result, std::ostream& os);

// ---- Standard 64-node network configurations (Section 5) ----------------

topology::NetworkConfig tmin_config(const std::string& topology = "cube",
                                    unsigned radix = 4, unsigned stages = 3);
topology::NetworkConfig dmin_config(const std::string& topology = "cube",
                                    unsigned radix = 4, unsigned stages = 3,
                                    unsigned dilation = 2);
topology::NetworkConfig vmin_config(const std::string& topology = "cube",
                                    unsigned radix = 4, unsigned stages = 3,
                                    unsigned vcs = 2);
topology::NetworkConfig bmin_config(unsigned radix = 4, unsigned stages = 3,
                                    unsigned vcs = 1);

}  // namespace wormsim::experiment
