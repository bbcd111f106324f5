// Figure registry: one entry per evaluation figure of the paper plus the
// future-work ablations listed in DESIGN.md.  figures_cli and the other
// examples call run_figure() and print the resulting latency/throughput
// series.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "experiment/cache.hpp"
#include "experiment/run_options.hpp"
#include "experiment/scheduler.hpp"
#include "experiment/sweep.hpp"

namespace wormsim::experiment {

struct FigureResult {
  std::string id;
  std::string title;
  std::vector<Series> series;
  /// Execution stats: pool worker/timing counters and, when a cache was
  /// attached, its hit/miss/rejected/store counts (one cache per figure).
  /// Also embedded in the JSON manifest; figures_cli prints an end-of-run
  /// summary from them (to stderr — stdout is the byte-pinned table).
  PoolStats pool_stats;
  double wall_seconds = 0.0;
  std::optional<ResultCache::Stats> cache_stats;
};

/// A figure's definition before running: its title and the series
/// (network + workload) it sweeps.  telemetry_report and perfbench run
/// its series directly.
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
