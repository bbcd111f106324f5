// Figure runner: reproduces any registered evaluation figure or ablation
// and prints it as a latency/throughput table — the exact rows/series the
// paper's plots report.  This is the tool used to produce EXPERIMENTS.md
// and the CI-enforced tables under results/.
//
// Usage: figures_cli --figure=fig18a [--quick] [--seed=N] [--threads=N]
//        figures_cli --all [--shard=i/n] [--cache-dir=D] [--out-dir=D]
//        figures_cli --list
//
// --shard=i/n runs the i-th of n deterministic, figure-aligned partitions
// of the full suite's figure x point work list (CI fans the suite out over
// a matrix; the union of all shards is exactly --all).  --cache-dir
// replays content-addressed point results from disk — outputs stay
// byte-identical to an uncached sequential run.  --out-dir writes each
// figure's table to <dir>/<id>.txt (or .csv with --csv) instead of
// stdout, the exact bytes committed under results/.  Every shared run
// knob (experiment/run_options.hpp) is a flag here, defaulting to its
// WORMSIM_* variable.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "experiment/figures.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace wormsim;

  std::string figure = "fig18a";
  bool list = false;
  bool all = false;
  bool csv = false;
  std::string shard;
  std::string out_dir;
  experiment::RunOptions options;
  util::CliParser cli("figures_cli: run a paper figure reproduction");
  cli.add_flag("figure", &figure, "figure id (see --list)");
  cli.add_flag("list", &list, "list registered figure ids");
  cli.add_flag("all", &all, "run every registered figure");
  cli.add_flag("csv", &csv, "emit machine-readable CSV instead of tables");
  cli.add_flag("shard", &shard,
               "with --all: run shard i of n (\"i/n\", 0-based) of the "
               "deterministic figure partition");
  cli.add_flag("out-dir", &out_dir,
               "write each figure to <dir>/<id>.txt (or .csv) instead of "
               "stdout");
  experiment::bind_run_knobs(cli, &options, experiment::knob::kAll);
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }

  if (list) {
    for (const std::string& id : experiment::figure_ids()) {
      std::cout << id << "\n";
    }
    return 0;
  }

  unsigned shard_index = 0;
  unsigned shard_count = 1;
  if (!shard.empty()) {
    if (!util::parse_shard(shard, &shard_index, &shard_count)) {
      std::cerr << "bad --shard '" << shard << "'; expected i/n with i < n\n";
      return 1;
    }
    if (!all) {
      std::cerr << "--shard only makes sense with --all\n";
      return 1;
    }
  }

  std::vector<std::string> to_run;
  if (all) {
    to_run = shard_count > 1
                 ? experiment::shard_figure_ids(shard_index, shard_count,
                                                options)
                 : experiment::figure_ids();
  } else {
    if (!experiment::figure_exists(figure)) {
      std::cerr << "unknown figure '" << figure << "'; try --list\n";
      return 1;
    }
    to_run.push_back(figure);
  }
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::cerr << "cannot create --out-dir '" << out_dir << "'\n";
      return 1;
    }
  }
  // Aggregated run instrumentation, reported on stderr at the end (stdout
  // carries the byte-pinned tables that CI diffs against results/).
  experiment::PoolStats totals;
  experiment::ResultCache::Stats cache_totals;
  bool any_cache = false;
  double wall_total = 0.0;
  for (const std::string& id : to_run) {
    const experiment::FigureResult result =
        experiment::run_figure(id, options);
    totals.computed += result.pool_stats.computed;
    totals.speculated += result.pool_stats.speculated;
    totals.threads = std::max(totals.threads, result.pool_stats.threads);
    totals.busy_seconds += result.pool_stats.busy_seconds;
    totals.wall_seconds += result.pool_stats.wall_seconds;
    wall_total += result.wall_seconds;
    if (result.cache_stats) {
      any_cache = true;
      cache_totals.hits += result.cache_stats->hits;
      cache_totals.misses += result.cache_stats->misses;
      cache_totals.rejected += result.cache_stats->rejected;
      cache_totals.stores += result.cache_stats->stores;
    }
    std::ofstream file;
    if (!out_dir.empty()) {
      const std::string path =
          out_dir + "/" + id + (csv ? ".csv" : ".txt");
      file.open(path, std::ios::trunc);
      if (!file.good()) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
      }
    }
    std::ostream& os = out_dir.empty() ? std::cout : file;
    if (csv) {
      experiment::print_figure_csv(result, os);
    } else {
      experiment::print_figure(result, os);
    }
    if (!out_dir.empty() && !file.good()) {
      std::cerr << "write failed for figure " << id << "\n";
      return 1;
    }
  }
  std::cerr << "run summary: " << to_run.size() << " figure(s) in "
            << std::fixed << std::setprecision(2) << wall_total << "s; "
            << totals.computed << " point(s) simulated, "
            << cache_totals.hits << " from cache, " << totals.speculated
            << " speculated; " << totals.threads << " worker(s), "
            << std::setprecision(0) << totals.utilization() * 100.0
            << "% utilized\n";
  if (any_cache) {
    std::cerr << "cache: " << cache_totals.hits << " hit(s), "
              << cache_totals.misses << " miss(es), "
              << cache_totals.rejected << " rejected, "
              << cache_totals.stores << " store(s)\n";
  }
  return 0;
}
