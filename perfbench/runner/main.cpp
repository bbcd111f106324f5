// Benchmark runner: runs one workload and prints one JSON line with its
// output checks, the digest of its simulated statistics, and its metrics.
// perfbench/run.py builds this binary, chooses the reference outputs to
// compare against, and adds the host fingerprint.
//
// Usage: perfbench_runner --workload=<paper_sweep|tmin_saturated|bmin_vc_deep>
//          [--seed=N] [--seconds=S] [--trace] [--tiny]
//          [--results-dir=results] [--spans=<path>]
//          [--expect-digest=<hex>] [--expect-moves=N]

#include <cstdio>
#include <string>

#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::int64_t seed = static_cast<std::int64_t>(perfbench::kDefaultSeed);
  wormsim::util::CliParser cli("perfbench_runner: one benchmark workload");
  cli.add_flag("workload", &options.workload,
               "paper_sweep, tmin_saturated or bmin_vc_deep");
  cli.add_flag("seed", &seed, "workload seed");
  cli.add_flag("seconds", &options.seconds, "time budget for timed reps");
  cli.add_flag("trace", &options.trace,
               "traced run: per-layer metrics instead of end-to-end ones");
  cli.add_flag("tiny", &options.tiny, "small networks for the self-test");
  cli.add_flag("results-dir", &options.results_dir,
               "committed figure tables");
  cli.add_flag("spans", &options.spans_path, "spans output file (traced)");
  cli.add_flag("expect-digest", &options.expect_digest,
               "reference digest of the simulated statistics");
  cli.add_flag("expect-moves", &options.expect_moves,
               "reference flit-move count (traced)");
  switch (cli.parse(argc, argv)) {
    case wormsim::util::CliParser::Status::kHelp: return 0;
    case wormsim::util::CliParser::Status::kError: return 1;
    case wormsim::util::CliParser::Status::kOk: break;
  }
  if (!perfbench::is_workload(options.workload) || seed < 0 ||
      options.seconds <= 0.0) {
    std::fprintf(stderr, "bad arguments; see --help\n");
    return 1;
  }
  options.seed = static_cast<std::uint64_t>(seed);

  perfbench::Report report = perfbench::run_workload(options);
  if (!options.trace) {
    report.metric("checks_passed_fraction",
                  static_cast<double>(report.attempted - report.failed) /
                      static_cast<double>(report.attempted),
                  "fraction");
  }
  std::string failures = "[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    if (i > 0) failures += ",";
    failures += json_string(report.failures[i]);
  }
  failures += "]";
  std::string metrics = "{";
  char buf[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (i > 0) metrics += ",";
    metrics += json_string(m.name) + ":{\"value\":" + buf +
               ",\"unit\":" + json_string(m.unit) + "}";
  }
  metrics += "}";
  std::string reps = "[";
  for (std::size_t i = 0; i < report.rep_walls.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6f", i > 0 ? "," : "",
                  report.rep_walls[i]);
    reps += buf;
  }
  reps += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"attempted\":%llu,\"failed\":%llu,"
      "\"failures\":%s,\"digest\":%s,\"rep_walls\":%s,\"metrics\":%s}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), failures.c_str(),
      json_string(report.digest).c_str(), reps.c_str(), metrics.c_str());
  return 0;
}
