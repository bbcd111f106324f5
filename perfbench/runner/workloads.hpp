// The benchmark's three workloads (see perfbench/README.md for why each
// exists and which layers it exercises).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seed whose outputs are pinned: the committed results/ tables and the
/// single-simulation digests in perfbench/reference.json.
inline constexpr std::uint64_t kDefaultSeed = 20250707;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  /// Shrunken networks and windows so every workload runs in seconds.
  bool tiny = false;
  /// Committed figure tables, compared byte for byte at the default seed.
  std::string results_dir = "results";
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
  /// Reference outputs for this workload at this seed; empty / negative
  /// when none is pinned, in which case the digest is only printed.
  std::string expect_digest;
  std::int64_t expect_moves = -1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports: output checks, the digest of the
/// simulated statistics, and the metrics of the requested mode.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::string digest;
  std::vector<Metric> metrics;
  /// Wall seconds of every timed rep, in order (saved with the result).
  std::vector<double> rep_walls;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

bool is_workload(const std::string& name);

/// Runs `options.workload`; the metrics are the end-to-end set, or the
/// per-layer set when options.trace is on.
Report run_workload(const Options& options);

}  // namespace perfbench
