// Versioned JSON result documents with run provenance.
//
// Every figure, ablation, and bench run can emit a machine-readable JSON
// document next to its text output: schema version, the run's config
// (seed, quick mode, simulated cycles), the builder's git revision, wall
// time, and simulation speed (cycles/sec).  Consumers key on
// `schema_version` — bump kResultSchemaVersion on any breaking layout
// change and keep readers tolerant of additive fields.  The documents are
// written with write_json_file (telemetry/json.hpp) into the --json-dir
// directory (default WORMSIM_JSON_DIR), a knob declared in
// experiment/run_options.cpp.
#pragma once

#include <string>

#include "telemetry/json.hpp"
#include "telemetry/profiler.hpp"

namespace wormsim::telemetry {

/// Layout version of every JSON document this subsystem writes.
/// v2: simulator configs carry flow-control knobs (buffer_depth,
/// flow_control scheme, credit_delay); sweep points computed under v1
/// implicitly assumed the single-flit wormhole buffers.
inline constexpr int kResultSchemaVersion = 2;

/// Git revision the binary was configured from (`git describe --always
/// --dirty` at CMake configure time; "unknown" outside a git checkout).
const char* git_revision();

/// Provenance attached to every result document.
struct RunManifest {
  std::string id;     ///< figure/bench identifier, e.g. "fig18a"
  std::string title;  ///< human-readable description
  std::uint64_t seed = 0;
  bool quick = false;
  std::uint64_t simulated_cycles = 0;  ///< total engine cycles executed
  double wall_seconds = 0.0;
  double cycles_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(simulated_cycles) / wall_seconds
               : 0.0;
  }

  /// Peak resident set size of the producing process in MiB
  /// (util::peak_rss_mib(), sampled at manifest-build time); 0 when the
  /// platform exposes neither /proc/self/status nor getrusage.
  double peak_rss_mib = 0.0;

  // Point-pool execution stats (experiment/scheduler.hpp).  pool_threads
  // == 0 means the run didn't go through the pool; the "pool" object is
  // then omitted from the JSON (additive schema change, no version bump).
  unsigned pool_threads = 0;
  double pool_busy_seconds = 0.0;  ///< summed per-point simulate time
  std::uint64_t points_computed = 0;
  std::uint64_t points_cached = 0;
  std::uint64_t points_speculated = 0;
  double pool_utilization() const {
    return pool_threads > 0 && wall_seconds > 0.0
               ? pool_busy_seconds / (wall_seconds * pool_threads)
               : 0.0;
  }

  // Engine phase attribution (telemetry/profiler.hpp), emitted as a
  // "profile" object only when profile.enabled (SimConfig::telemetry
  // .profile / WORMSIM_PROFILE=1) — additive, no version bump.
  PhaseProfile profile;

  // Result-cache counters (experiment/cache.hpp), emitted as a "cache"
  // object only when a cache was attached to the run.
  bool cache_used = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_rejected = 0;  ///< entry present but corrupt/stale
  std::uint64_t cache_stores = 0;
};

/// Manifest -> JSON object including schema_version, tool name, and git
/// revision; embed under the document's "manifest" key or splice at the
/// top level.
JsonValue manifest_to_json(const RunManifest& manifest);

}  // namespace wormsim::telemetry
