// Content-addressed on-disk cache of sweep-point results.
//
// Every (series, load) point of a figure is a pure function of its inputs:
// the network configuration, the materialized workload, the (tweaked)
// simulator configuration, and the engine's semantics.  The cache
// fingerprints that tuple with a canonical serialization (see
// ResultCache::fingerprint) and persists the resulting SweepPoint as a
// schema-versioned JSON file under a cache directory, so re-running a
// figure suite — or running 1/n of it per CI shard — recomputes only what
// the inputs changed.
//
// Engine semantics are part of the address: the fingerprint folds in a
// version derived from the golden digests in tests/engine_golden.inc, the
// same digests the golden tests pin.  An intentional semantic change
// regenerates those digests and thereby invalidates every cached point;
// an unintentional one fails the golden tests before any cache is
// consulted.
//
// Concurrency and crash safety: entries are written with
// telemetry::write_json_file, a temporary file renamed into place (atomic
// on POSIX), so concurrent shards sharing a directory and interrupted runs
// leave either a complete entry or none.
// A truncated or otherwise corrupt entry is treated as a miss and
// recomputed, never trusted and never fatal.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "experiment/sweep.hpp"

namespace wormsim::experiment {

/// Layout version of cache entry files; bump on any breaking change.
/// v3: fault-injection knobs entered the fingerprint and points gained
/// the degraded-mode SLO fields (p99, delivery_fraction, ...).
inline constexpr int kCacheSchemaVersion = 3;

class ResultCache {
 public:
  /// Opens (and creates if needed) a cache directory.
  explicit ResultCache(std::string directory);

  /// Canonical fingerprint of one sweep point.  Applies the series'
  /// tweak_sim on top of `base_config` (tweak-last, matching run_point)
  /// and materializes the workload for the built network, then serializes
  /// every result-affecting field.  Observability toggles (telemetry,
  /// validate) are excluded: the telemetry and validation layers are
  /// pinned bitwise-neutral by the golden tests, so they must not split
  /// the cache address space.
  static std::string fingerprint(const SeriesSpec& spec, double load,
                                 const sim::SimConfig& base_config);

  /// The engine-semantics version folded into every fingerprint: an FNV
  /// hash of the golden digest table (tests/engine_golden.inc), as a
  /// 16-digit hex string.
  static const std::string& engine_semantics_version();

  /// Looks up a fingerprint.  Returns the stored point only when the
  /// entry parses, carries the current schema version, and its embedded
  /// key matches `fingerprint` exactly (hash collisions and stale
  /// layouts read as misses).
  std::optional<SweepPoint> load(const std::string& fingerprint) const;

  /// Persists a point under its fingerprint (telemetry::write_json_file).
  void store(const std::string& fingerprint, const SweepPoint& point) const;

  /// Path of the entry file a fingerprint maps to.
  std::string entry_path(const std::string& fingerprint) const;

  const std::string& directory() const { return directory_; }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    ///< no entry file on disk
    std::uint64_t rejected = 0;  ///< entry present but corrupt/stale
    std::uint64_t stores = 0;
  };
  Stats stats() const;

 private:
  std::string directory_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> rejected_{0};
  mutable std::atomic<std::uint64_t> stores_{0};
};

}  // namespace wormsim::experiment
