// Point-granular sweep scheduler.
//
// Fanning out whole series would let one saturated series (long drains at
// every load) pin a core while finished workers idle.  This scheduler
// schedules individual (series, load) points instead: a work-stealing
// pool where each worker owns a deque of points in load order and steals
// from other workers once its own deque drains.
//
// The sequential contract is preserved exactly.  run_series stops a
// series after SweepOptions::stop_after_unsustainable consecutive
// unsustainable points, which makes later points *conditional* on earlier
// verdicts.  The pool therefore speculates: a stolen point may lie beyond
// the still-unknown stop index.  As verdicts arrive, a per-series
// resolver replays them in load order; once the sequential rule fires,
// the series' cutoff drops and not-yet-started points past it are
// discarded.  Each returned Series is cut where its resolver stopped;
// speculated points that already ran past the cut are dropped (their
// results still reach the cache — they are valid answers to valid
// questions).  The assembled output is bitwise identical to the
// sequential path for every field of every point.
//
// With a ResultCache attached, each point is looked up by content
// fingerprint before simulating and stored after; see cache.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "experiment/sweep.hpp"

namespace wormsim::experiment {

class ResultCache;

struct PoolOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().  The
  /// pool sizes itself by the point count, not the series count, so more
  /// threads than series still help.  1 degenerates to the sequential
  /// loop (same code path, zero speculation).
  unsigned threads = 0;
  /// Optional content-addressed result cache; nullptr computes everything.
  ResultCache* cache = nullptr;
};

struct PoolStats {
  std::uint64_t computed = 0;     ///< points simulated this run
  std::uint64_t cache_hits = 0;   ///< points replayed from the cache
  std::uint64_t speculated = 0;   ///< computed points discarded by early-stop
  unsigned threads = 0;           ///< workers the pool actually ran with
  /// Summed wall time spent inside run_point across all workers; divided
  /// by `computed` this is the mean per-point simulate time.
  double busy_seconds = 0.0;
  double wall_seconds = 0.0;      ///< pool start to last worker joined
  /// Fraction of worker capacity spent simulating (1.0 = no idle/steal
  /// overhead); 0 when nothing was computed.
  double utilization() const {
    return threads > 0 && wall_seconds > 0.0
               ? busy_seconds / (wall_seconds * threads)
               : 0.0;
  }
  /// Summed engine phase attribution over computed points
  /// (telemetry/profiler.hpp); enabled only when the sweep ran with
  /// SimConfig::telemetry.profile or WORMSIM_PROFILE=1.
  telemetry::PhaseProfile engine_profile;
};

/// Runs every series of `specs` over the pool; returns one Series per
/// spec, in spec order, bitwise identical to running run_series on each.
std::vector<Series> run_series_pool(const std::vector<SeriesSpec>& specs,
                                    const SweepOptions& options,
                                    const PoolOptions& pool,
                                    PoolStats* stats = nullptr);

}  // namespace wormsim::experiment
