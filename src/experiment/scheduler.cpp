#include "experiment/scheduler.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "experiment/cache.hpp"
#include "util/check.hpp"

namespace wormsim::experiment {

namespace {

struct PointItem {
  std::size_t series;
  std::size_t load;
};

/// One worker's deque.  The owner pops from the front; thieves also steal
/// from the front — with millisecond-scale items the classic
/// opposite-ends protocol buys nothing, and the front of a deque is the
/// victim's *least speculative* pending point (lowest load index), i.e.
/// the one most likely to be needed by the sequential contract.  Stealing
/// it first minimizes wasted speculation.
struct WorkerDeque {
  std::mutex mutex;
  std::deque<PointItem> items;

  std::optional<PointItem> pop() {
    std::lock_guard<std::mutex> lock(mutex);
    if (items.empty()) return std::nullopt;
    PointItem item = items.front();
    items.pop_front();
    return item;
  }
};

/// Early-stop replay state for one series, advanced under a shared mutex
/// as verdicts arrive out of order.
struct SeriesResolver {
  std::size_t next = 0;      ///< lowest load index not yet replayed
  unsigned streak = 0;       ///< consecutive unsustainable points at `next`
  bool stopped = false;      ///< cutoff fired; verdict replay is final
};

}  // namespace

std::vector<Series> run_series_pool(const std::vector<SeriesSpec>& specs,
                                    const SweepOptions& options,
                                    const PoolOptions& pool,
                                    PoolStats* stats) {
  const std::size_t series_count = specs.size();
  const std::size_t load_count = options.loads.size();
  std::vector<Series> results(series_count);
  for (std::size_t s = 0; s < series_count; ++s) {
    results[s].label = specs[s].label;
  }
  if (series_count == 0 || load_count == 0) return results;

  unsigned threads = pool.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Point granularity: size the pool by points, not series — this is the
  // whole reason the scheduler exists (a saturated series no longer pins
  // one core while the rest idle).
  threads = static_cast<unsigned>(std::min<std::size_t>(
      threads, series_count * load_count));

  // results grid + early-stop state.  cutoff[s] is the first load index a
  // worker must NOT start; it only ever moves down, exactly once, when
  // the sequential stop rule fires for series s.
  std::vector<std::vector<std::optional<SweepPoint>>> grid(series_count);
  for (auto& row : grid) row.resize(load_count);
  std::vector<std::atomic<std::size_t>> cutoff(series_count);
  for (auto& c : cutoff) c.store(load_count, std::memory_order_relaxed);
  std::vector<SeriesResolver> resolver(series_count);
  std::mutex resolve_mutex;

  std::atomic<std::uint64_t> computed{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> busy_ns{0};
  // Phase profile summed across computed points (cache hits replay stored
  // points without running an engine, so they contribute nothing).  Low
  // frequency — once per computed point — so a mutex is fine.
  std::mutex profile_mutex;
  telemetry::PhaseProfile engine_profile;

  // Distribute series round-robin; each worker's deque holds its series'
  // points in (series, load) order, so a lone worker replays the exact
  // sequential loop with zero speculation.
  std::vector<WorkerDeque> deques(threads);
  for (std::size_t s = 0; s < series_count; ++s) {
    for (std::size_t l = 0; l < load_count; ++l) {
      deques[s % threads].items.push_back(PointItem{s, l});
    }
  }

  const unsigned stop_after = options.stop_after_unsustainable;
  auto record = [&](const PointItem& item, SweepPoint point) {
    std::lock_guard<std::mutex> lock(resolve_mutex);
    grid[item.series][item.load] = std::move(point);
    // Replay verdicts in load order; later points stay speculative until
    // the whole prefix is in.
    SeriesResolver& state = resolver[item.series];
    while (!state.stopped && state.next < load_count &&
           grid[item.series][state.next]) {
      const bool sustainable = grid[item.series][state.next]->sustainable;
      ++state.next;
      if (!sustainable) {
        ++state.streak;
        if (stop_after != 0 && state.streak >= stop_after) {
          // Final: a speculated point landing later must not resume the
          // replay and move the cutoff back up.
          state.stopped = true;
          cutoff[item.series].store(state.next, std::memory_order_release);
        }
      } else {
        state.streak = 0;
      }
    }
  };

  auto worker = [&](unsigned self) {
    while (true) {
      std::optional<PointItem> item = deques[self].pop();
      for (unsigned v = 1; !item && v < threads; ++v) {
        item = deques[(self + v) % threads].pop();
      }
      if (!item) return;  // no items anywhere; none are ever re-enqueued
      if (item->load >=
          cutoff[item->series].load(std::memory_order_acquire)) {
        continue;  // discarded: past this series' early stop
      }
      const SeriesSpec& spec = specs[item->series];
      const double load = options.loads[item->load];
      std::optional<SweepPoint> point;
      std::string key;
      if (pool.cache != nullptr) {
        key = ResultCache::fingerprint(spec, load, options.sim);
        point = pool.cache->load(key);
      }
      if (point) {
        cache_hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        const auto start = std::chrono::steady_clock::now();
        sim::SimResult full;
        point = run_point(spec, load, options.sim, &full);
        busy_ns.fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
            std::memory_order_relaxed);
        computed.fetch_add(1, std::memory_order_relaxed);
        if (full.phase_profile.enabled) {
          std::lock_guard<std::mutex> lock(profile_mutex);
          engine_profile.merge(full.phase_profile);
        }
        if (pool.cache != nullptr) pool.cache->store(key, *point);
      }
      record(*item, std::move(*point));
    }
  };

  const auto pool_start = std::chrono::steady_clock::now();
  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back(worker, t);
    }
    for (std::thread& thread : workers) thread.join();
  }
  const auto pool_end = std::chrono::steady_clock::now();

  // Assemble from the resolvers, which replayed the sequential rule as
  // verdicts arrived: a stopped series keeps loads [0, next), any other
  // series every load.  Points computed past the cut were speculation.
  std::uint64_t speculated = 0;
  for (std::size_t s = 0; s < series_count; ++s) {
    const std::size_t kept =
        resolver[s].stopped ? resolver[s].next : load_count;
    for (std::size_t l = 0; l < load_count; ++l) {
      if (l >= kept) {
        if (grid[s][l].has_value()) ++speculated;
        continue;
      }
      WORMSIM_CHECK_MSG(grid[s][l].has_value(),
                        "scheduler dropped a point the sequential "
                        "contract requires");
      results[s].points.push_back(std::move(*grid[s][l]));
    }
  }

  if (stats != nullptr) {
    stats->computed = computed.load(std::memory_order_relaxed);
    stats->cache_hits = cache_hits.load(std::memory_order_relaxed);
    stats->speculated = speculated;
    stats->threads = threads;
    stats->busy_seconds =
        static_cast<double>(busy_ns.load(std::memory_order_relaxed)) * 1e-9;
    stats->wall_seconds =
        std::chrono::duration<double>(pool_end - pool_start).count();
    stats->engine_profile = engine_profile;
  }
  return results;
}

}  // namespace wormsim::experiment
