// Measurement probes the benchmark wraps around the simulator's public
// interfaces.  Nothing here is compiled into the simulator: the decorators
// implement the interfaces the engine accepts (routing::Router,
// sim::TrafficSource, sim::TraceSink) and forward to the real objects, so
// the simulated statistics are unchanged and only host time is added.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "routing/router.hpp"
#include "sim/trace.hpp"
#include "sim/traffic_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Aggregated per-call boundary: there are millions of these calls, so
/// they are kept as count plus summed time instead of one span each.
struct CallStat {
  std::uint64_t count = 0;
  std::uint64_t ns = 0;

  void add(const CallStat& other) {
    count += other.count;
    ns += other.ns;
  }
  double mean_ns() const {
    return count > 0 ? static_cast<double>(ns) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Times one call into `stat` for the lifetime of the object.
class CallTimer {
 public:
  explicit CallTimer(CallStat& stat) : stat_(stat), start_(Clock::now()) {}
  ~CallTimer() {
    ++stat_.count;
    stat_.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  CallStat& stat_;
  Clock::time_point start_;
};

/// Counting decorator around Router::candidates.  The engine memoizes
/// candidate lists per (lane, packet), so the count is its memo misses.
class CountingRouter final : public wormsim::routing::Router {
 public:
  explicit CountingRouter(const Router& inner) : inner_(inner) {}

  void candidates(const wormsim::routing::RouteQuery& query,
                  wormsim::topology::LaneId in_lane,
                  wormsim::routing::CandidateList& out) const override {
    CallTimer timer(stat_);
    inner_.candidates(query, in_lane, out);
  }
  unsigned path_length(
      const wormsim::routing::RouteQuery& query) const override {
    return inner_.path_length(query);
  }

  const CallStat& stat() const { return stat_; }

 private:
  const Router& inner_;
  mutable CallStat stat_;
};

/// Counting decorator around every TrafficSource draw.
class CountingTraffic final : public wormsim::sim::TrafficSource {
 public:
  explicit CountingTraffic(TrafficSource& inner) : inner_(inner) {}

  bool node_active(wormsim::topology::NodeId node) const override {
    CallTimer timer(stat_);
    return inner_.node_active(node);
  }
  double next_gap(wormsim::topology::NodeId node,
                  wormsim::util::Rng& rng) override {
    CallTimer timer(stat_);
    return inner_.next_gap(node, rng);
  }
  std::uint64_t next_destination(wormsim::topology::NodeId node,
                                 wormsim::util::Rng& rng) override {
    CallTimer timer(stat_);
    return inner_.next_destination(node, rng);
  }
  std::uint32_t next_length(wormsim::topology::NodeId node,
                            wormsim::util::Rng& rng) override {
    CallTimer timer(stat_);
    return inner_.next_length(node, rng);
  }

  const CallStat& stat() const { return stat_; }

 private:
  TrafficSource& inner_;
  mutable CallStat stat_;
};

/// Counts engine events by kind; stores nothing per event.
class CountingSink final : public wormsim::sim::TraceSink {
 public:
  void on_event(const wormsim::sim::TraceEvent& event) override {
    ++counts_[static_cast<std::size_t>(event.kind)];
  }
  std::uint64_t count(wormsim::sim::TraceEvent::Kind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

 private:
  std::uint64_t counts_[5] = {};
};

/// Coarse spans recorded in memory (one thread) and written out at the end.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// RAII scope: opens a span under the innermost open one.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name) : recorder_(recorder) {
      if (recorder_ != nullptr) index_ = recorder_->open(std::move(name));
    }
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  const std::vector<Span>& spans() const { return spans_; }
  double duration(int index) const {
    return spans_[index].end_s - spans_[index].start_s;
  }
  /// Duration minus the time the span's direct children cover.
  double self_seconds(int index) const;

 private:
  int open(std::string name);
  void close(int index);

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
