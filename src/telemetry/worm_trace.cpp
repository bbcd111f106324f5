#include "telemetry/worm_trace.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "telemetry/json.hpp"
#include "util/check.hpp"

namespace wormsim::telemetry {

using topology::ChannelId;
using topology::kInvalidId;
using topology::LaneId;

WormTracer::WormTracer(std::size_t lane_count, std::size_t channel_count) {
  lane_holder_.assign(lane_count, kNoWorm);
  channel_last_user_.assign(channel_count, kNoWorm);
  lane_starved_.assign(lane_count, 0);
}

void WormTracer::on_created(WormId id, std::uint64_t cycle,
                            std::uint64_t src, std::uint64_t dst,
                            std::uint32_t length, bool measured) {
  if (records_.size() <= id) records_.resize(id + 1);
  WormRecord& r = records_[id];
  r.id = id;
  r.src = src;
  r.dst = dst;
  r.length = length;
  r.measured = measured;
  r.create_cycle = cycle;
}

void WormTracer::on_injected(WormId id, std::uint64_t cycle) {
  rec(id).inject_cycle = cycle;
}

void WormTracer::on_header_arrival(WormId id, LaneId in_lane,
                                   std::uint64_t cycle) {
  StageSpan stage;
  stage.in_lane = in_lane;
  stage.arrive_cycle = cycle;
  rec(id).stages.push_back(stage);
}

std::uint32_t WormTracer::open_chain_depth(WormId culprit) const {
  // Snapshot walk over currently-open intervals.  One-edge-per-worm
  // attribution can form cycles under adaptive routing (a worm waits on
  // all its candidates but we pin only the first), so the cap is a
  // correctness guard, not just a bound.
  std::uint32_t depth = 1;
  while (culprit != kNoWorm && depth < kMaxChainDepth) {
    const WormRecord& r = records_[culprit];
    if (!r.blocked_open) break;
    ++depth;
    culprit = r.blocked.empty() ? kNoWorm : r.blocked.back().culprit_worm;
  }
  return depth;
}

void WormTracer::on_blocked(WormId id, LaneId in_lane, LaneId culprit_lane,
                            std::uint64_t cycle, bool credit_starved) {
  WormRecord& r = rec(id);
  WORMSIM_DCHECK(!r.stages.empty());
  ++r.stages.back().blocked_cycles;
  const WormId holder = culprit_lane != kInvalidId &&
                                culprit_lane < lane_holder_.size()
                            ? lane_holder_[culprit_lane]
                            : kNoWorm;
  if (r.blocked_open) {
    BlockedInterval& open = r.blocked.back();
    if (open.culprit_lane == culprit_lane && open.culprit_worm == holder &&
        open.credit_starved == credit_starved &&
        open.last_cycle + 1 == cycle) {
      open.last_cycle = cycle;
      return;
    }
  }
  BlockedInterval interval;
  interval.first_cycle = cycle;
  interval.last_cycle = cycle;
  interval.waiting_lane = in_lane;
  interval.culprit_lane = culprit_lane;
  interval.culprit_worm = holder;
  interval.chain_depth = open_chain_depth(holder);
  interval.credit_starved = credit_starved;
  r.blocked.push_back(interval);
  r.blocked_open = true;
}

void WormTracer::extend_blocked(WormId id, std::uint64_t first,
                                std::uint64_t last) {
  WormRecord& r = rec(id);
  WORMSIM_DCHECK(r.blocked_open && !r.blocked.empty() && !r.stages.empty());
  BlockedInterval& open = r.blocked.back();
  WORMSIM_DCHECK(open.last_cycle + 1 == first && first <= last);
  (void)first;
  r.stages.back().blocked_cycles += last - open.last_cycle;
  open.last_cycle = last;
}

void WormTracer::on_granted(WormId id, LaneId in_lane, LaneId out_lane,
                            std::uint64_t cycle) {
  WormRecord& r = rec(id);
  WORMSIM_DCHECK(!r.stages.empty());
  StageSpan& stage = r.stages.back();
  WORMSIM_DCHECK(stage.in_lane == in_lane);
  (void)in_lane;
  stage.out_lane = out_lane;
  stage.grant_cycle = cycle;
  r.blocked_open = false;
  lane_holder_[out_lane] = id;
}

void WormTracer::on_lane_released(LaneId out_lane) {
  lane_holder_[out_lane] = kNoWorm;
}

void WormTracer::on_credit_starved(WormId id, LaneId lane,
                                   std::uint64_t cycles) {
  lane_starved_[lane] += cycles;
  if (id != kNoWorm) rec(id).starved_cycles += cycles;
}

void WormTracer::on_delivered(WormId id, std::uint64_t cycle) {
  WormRecord& r = rec(id);
  r.deliver_cycle = cycle;
  r.blocked_open = false;
  r.queue_cycles = r.inject_cycle - r.create_cycle;
  // One grant cycle per stage; the per-cycle denial hooks fill `blocked`.
  // Streaming is derived from the stage *timestamps* instead — if either
  // instrumentation path miscounted, the components would no longer sum
  // to the end-to-end latency (the reconciliation test's whole point).
  r.routing_cycles = r.stages.size();
  r.blocked_cycles = 0;
  for (const BlockedInterval& interval : r.blocked) {
    r.blocked_cycles += interval.cycles();
  }
  std::uint64_t header_wait = 0;  // sum over stages of grant - arrive
  for (const StageSpan& stage : r.stages) {
    WORMSIM_DCHECK(stage.granted());
    header_wait += stage.grant_cycle - stage.arrive_cycle;
  }
  r.streaming_cycles = (r.deliver_cycle - r.inject_cycle) - header_wait;
}

void WormTracer::on_terminated(WormId id, std::uint64_t cycle) {
  WormRecord& r = rec(id);
  r.terminate_cycle = cycle;
  r.blocked_open = false;
}

void WormTracer::set_measured(WormId id, bool measured) {
  rec(id).measured = measured;
}

void WormTracer::on_sf_hop_arrival(WormId id, LaneId lane,
                                   std::uint64_t cycle) {
  WormRecord& r = rec(id);
  r.hop_arrival = cycle;
  r.blocked_open = true;  // waiting in lane's queue until the next start
  (void)lane;  // the close-side hook names the waiting lane
}

void WormTracer::on_sf_transfer_start(WormId id, LaneId from, LaneId to,
                                      ChannelId channel,
                                      std::uint64_t cycle) {
  WormRecord& r = rec(id);
  ++r.hops;
  if (from == kInvalidId) {
    r.inject_cycle = cycle;
  } else if (cycle > r.hop_arrival) {
    // The packet sat in `from`'s queue; blame the previous user of the
    // channel it ultimately took (chain depth is a lower bound for SF:
    // the culprit's own wait target is unknown until it closes).
    BlockedInterval interval;
    interval.first_cycle = r.hop_arrival;
    interval.last_cycle = cycle - 1;
    interval.waiting_lane = from;
    interval.culprit_lane = to;
    interval.culprit_worm = channel_last_user_[channel];
    interval.chain_depth =
        interval.culprit_worm != kNoWorm &&
                records_[interval.culprit_worm].blocked_open
            ? 2
            : 1;
    r.blocked.push_back(interval);
  }
  r.blocked_open = false;
  channel_last_user_[channel] = id;
}

void WormTracer::on_sf_delivered(WormId id, std::uint64_t cycle) {
  WormRecord& r = rec(id);
  r.deliver_cycle = cycle;
  r.blocked_open = false;
  r.queue_cycles = r.inject_cycle - r.create_cycle;
  r.routing_cycles = 0;  // no per-stage header arbitration in SF
  r.blocked_cycles = 0;
  for (const BlockedInterval& interval : r.blocked) {
    r.blocked_cycles += interval.cycles();
  }
  // Transfer time; equals hops x length by construction (cross-checked in
  // tests against the hop counter).
  r.streaming_cycles = (r.deliver_cycle - r.inject_cycle) - r.blocked_cycles;
}

WormTraceSummary summarize_worm_trace(const WormTracer& tracer,
                                      std::size_t top_n) {
  WormTraceSummary summary;
  summary.chain_depth_histogram.assign(WormTracer::kMaxChainDepth + 1, 0);
  // Same binning as the latency histogram: 20 cycles = 1 us, overflow
  // above 60k cycles (p95 reports +inf there, serialized as null).
  util::Histogram queue_hist(20.0, 3000);
  util::Histogram routing_hist(20.0, 3000);
  util::Histogram blocked_hist(20.0, 3000);
  util::Histogram streaming_hist(20.0, 3000);
  std::vector<std::uint64_t> lane_cycles;
  std::vector<std::uint64_t> lane_intervals;
  std::vector<std::uint64_t> worm_cycles;
  std::vector<std::uint64_t> worm_intervals;
  for (const WormRecord& r : tracer.records()) {
    if (!r.delivered()) {
      if (r.terminated()) {
        ++summary.terminated;
      } else {
        ++summary.unfinished;
      }
      continue;
    }
    ++summary.delivered;
    summary.starved_cycles_total += r.starved_cycles;
    summary.starved_worms += r.starved_cycles > 0;
    summary.queue_cycles.add(static_cast<double>(r.queue_cycles));
    summary.routing_cycles.add(static_cast<double>(r.routing_cycles));
    summary.blocked_cycles.add(static_cast<double>(r.blocked_cycles));
    summary.streaming_cycles.add(static_cast<double>(r.streaming_cycles));
    summary.total_cycles.add(static_cast<double>(r.total_cycles()));
    queue_hist.add(static_cast<double>(r.queue_cycles));
    routing_hist.add(static_cast<double>(r.routing_cycles));
    blocked_hist.add(static_cast<double>(r.blocked_cycles));
    streaming_hist.add(static_cast<double>(r.streaming_cycles));
    for (const BlockedInterval& interval : r.blocked) {
      ++summary.blocked_intervals;
      const std::uint32_t depth =
          std::min(interval.chain_depth, WormTracer::kMaxChainDepth);
      ++summary.chain_depth_histogram[depth];
      if (interval.culprit_lane != topology::kInvalidId) {
        if (lane_cycles.size() <= interval.culprit_lane) {
          lane_cycles.resize(interval.culprit_lane + 1, 0);
          lane_intervals.resize(interval.culprit_lane + 1, 0);
        }
        lane_cycles[interval.culprit_lane] += interval.cycles();
        ++lane_intervals[interval.culprit_lane];
      }
      if (interval.culprit_worm != kNoWorm) {
        if (worm_cycles.size() <= interval.culprit_worm) {
          worm_cycles.resize(interval.culprit_worm + 1, 0);
          worm_intervals.resize(interval.culprit_worm + 1, 0);
        }
        worm_cycles[interval.culprit_worm] += interval.cycles();
        ++worm_intervals[interval.culprit_worm];
      }
    }
  }
  summary.queue_p95_cycles = queue_hist.quantile(0.95);
  summary.routing_p95_cycles = routing_hist.quantile(0.95);
  summary.blocked_p95_cycles = blocked_hist.quantile(0.95);
  summary.streaming_p95_cycles = streaming_hist.quantile(0.95);
  while (!summary.chain_depth_histogram.empty() &&
         summary.chain_depth_histogram.back() == 0) {
    summary.chain_depth_histogram.pop_back();
  }

  for (LaneId lane = 0; lane < lane_cycles.size(); ++lane) {
    if (lane_cycles[lane] == 0) continue;
    summary.top_lanes.push_back(
        {lane, lane_cycles[lane], lane_intervals[lane]});
  }
  std::stable_sort(summary.top_lanes.begin(), summary.top_lanes.end(),
                   [](const WormTraceSummary::CulpritLane& a,
                      const WormTraceSummary::CulpritLane& b) {
                     return a.cycles > b.cycles;
                   });
  if (summary.top_lanes.size() > top_n) summary.top_lanes.resize(top_n);

  for (WormId worm = 0; worm < worm_cycles.size(); ++worm) {
    if (worm_cycles[worm] == 0) continue;
    summary.top_worms.push_back(
        {worm, worm_cycles[worm], worm_intervals[worm]});
  }
  std::stable_sort(summary.top_worms.begin(), summary.top_worms.end(),
                   [](const WormTraceSummary::CulpritWorm& a,
                      const WormTraceSummary::CulpritWorm& b) {
                     return a.cycles > b.cycles;
                   });
  if (summary.top_worms.size() > top_n) summary.top_worms.resize(top_n);

  const std::vector<std::uint64_t>& starved = tracer.lane_starved();
  for (LaneId lane = 0; lane < starved.size(); ++lane) {
    if (starved[lane] == 0) continue;
    summary.top_starved_lanes.push_back({lane, starved[lane]});
  }
  std::stable_sort(summary.top_starved_lanes.begin(),
                   summary.top_starved_lanes.end(),
                   [](const WormTraceSummary::StarvedLane& a,
                      const WormTraceSummary::StarvedLane& b) {
                     return a.cycles > b.cycles;
                   });
  if (summary.top_starved_lanes.size() > top_n) {
    summary.top_starved_lanes.resize(top_n);
  }
  return summary;
}

std::size_t write_worm_trace_chrome(const WormTracer& tracer,
                                    std::ostream& os) {
  const double scale = 1.0 / topology::kFlitsPerMicrosecond;
  JsonValue trace_events = JsonValue::array();
  std::size_t slices = 0;
  auto slice = [&](const std::string& name, const char* cat, WormId tid,
                   std::uint64_t first, std::uint64_t duration) {
    JsonValue event = JsonValue::object();
    event.set("name", name);
    event.set("cat", cat);
    event.set("ph", "X");
    event.set("ts", static_cast<double>(first) * scale);
    event.set("dur", static_cast<double>(duration) * scale);
    event.set("pid", 0);
    event.set("tid", static_cast<std::int64_t>(tid));
    ++slices;
    return event;
  };
  std::vector<WormId> shown;
  for (const WormRecord& r : tracer.records()) {
    if (!r.delivered()) continue;
    shown.push_back(r.id);

    // Lifetime slice [create, deliver]; children nest inside it.
    JsonValue lifetime = slice(
        "worm " + std::to_string(r.id) + " " + std::to_string(r.src) +
            "->" + std::to_string(r.dst) + " len " +
            std::to_string(r.length),
        "worm", r.id, r.create_cycle, r.total_cycles() + 1);
    JsonValue args = JsonValue::object();
    args.set("queue_cycles", r.queue_cycles);
    args.set("routing_cycles", r.routing_cycles);
    args.set("blocked_cycles", r.blocked_cycles);
    args.set("streaming_cycles", r.streaming_cycles);
    args.set("measured", r.measured);
    lifetime.set("args", std::move(args));
    trace_events.push_back(std::move(lifetime));

    if (r.queue_cycles > 0) {
      trace_events.push_back(
          slice("queue", "queue", r.id, r.create_cycle, r.queue_cycles));
    }
    for (std::size_t k = 0; k < r.stages.size(); ++k) {
      const StageSpan& stage = r.stages[k];
      // [arrive, grant]: the header's whole residence as an unrouted
      // header at this stage, denials and the grant cycle included.
      trace_events.push_back(slice(
          "stage " + std::to_string(k) + " @ lane " +
              std::to_string(stage.in_lane) + " -> " +
              std::to_string(stage.out_lane),
          "routing", r.id, stage.arrive_cycle,
          stage.grant_cycle - stage.arrive_cycle + 1));
    }
    for (const BlockedInterval& interval : r.blocked) {
      const std::string culprit =
          interval.credit_starved
              ? std::string("credit starvation")
              : interval.culprit_worm == kNoWorm
                    ? std::string("faulty lane")
                    : "worm " + std::to_string(interval.culprit_worm);
      trace_events.push_back(slice(
          "blocked on " + culprit + " @ lane " +
              std::to_string(interval.culprit_lane) + " (depth " +
              std::to_string(interval.chain_depth) + ")",
          "blocked", r.id, interval.first_cycle, interval.cycles()));
    }
    // Tail streaming after the last grant (wormhole) or after injection
    // for hop-wait-free SF packets; derived, but nice in the viewer.
    if (!r.stages.empty()) {
      const std::uint64_t last_grant = r.stages.back().grant_cycle;
      if (r.deliver_cycle > last_grant) {
        trace_events.push_back(slice("streaming", "streaming", r.id,
                                     last_grant + 1,
                                     r.deliver_cycle - last_grant));
      }
    }
  }

  JsonValue process = JsonValue::object();
  process.set("name", "process_name");
  process.set("ph", "M");
  process.set("pid", 0);
  JsonValue pargs = JsonValue::object();
  pargs.set("name", "worms");
  process.set("args", std::move(pargs));
  trace_events.push_back(std::move(process));
  for (WormId id : shown) {
    JsonValue thread = JsonValue::object();
    thread.set("name", "thread_name");
    thread.set("ph", "M");
    thread.set("pid", 0);
    thread.set("tid", static_cast<std::int64_t>(id));
    JsonValue targs = JsonValue::object();
    targs.set("name", "worm " + std::to_string(id));
    thread.set("args", std::move(targs));
    trace_events.push_back(std::move(thread));
  }

  JsonValue document = JsonValue::object();
  document.set("traceEvents", std::move(trace_events));
  document.set("displayTimeUnit", "ms");
  document.dump(os, /*indent=*/-1);
  return slices;
}

}  // namespace wormsim::telemetry
