// Per-worm lifecycle tracing with blocked-time attribution.
//
// The counters of telemetry/counters.hpp say how much blocking each lane
// saw; this layer says *why a given worm was slow*.  For every message it
// records a lifecycle span decomposed into four disjoint components that
// sum exactly to the end-to-end latency (pinned by the reconciliation
// test in tests/worm_trace_test.cpp):
//
//   queue      create -> injection of the header (source FCFS wait).
//   routing    one cycle per stage: the arbitration cycle that granted the
//              header its output lane (at zero load this is the pipeline
//              fill, path_length cycles).
//   blocked    arbitration cycles that *denied* the header, each interval
//              attributed to the candidate lane it waited on and the worm
//              holding that lane at the time (who-blocks-whom).
//   streaming  everything else between injection and tail delivery: body
//              flits pipelining behind the header and any flit-level
//              round-robin waits on shared physical channels.
//
// Attribution semantics (DESIGN.md section 10): a denied header may have
// several busy candidate lanes; the interval pins the *first* busy one in
// candidate order as the culprit.  Chain depth is 1 + the culprit worm's
// own open-interval depth at the moment the interval opens (a snapshot,
// walked with a cycle guard), giving the blocking-chain-depth histogram
// the wormhole literature reasons about.
//
// The store-and-forward engine reuses the same record shape: `routing` is
// 0 (no per-stage header arbitration), `blocked` covers per-hop queue
// waits (culprit = previous user of the channel finally taken), and
// `streaming` is the hops x length transfer time — again summing exactly.
//
// Engine integration mirrors the other telemetry hooks: every call is
// gated on a null pointer, so a trace-off run pays one predictable branch
// per hook site, and the tracer draws no randomness and never feeds back
// into the engine — golden digests are bitwise identical either way
// (regression-tested).  Enable via TelemetryConfig::worm_trace, which
// defaults to WORMSIM_TRACE.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "topology/network.hpp"
#include "util/stats.hpp"

namespace wormsim::telemetry {

/// Engine packet id (sim::PacketId without the layering inversion —
/// telemetry must not include sim headers).
using WormId = std::uint32_t;
inline constexpr WormId kNoWorm = topology::kInvalidId;
inline constexpr std::uint64_t kNoTraceCycle = ~std::uint64_t{0};

/// One maximal run of cycles a worm spent denied (wormhole: arbitration
/// denials; store-and-forward: waiting in a hop queue), pinned on one
/// culprit.  A change of culprit closes the interval and opens a new one.
struct BlockedInterval {
  std::uint64_t first_cycle = 0;
  std::uint64_t last_cycle = 0;  ///< inclusive
  topology::LaneId waiting_lane = topology::kInvalidId;  ///< where it sat
  topology::LaneId culprit_lane = topology::kInvalidId;  ///< lane waited on
  /// Holder of culprit_lane when the interval opened; kNoWorm only when
  /// every candidate lane was faulty (no worm to blame).
  WormId culprit_worm = kNoWorm;
  /// 1 = culprit was advancing; n = culprit was itself blocked on a chain
  /// of n-1 more worms when this interval opened (snapshot, capped).
  std::uint32_t chain_depth = 1;
  /// The culprit lane was gated by flow control while its downstream FIFO
  /// had space (credit still in flight / on-off pause) — the header was
  /// credit-starved, not contending with a worm occupying the lane.
  bool credit_starved = false;

  std::uint64_t cycles() const { return last_cycle - first_cycle + 1; }
};

/// Header progress through one switch stage (wormhole only).
struct StageSpan {
  topology::LaneId in_lane = topology::kInvalidId;
  topology::LaneId out_lane = topology::kInvalidId;  ///< granted lane
  std::uint64_t arrive_cycle = 0;  ///< header buffered at in_lane
  std::uint64_t grant_cycle = kNoTraceCycle;
  std::uint64_t blocked_cycles = 0;  ///< denials at this stage

  bool granted() const { return grant_cycle != kNoTraceCycle; }
};

/// Full lifecycle of one message.
struct WormRecord {
  WormId id = kNoWorm;
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint32_t length = 0;  ///< flits (store-and-forward: packet length)
  bool measured = false;
  std::uint64_t create_cycle = 0;
  std::uint64_t inject_cycle = kNoTraceCycle;
  std::uint64_t deliver_cycle = kNoTraceCycle;
  /// Cycle a runtime fault kill truncated this worm (DESIGN.md §14);
  /// kNoTraceCycle unless fault-terminated.
  std::uint64_t terminate_cycle = kNoTraceCycle;
  std::vector<StageSpan> stages;          ///< wormhole; empty for SF
  std::vector<BlockedInterval> blocked;   ///< culprit-attributed waits
  std::uint32_t hops = 0;                 ///< SF transfers; 0 for wormhole

  // Decomposition, filled at delivery; the four components sum exactly to
  // deliver_cycle - create_cycle (reconciliation-tested).
  std::uint64_t queue_cycles = 0;
  std::uint64_t routing_cycles = 0;
  std::uint64_t blocked_cycles = 0;
  std::uint64_t streaming_cycles = 0;
  /// Cycles this worm's body sat flow-control-gated while the downstream
  /// FIFO had space (credit starvation).  A *sub-attribution* overlapping
  /// the four components above (those already cover the wall clock), not
  /// a fifth summand; zero in the legacy depth-1 / delay-0 configuration.
  std::uint64_t starved_cycles = 0;

  bool injected() const { return inject_cycle != kNoTraceCycle; }
  bool delivered() const { return deliver_cycle != kNoTraceCycle; }
  bool terminated() const { return terminate_cycle != kNoTraceCycle; }
  std::uint64_t total_cycles() const { return deliver_cycle - create_cycle; }

  // Tracer scratch (meaningful only while the worm is in flight).
  bool blocked_open = false;      ///< last interval still extending
  std::uint64_t hop_arrival = 0;  ///< SF: arrival time at current hop
};

/// Aggregated decomposition over delivered worms (summarize()).
struct WormTraceSummary {
  std::uint64_t delivered = 0;
  std::uint64_t unfinished = 0;   ///< created but neither delivered
                                  ///< nor fault-terminated
  std::uint64_t terminated = 0;   ///< killed by runtime fault injection
  util::OnlineStats queue_cycles;
  util::OnlineStats routing_cycles;
  util::OnlineStats blocked_cycles;
  util::OnlineStats streaming_cycles;
  util::OnlineStats total_cycles;
  double queue_p95_cycles = 0.0;      ///< +inf when above histogram range
  double routing_p95_cycles = 0.0;
  double blocked_p95_cycles = 0.0;
  double streaming_p95_cycles = 0.0;
  std::uint64_t blocked_intervals = 0;
  /// chain_depth_histogram[d] = intervals opened at chain depth d
  /// (index 0 unused; depth capped at kMaxChainDepth).
  std::vector<std::uint64_t> chain_depth_histogram;

  struct CulpritLane {
    topology::LaneId lane = topology::kInvalidId;
    std::uint64_t cycles = 0;     ///< blocked cycles attributed to it
    std::uint64_t intervals = 0;
  };
  struct CulpritWorm {
    WormId worm = kNoWorm;
    std::uint64_t cycles = 0;
    std::uint64_t intervals = 0;
  };
  std::vector<CulpritLane> top_lanes;  ///< sorted by cycles desc
  std::vector<CulpritWorm> top_worms;

  // Credit-starvation view (all zero / empty unless deeper buffers or a
  // credit delay are configured — starvation cannot occur in the legacy
  // model, and the JSON emitter omits the whole section then).
  std::uint64_t starved_cycles_total = 0;  ///< over delivered worms
  std::uint64_t starved_worms = 0;         ///< delivered worms with any
  struct StarvedLane {
    topology::LaneId lane = topology::kInvalidId;
    std::uint64_t cycles = 0;  ///< starved cycles charged to this lane
  };
  std::vector<StarvedLane> top_starved_lanes;  ///< sorted by cycles desc
};

/// Records per-worm lifecycles from engine hook calls.  One tracer per
/// engine run; not thread-safe (each engine owns its tracer).
class WormTracer {
 public:
  /// Chain-depth walks and the histogram cap out here; deeper chains are
  /// reported as kMaxChainDepth (also guards pathological culprit cycles
  /// that one-edge-per-worm attribution can form under adaptive routing).
  static constexpr std::uint32_t kMaxChainDepth = 64;

  WormTracer(std::size_t lane_count, std::size_t channel_count);

  // ---- Wormhole engine hooks -----------------------------------------
  void on_created(WormId id, std::uint64_t cycle, std::uint64_t src,
                  std::uint64_t dst, std::uint32_t length, bool measured);
  void on_injected(WormId id, std::uint64_t cycle);
  /// Header flit buffered at a switch input lane (a new stage begins).
  void on_header_arrival(WormId id, topology::LaneId in_lane,
                         std::uint64_t cycle);
  /// Arbitration denied the header this cycle; culprit_lane is the first
  /// busy candidate (kInvalidId never happens: an all-faulty candidate set
  /// still names the first faulty lane, with culprit worm kNoWorm).
  /// credit_starved marks denials whose culprit lane was flow-control
  /// gated with buffer space free (virtual cut-through's whole-packet
  /// grant gate) rather than occupied by another worm.
  void on_blocked(WormId id, topology::LaneId in_lane,
                  topology::LaneId culprit_lane, std::uint64_t cycle,
                  bool credit_starved = false);
  /// The header's open blocked interval, last extended at cycle
  /// first - 1, runs on through `last`: the denials of cycles [first,
  /// last], which the engine skipped while the header slept and charges
  /// in one call.  Each would have named the same culprit, so on_blocked
  /// would only have extended the interval.
  void extend_blocked(WormId id, std::uint64_t first, std::uint64_t last);
  /// Arbitration granted out_lane; the worm holds it until tail crossing.
  void on_granted(WormId id, topology::LaneId in_lane,
                  topology::LaneId out_lane, std::uint64_t cycle);
  /// Tail crossed out_lane: the allocation (and holder) is released.
  void on_lane_released(topology::LaneId out_lane);
  void on_delivered(WormId id, std::uint64_t cycle);
  /// Runtime fault kill truncated the worm: closes any open blocked
  /// interval and stamps the termination (the worm never delivers — its
  /// attribution is "fault-terminated", distinct from contention and
  /// credit starvation).  The engine releases the worm's lanes through
  /// the usual on_lane_released calls.
  void on_terminated(WormId id, std::uint64_t cycle);
  /// A closed credit-starvation interval: worm `id`'s body spent `cycles`
  /// flow-control gated at `lane` while the downstream FIFO had space.
  /// Called once per interval when the gate lifts (id may be kNoWorm if
  /// the sending lane had no allocation to attribute).
  void on_credit_starved(WormId id, topology::LaneId lane,
                         std::uint64_t cycles);

  // ---- Store-and-forward engine hooks --------------------------------
  /// Measured flag is only known when the packet actually enqueues.
  void set_measured(WormId id, bool measured);
  /// Whole packet received into a hop queue (starts the hop wait clock).
  void on_sf_hop_arrival(WormId id, topology::LaneId lane,
                         std::uint64_t cycle);
  /// Transfer started onto `to` over `channel`; from == kInvalidId means
  /// leaving the source node (closes the source-queue wait).
  void on_sf_transfer_start(WormId id, topology::LaneId from,
                            topology::LaneId to, topology::ChannelId channel,
                            std::uint64_t cycle);
  void on_sf_delivered(WormId id, std::uint64_t cycle);

  // ---- Results --------------------------------------------------------
  const std::vector<WormRecord>& records() const { return records_; }
  const WormRecord& record(WormId id) const { return records_.at(id); }
  /// Current holder of an output lane (kNoWorm when free); exposed for
  /// tests.
  WormId lane_holder(topology::LaneId lane) const {
    return lane_holder_.at(lane);
  }
  /// Starved cycles charged per lane (the lane whose credits ran dry).
  const std::vector<std::uint64_t>& lane_starved() const {
    return lane_starved_;
  }

 private:
  std::uint32_t open_chain_depth(WormId culprit) const;
  WormRecord& rec(WormId id) { return records_[id]; }

  std::vector<WormRecord> records_;           // indexed by WormId
  std::vector<WormId> lane_holder_;           // wormhole lane allocation
  std::vector<WormId> channel_last_user_;     // SF: previous transfer owner
  std::vector<std::uint64_t> lane_starved_;   // starved cycles per lane
};

/// Aggregates delivered records into component stats, p95s, the
/// chain-depth histogram, and the top-N culprit lanes/worms.
WormTraceSummary summarize_worm_trace(const WormTracer& tracer,
                                      std::size_t top_n = 8);

struct WormChromeOptions {
  bool metadata = true;
  /// Worms spanning fewer cycles than this are dropped (keeps figure-point
  /// traces loadable in the Perfetto UI); 0 keeps everything.
  std::uint64_t min_total_cycles = 0;
};

/// Chrome-trace (Perfetto) export: one thread track per worm under a
/// single "worms" process, with a lifetime slice, a queue slice, per-stage
/// routing-wait slices, and one slice per blocked interval named after its
/// culprit ("blocked on worm W @ lane L").  Returns slices emitted.
std::size_t write_worm_trace_chrome(const WormTracer& tracer,
                                    std::ostream& os,
                                    const WormChromeOptions& options = {});

}  // namespace wormsim::telemetry
