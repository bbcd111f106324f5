// Fault-injection tests for the runtime invariant checkers
// (src/sim/validate.hpp).  Each test builds a healthy simulation, steps it
// until the interesting state exists, corrupts ONE piece of the engine's
// incrementally maintained bookkeeping through the test-peer backdoor (or
// hands the checker one bogus transfer or doctored result), and expects
// the matching checker to abort naming exactly that invariant.  The
// corruption happens inside the death-test child process, so the parent
// engine stays intact.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "experiment/figures.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "sim/validate.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim {

// Friend of Engine: hands tests references to the private incremental
// state so they can corrupt it, plus the validator to run a sweep on
// demand.
struct EngineTestPeer {
  static std::vector<topology::LaneId>& route_out(Engine& e) {
    return e.route_out_;
  }
  static std::vector<topology::LaneId>& alloc_owner(Engine& e) {
    return e.alloc_owner_;
  }
  static util::DenseBitset& header_bits(Engine& e) { return e.header_bits_; }
  static std::size_t header_count(const Engine& e) { return e.header_count_; }
  static util::DenseBitset& seed_bits(Engine& e) { return e.seed_bits_; }
  static util::DenseBitset& next_pass(Engine& e) { return e.next_pass_; }
  static std::vector<std::uint8_t>& tx_pending_flag(Engine& e) {
    return e.tx_pending_flag_;
  }
  static std::vector<PacketRecord>& packets(Engine& e) { return e.packets_; }
  static PacketId free_head(const Engine& e) { return e.free_head_; }
  static std::vector<std::uint32_t>& queue_length(Engine& e) {
    return e.queue_length_;
  }
  static std::uint64_t& delivered_flits_total(Engine& e) {
    return e.delivered_flits_total_;
  }
  static std::int64_t& occupied(Engine& e) { return e.occupied_; }
  static std::int64_t& worms_in_flight(Engine& e) {
    return e.worms_in_flight_;
  }
  static std::uint64_t cycle(const Engine& e) { return e.cycle_; }
  static FlowControlState& fc(Engine& e) { return e.fc_; }
  static util::DenseBitset& channel_faulty(Engine& e) {
    return e.channel_faulty_;
  }
  static bool& fault_applied(Engine& e) { return e.fault_state_.applied; }
  static std::vector<topology::LaneId>& switch_input_lanes(Engine& e) {
    return e.switch_input_lanes_;
  }
  static EngineValidator& validator(Engine& e) { return *e.validator_; }
  static void sleep_header(Engine& e, std::uint32_t pos) {
    e.sleep_header(pos);
  }
  static util::DenseBitset& sleep_bits(Engine& e) { return e.sleep_bits_; }
  static std::size_t& sleep_count(Engine& e) { return e.sleep_count_; }
  static std::vector<double>& node_next_arrival(Engine& e) {
    return e.node_next_arrival_;
  }
};

// Friend of StoreForwardEngine: same deal for the reference engine.
struct StoreForwardTestPeer {
  static std::int64_t& in_flight(StoreForwardEngine& e) {
    return e.in_flight_;
  }
  static std::int64_t& queued_packets(StoreForwardEngine& e) {
    return e.queued_packets_;
  }
  static std::vector<std::uint64_t>& channel_free_at(StoreForwardEngine& e) {
    return e.channel_free_at_;
  }
  static bool& lane_transmitting(StoreForwardEngine& e, topology::LaneId l) {
    return e.lanes_[l].transmitting;
  }
  static std::uint32_t& lane_incoming(StoreForwardEngine& e,
                                      topology::LaneId l) {
    return e.lanes_[l].incoming;
  }
  static StoreForwardValidator& validator(StoreForwardEngine& e) {
    return *e.validator_;
  }
};

namespace {

using topology::kInvalidId;
using topology::LaneId;
using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig net_config(NetworkKind kind, const std::string& topo,
                         unsigned k, unsigned n) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = topo;
  config.radix = k;
  config.stages = n;
  config.dilation = 1;
  config.vcs = 1;
  return config;
}

SimConfig validating_config() {
  SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 0;
  config.measure_cycles = 1'000'000;
  config.drain_cycles = 0;
  config.validate = true;
  return config;
}

/// A TMIN with one 8-flit worm stepped until it holds buffers and at
/// least one route, the state most corruptions need.
class EngineCorruption : public ::testing::Test {
 protected:
  EngineCorruption()
      : net_(topology::build_network(
            net_config(NetworkKind::kTMIN, "cube", 2, 3))),
        router_(routing::make_router(net_)),
        engine_(net_, *router_, nullptr, validating_config()) {
    pid_ = engine_.inject_message(0, 7, 8);
  }

  /// Steps until `pred()` holds (at most `limit` cycles); the worm is
  /// still in flight afterwards because it is much shorter than the path
  /// budget used by the predicates below.
  template <typename Pred>
  void step_until(Pred pred, int limit = 50) {
    for (int i = 0; i < limit && !pred(); ++i) engine_.step();
    ASSERT_TRUE(pred()) << "engine never reached the wanted state";
  }

  /// First switch-input lane buffering a flit (kInvalidId when none).
  LaneId buffered_lane() {
    const auto& count = EngineTestPeer::fc(engine_).count;
    for (LaneId lane = 0; lane < count.size(); ++lane) {
      if (count[lane] > 0) return lane;
    }
    return kInvalidId;
  }

  /// First input lane holding a granted route (kInvalidId when none).
  LaneId routed_lane() {
    const auto& route = EngineTestPeer::route_out(engine_);
    for (LaneId lane = 0; lane < route.size(); ++lane) {
      if (route[lane] != kInvalidId) return lane;
    }
    return kInvalidId;
  }

  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  /// Position in switch_input_lanes_ of the first unrouted header
  /// (kNoPos when none).
  std::size_t header_pos() {
    const auto& bits = EngineTestPeer::header_bits(engine_);
    const auto& lanes = EngineTestPeer::switch_input_lanes(engine_);
    for (std::size_t pos = 0; pos < lanes.size(); ++pos) {
      if (bits.test(pos)) return pos;
    }
    return kNoPos;
  }

  Network net_;
  std::unique_ptr<routing::Router> router_;
  Engine engine_;
  PacketId pid_ = kNoPacket;
};

TEST_F(EngineCorruption, LeakedFlitTripsFlitConservation) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        ++EngineTestPeer::occupied(engine_);
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'flit-conservation'.*occupancy counter");
}

TEST_F(EngineCorruption, WormCounterTripsWormConservation) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        --EngineTestPeer::worms_in_flight(engine_);
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'worm-conservation'.*counter says");
}

TEST_F(EngineCorruption, SeqBeyondLengthTripsWormContiguity) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        const LaneId lane = buffered_lane();
        FlowControlState& fc = EngineTestPeer::fc(engine_);
        fc.slot_seq[fc.slot(lane, 0)] = 1'000;
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'worm-contiguity'.*beyond packet");
}

TEST_F(EngineCorruption, StaleEpochStampCaught) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        const LaneId lane = buffered_lane();
        EngineTestPeer::fc(engine_).stamp[lane] =
            EngineTestPeer::cycle(engine_) + 7;
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'stale-epoch-stamp'.*ahead of the current cycle");
}

TEST_F(EngineCorruption, DoubleGrantedOutputCaught) {
  step_until([&] { return routed_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Point a second, idle input unit at an output some other input
        // already owns — the bug class route_and_allocate must never
        // produce.
        auto& route = EngineTestPeer::route_out(engine_);
        const LaneId in = routed_lane();
        for (LaneId other = 0; other < route.size(); ++other) {
          if (other != in && route[other] == kInvalidId) {
            route[other] = route[in];
            break;
          }
        }
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'lane-exclusivity'.*double-granted output");
}

TEST_F(EngineCorruption, WrongOutputPortTripsRoutingLegality) {
  // Wait for a route whose output is a forward channel (not the final
  // ejection hop) so the sibling right-side port exists and is simply the
  // wrong destination-tag digit.
  const auto forward_routed = [&]() -> LaneId {
    const auto& route = EngineTestPeer::route_out(engine_);
    for (LaneId in = 0; in < route.size(); ++in) {
      if (route[in] == kInvalidId || engine_.buffered_packet(in) == kNoPacket) {
        continue;
      }
      if (net_.lane_channel(route[in]).role ==
          topology::ChannelRole::kForward) {
        return in;
      }
    }
    return kInvalidId;
  };
  step_until([&] { return forward_routed() != kInvalidId; });
  EXPECT_DEATH(
      {
        auto& route = EngineTestPeer::route_out(engine_);
        auto& owner = EngineTestPeer::alloc_owner(engine_);
        const LaneId in = forward_routed();
        const LaneId good = route[in];
        const auto& good_ch = net_.lane_channel(good);
        // Rewire the grant (consistently, so lane-exclusivity stays
        // happy) onto the same switch's OTHER right-side port.
        for (LaneId bad = 0; bad < route.size(); ++bad) {
          const auto& ch = net_.lane_channel(bad);
          if (!ch.src.is_switch() || ch.src.id != good_ch.src.id) continue;
          if (ch.src.port == good_ch.src.port) continue;
          if (owner[bad] != kInvalidId) continue;
          owner[good] = kInvalidId;
          route[in] = bad;
          owner[bad] = in;
          break;
        }
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'routing-legality'.*destination-tag digit");
}

TEST_F(EngineCorruption, MissingHeaderEntryCaught) {
  step_until([&] { return EngineTestPeer::header_count(engine_) > 0; });
  EXPECT_DEATH(
      {
        // Drop one set bit from the header bitmap: the engine would never
        // arbitrate that header again.
        auto& bits = EngineTestPeer::header_bits(engine_);
        for (std::size_t pos = 0; pos < bits.size(); ++pos) {
          if (bits.test(pos)) {
            bits.clear(pos);
            break;
          }
        }
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'header-set'.*missing from header_lanes_");
}

TEST_F(EngineCorruption, DroppedSeedBitCaught) {
  // Wait until an ejection channel is allocated with a flit waiting:
  // that channel can certainly transmit next cycle (an ejecting lane
  // needs no downstream credit), so it must carry a seed bit.
  const auto ready_ejection = [&]() -> topology::ChannelId {
    const auto& route = EngineTestPeer::route_out(engine_);
    for (LaneId in = 0; in < route.size(); ++in) {
      if (route[in] == kInvalidId || engine_.buffered_packet(in) == kNoPacket) {
        continue;
      }
      const auto& ch = net_.lane_channel(route[in]);
      if (ch.dst.is_node()) return ch.id;
    }
    return kInvalidId;
  };
  step_until([&] { return ready_ejection() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Clear the scheduled channel's seed bit: the engine would
        // silently skip its move next cycle.
        EngineTestPeer::seed_bits(engine_).clear(ready_ejection());
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'event-frontier'.*not scheduled");
}

TEST_F(EngineCorruption, LeftoverAdvanceWorklistBitCaught) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // advance_pass() must drain both fixpoint worklists before the
        // cycle ends; a surviving bit would replay a move next cycle.
        EngineTestPeer::next_pass(engine_).set(0);
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'event-frontier'.*survived past the fixpoint");
}

TEST_F(EngineCorruption, UnlistedTxPendingFlagCaught) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Node 3 has nothing to send.  Flagging it pending without
        // listing it means mark_tx_pending() would never list it again,
        // so start_transmissions() would skip its next message forever.
        EngineTestPeer::tx_pending_flag(engine_)[3] = 1;
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'tx-pending'.*node 3 flagged pending but not listed");
}

TEST(BminCorruption, SkippedTurnTripsRoutingLegality) {
  // A 2-flit worm crossing a BMIN: once the tail has left the injection
  // lane and the header has not yet turned, every live route enters on a
  // forward channel.  Zeroing the packet's recorded turn stage then makes
  // each of them a worm sailing past its turnaround — the "skipped turn"
  // bug class.
  const Network net = topology::build_network(
      net_config(NetworkKind::kBMIN, "butterfly", 2, 3));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, validating_config());
  const PacketId pid = engine.inject_message(0, 7, 2);
  const auto routes_all_forward = [&] {
    const auto& route = EngineTestPeer::route_out(engine);
    bool any = false;
    for (LaneId in = 0; in < route.size(); ++in) {
      if (route[in] == kInvalidId) continue;
      if (net.lane_channel(in).role != topology::ChannelRole::kForward) {
        return false;
      }
      any = true;
    }
    return any;
  };
  for (int i = 0; i < 50 && !routes_all_forward(); ++i) engine.step();
  ASSERT_TRUE(routes_all_forward());
  EXPECT_DEATH(
      {
        EngineTestPeer::packets(engine)[pid].turn_stage = 0;
        EngineTestPeer::validator(engine).check_cycle_end();
      },
      "invariant 'routing-legality'.*skipped turn");
}

// ---- Flow-control corruptions ---------------------------------------------

TEST_F(EngineCorruption, LeakedCreditTripsCreditConservation) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        const LaneId lane = buffered_lane();
        ++EngineTestPeer::fc(engine_).credits[lane];
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'credit-conservation'.*!= depth");
}

TEST_F(EngineCorruption, OccupancyCounterTripsBufferBound) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Zero the fifo count under a lane whose head slot holds a flit —
        // the books now claim an empty buffer that demonstrably is not.
        const LaneId lane = buffered_lane();
        EngineTestPeer::fc(engine_).count[lane] = 0;
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'buffer-occupancy'.*disagrees with the head slot");
}

TEST_F(EngineCorruption, OverdueCreditEventCaught) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  ASSERT_GT(EngineTestPeer::cycle(engine_), 0u);
  EXPECT_DEATH(
      {
        // A credit whose due cycle already passed should have been
        // drained at the top of step(); finding one means the calendar
        // stopped advancing.
        EngineTestPeer::fc(engine_).events.push_back({0, 0, false});
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'credit-conservation'.*already overdue");
}

TEST_F(EngineCorruption, PhantomStarvationIntervalCaught) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Open a starvation interval on a lane that can plainly accept a
        // flit — the accounting would charge cycles nobody starved for.
        auto& fc = EngineTestPeer::fc(engine_);
        for (LaneId lane = 0; lane < fc.count.size(); ++lane) {
          if (fc.can_accept(lane)) {
            fc.starve_since[lane] = 0;
            break;
          }
        }
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'starvation-accounting'.*can accept a flit");
}

TEST_F(EngineCorruption, FlitsOnDeadChannelTripFaultQuiescence) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Declare the channel under the worm's buffered flit dead without
        // draining it — leaked kill state the quiescence sweep must catch.
        const LaneId lane = buffered_lane();
        EngineTestPeer::channel_faulty(engine_).set(net_.lane(lane).channel);
        EngineTestPeer::fault_applied(engine_) = true;
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'fault-quiescence'.*still buffers");
}

// ---- Packet records --------------------------------------------------------

TEST_F(EngineCorruption, FreedIdInFifoSlotTripsLiveRecord) {
  // A one-flit message delivered long before the 8-flit worm frees its
  // record; that worm's buffered flit then names the freed record, as if
  // a delivery or a kill had left a flit behind.
  engine_.inject_message(2, 5, 1);
  step_until([&] {
    return EngineTestPeer::free_head(engine_) != kNoPacket &&
           buffered_lane() != kInvalidId;
  });
  EXPECT_DEATH(
      {
        FlowControlState& fc = EngineTestPeer::fc(engine_);
        fc.slot_packet[fc.slot(buffered_lane(), 0)] =
            EngineTestPeer::free_head(engine_);
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'live-record'.*fifo slot 0 holds freed record");
}

TEST_F(EngineCorruption, UnheldRecordTripsLiveRecord) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // A record in use that no queue, transmit register or fifo holds
        // is never freed: the table would grow with run length again.
        PacketRecord leaked;
        leaked.length = 4;
        EngineTestPeer::packets(engine_).push_back(leaked);
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'live-record'.*no source queue, transmit register or "
      "fifo holds it");
}

TEST_F(EngineCorruption, SourceQueueBooksTripLiveRecord) {
  // Node 0 transmits the fixture's worm; these two wait behind it.
  engine_.inject_message(0, 3, 4);
  engine_.inject_message(0, 5, 4);
  step_until([&] { return buffered_lane() != kInvalidId; });
  ASSERT_EQ(engine_.source_queue_length(0), 2u);
  EXPECT_DEATH(
      {
        --EngineTestPeer::queue_length(engine_)[0];
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'live-record'.*node 0's source queue holds 2 records "
      "ending at [0-9]+ but its books say 1");
}

TEST_F(EngineCorruption, StarvedHeaderTripsFaultRoutability) {
  step_until([&] { return header_pos() != kNoPos; });
  EXPECT_DEATH(
      {
        // Kill every legal candidate ahead of an unrouted header but leave
        // the header parked.  The first sweep only flags the starved
        // (lane, packet) pair; the second must fail — serve() is required
        // to terminate fault-starved worms, never stall them.
        const std::size_t pos = header_pos();
        const LaneId lane = EngineTestPeer::switch_input_lanes(engine_)[pos];
        const PacketState& pkt = EngineTestPeer::packets(
            engine_)[EngineTestPeer::fc(engine_).front(lane)];
        routing::RouteQuery query;
        query.src = pkt.src;
        query.dst = pkt.dst;
        query.turn_stage = pkt.turn_stage;
        routing::CandidateList candidates;
        router_->candidates(query, lane, candidates);
        for (const LaneId c : candidates) {
          EngineTestPeer::channel_faulty(engine_).set(net_.lane(c).channel);
        }
        EngineTestPeer::fault_applied(engine_) = true;
        EngineTestPeer::validator(engine_).check_cycle_end();
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'fault-routability'.*two sweeps");
}

TEST(OnOffCorruption, StuckStopBitTripsLiveness) {
  const Network net = topology::build_network(
      net_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 0;
  config.measure_cycles = 1'000'000;
  config.drain_cycles = 0;
  config.validate = true;
  config.buffer_depth = 8;
  config.flow_control = FlowControlScheme::kOnOff;
  config.credit_delay = 2;
  Engine engine(net, *router, nullptr, config);
  engine.inject_message(0, 7, 8);
  for (int i = 0; i < 4; ++i) engine.step();
  EXPECT_DEATH(
      {
        // Stop an empty lane with no GO in flight: the sender would wait
        // forever on a resume signal nobody owes it.
        EngineTestPeer::fc(engine).stopped[0] = 1;
        EngineTestPeer::validator(engine).check_cycle_end();
      },
      "invariant 'onoff-liveness'.*no GO in flight");
}

TEST_F(EngineCorruption, SleeperWithFreeCandidateCaught) {
  step_until([&] { return header_pos() != kNoPos; });
  EXPECT_DEATH(
      {
        // On an otherwise idle network the lone header's output is free:
        // asleep, it would never claim it.
        EngineTestPeer::sleep_header(engine_,
                                     static_cast<std::uint32_t>(header_pos()));
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'header-sleep'.*sleeps with candidate lane [0-9]+ free");
}

TEST_F(EngineCorruption, UnlinkedSleeperCaught) {
  step_until([&] { return header_pos() != kNoPos; });
  EXPECT_DEATH(
      {
        // A sleep bit with no list entry: no release would ever wake it.
        EngineTestPeer::sleep_bits(engine_).set(header_pos());
        ++EngineTestPeer::sleep_count(engine_);
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'header-sleep'.*missing from switch [0-9]+'s sleep list");
}

TEST(CalendarCorruption, MisfiledArrivalCaught) {
  const Network net = topology::build_network(
      net_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.3;
  workload.length = traffic::LengthSpec::fixed(8);
  traffic::StandardTraffic traffic(net, workload);
  Engine engine(net, *router, &traffic, validating_config());
  for (int i = 0; i < 40; ++i) engine.step();
  EXPECT_DEATH(
      {
        // Node 3's next arrival moves a cycle later but the node stays in
        // its old bucket: the wheel would find it not yet due there and
        // leave it a whole round.
        EngineTestPeer::node_next_arrival(engine)[3] += 1.0;
        EngineTestPeer::validator(engine).check_cycle_end();
      },
      "invariant 'arrival-calendar'.*node 3 sits in bucket [0-9]+ but its "
      "next arrival fires at cycle");
}

TEST(FifoCorruption, ReorderedSlotTripsFifoOrder) {
  // Two 16-flit worms from the same first-stage switch to the same
  // destination: the loser waits for the shared output, and flits of one
  // worm stack up in its 4-deep fifos.
  const Network net = topology::build_network(
      net_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  SimConfig config = validating_config();
  config.buffer_depth = 4;
  Engine engine(net, *router, nullptr, config);
  engine.inject_message(0, 7, 16);
  engine.inject_message(1, 7, 16);
  const FlowControlState& fc = engine.flow_control();
  // First lane whose first two fifo slots hold one worm.
  const auto stacked_lane = [&]() -> LaneId {
    for (LaneId lane = 0; lane < fc.count.size(); ++lane) {
      if (fc.count[lane] >= 2 &&
          fc.slot_packet[fc.slot(lane, 1)] == fc.front(lane)) {
        return lane;
      }
    }
    return kInvalidId;
  };
  for (int i = 0; i < 50 && stacked_lane() == kInvalidId; ++i) engine.step();
  ASSERT_NE(stacked_lane(), kInvalidId);
  EXPECT_DEATH(
      {
        // Swap the front flit with the one queued behind it.  The worm
        // still holds the same seqs, so only the fifo order is wrong.
        const LaneId lane = stacked_lane();
        FlowControlState& state = EngineTestPeer::fc(engine);
        std::swap(state.slot_seq[state.slot(lane, 0)],
                  state.slot_seq[state.slot(lane, 1)]);
        EngineTestPeer::validator(engine).check_cycle_end();
      },
      "invariant 'fifo-order'.*does not follow");
}

// ---- End-of-run reconciliation --------------------------------------------

/// A short validated run with counters on.  Two 8-flit worms are delivered
/// inside the measurement window, and run() has already reconciled the
/// result once.  Each test doctors one field of a copy of that result.
class FinalCorruption : public ::testing::Test {
 protected:
  FinalCorruption()
      : net_(topology::build_network(
            net_config(NetworkKind::kTMIN, "cube", 2, 3))),
        router_(routing::make_router(net_)),
        engine_(net_, *router_, nullptr, config()) {
    engine_.inject_message(0, 7, 8);
    engine_.inject_message(3, 4, 8);
    result_ = engine_.run();
  }

  static SimConfig config() {
    SimConfig config = validating_config();
    config.measure_cycles = 400;
    config.drain_cycles = 100;
    config.telemetry.counters = true;
    return config;
  }

  Network net_;
  std::unique_ptr<routing::Router> router_;
  Engine engine_;
  SimResult result_;
};

TEST_F(FinalCorruption, DeliveryCountTripsResultReconcile) {
  ASSERT_EQ(result_.delivered_messages_total, 2u);
  EXPECT_DEATH(
      {
        SimResult doctored = result_;
        ++doctored.delivered_messages_total;
        EngineTestPeer::validator(engine_).check_final(doctored);
      },
      "invariant 'result-reconcile'.*2 packets delivered but the result "
      "says 3");
}

TEST_F(FinalCorruption, DroppedCountTripsResultReconcile) {
  EXPECT_DEATH(
      {
        SimResult doctored = result_;
        ++doctored.dropped_messages;
        EngineTestPeer::validator(engine_).check_final(doctored);
      },
      "invariant 'result-reconcile'.*0 packets dropped but the result says "
      "1");
}

// The flit recount is built from the records and the retirement tallies,
// so a wrong engine total cannot vouch for itself.
TEST_F(FinalCorruption, FlitTotalTripsFlitConservation) {
  EXPECT_DEATH(
      {
        ++EngineTestPeer::delivered_flits_total(engine_);
        EngineTestPeer::validator(engine_).check_final(result_);
      },
      "invariant 'flit-conservation'.*recount delivers 16 flits but the "
      "engine counted 17");
}

TEST_F(FinalCorruption, EjectionCounterTripsTelemetryReconcile) {
  ASSERT_EQ(result_.delivered_flits_in_window, 16u);
  EXPECT_DEATH(
      {
        // One extra crossing on the first ejection lane: the per-lane
        // counters no longer add up to the window's deliveries.
        SimResult doctored = result_;
        for (LaneId lane = 0; lane < net_.lane_count(); ++lane) {
          if (net_.lane_channel(lane).dst.is_node()) {
            ++doctored.telemetry_counters.lane_flits[lane];
            break;
          }
        }
        EngineTestPeer::validator(engine_).check_final(doctored);
      },
      "invariant 'telemetry-reconcile'.*counted 17 flit crossings but the "
      "window delivered 16");
}

// ---- Store-and-forward corruptions ----------------------------------------

SimConfig sf_validating_config() {
  SimConfig config;
  config.seed = 11;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 20;
  config.drain_cycles = 0;
  config.validate = true;
  return config;
}

class StoreForwardCorruption : public ::testing::Test {
 protected:
  StoreForwardCorruption()
      : net_(topology::build_network(
            net_config(NetworkKind::kTMIN, "cube", 2, 3))),
        router_(routing::make_router(net_)),
        engine_(net_, *router_, nullptr, sf_validating_config()) {
    // Queues the packet and starts its first transfer immediately.
    engine_.inject_message(0, 7, 4);
  }

  Network net_;
  std::unique_ptr<routing::Router> router_;
  StoreForwardEngine engine_;
};

TEST_F(StoreForwardCorruption, QueueCounterCaught) {
  EXPECT_DEATH(
      {
        ++StoreForwardTestPeer::queued_packets(engine_);
        StoreForwardTestPeer::validator(engine_).check_event_end();
      },
      "invariant 'sf-conservation'.*counter says");
}

TEST_F(StoreForwardCorruption, InFlightCounterCaught) {
  EXPECT_DEATH(
      {
        ++StoreForwardTestPeer::in_flight(engine_);
        StoreForwardTestPeer::validator(engine_).check_event_end();
      },
      "invariant 'sf-transfer-accounting'.*transfers active");
}

TEST_F(StoreForwardCorruption, PhantomBusyChannelCaught) {
  EXPECT_DEATH(
      {
        // Mark an unused channel busy far into the future with no
        // transfer to back it up.
        const topology::ChannelId idle = net_.injection_channel(1);
        StoreForwardTestPeer::channel_free_at(engine_)[idle] =
            engine_.now() + 100;
        StoreForwardTestPeer::validator(engine_).check_event_end();
      },
      "invariant 'sf-channel-accounting'.*marked busy");
}

TEST_F(StoreForwardCorruption, PhantomTransmitFlagCaught) {
  EXPECT_DEATH(
      {
        StoreForwardTestPeer::lane_transmitting(engine_, 0) = true;
        StoreForwardTestPeer::validator(engine_).check_event_end();
      },
      "invariant 'sf-transfer-accounting'.*transmit flag");
}

TEST_F(StoreForwardCorruption, OverfullLaneBufferCaught) {
  EXPECT_DEATH(
      {
        // Reserve two slots in node 1's idle one-packet injection buffer.
        const LaneId lane =
            net_.channel(net_.injection_channel(1)).first_lane;
        StoreForwardTestPeer::lane_incoming(engine_, lane) = 2;
        StoreForwardTestPeer::validator(engine_).check_event_end();
      },
      "invariant 'sf-buffer-overflow'.*exceed the 1-packet buffer");
}

TEST_F(StoreForwardCorruption, OverlappingTransferTripsChannelExclusivity) {
  EXPECT_DEATH(
      {
        // Start packet 0 across node 0's link a second time while its
        // first transfer still holds the wires.
        const LaneId lane =
            net_.channel(net_.injection_channel(0)).first_lane;
        StoreForwardTestPeer::validator(engine_).on_transfer_start(
            0, kInvalidId, lane);
      },
      "invariant 'sf-channel-exclusivity'.*busy until");
}

TEST_F(StoreForwardCorruption, UnqueuedPacketTransferTripsQueueOrder) {
  // The packet exists but only enters node 1's queue at time 100.
  const PacketId later = engine_.inject_message(1, 6, 4, /*when=*/100);
  EXPECT_DEATH(
      {
        const LaneId lane =
            net_.channel(net_.injection_channel(1)).first_lane;
        StoreForwardTestPeer::validator(engine_).on_transfer_start(
            later, kInvalidId, lane);
      },
      "invariant 'sf-queue-order'.*not its idle queue head");
}

TEST_F(StoreForwardCorruption, DeliveryCountTripsResultReconcile) {
  ASSERT_TRUE(engine_.run_until_idle(1'000));
  EXPECT_DEATH(
      {
        // The packet was delivered; a result claiming none must not pass.
        StoreForwardTestPeer::validator(engine_).check_final(SimResult{});
      },
      "invariant 'result-reconcile'.*1 packets delivered but the result "
      "says 0");
}

// The validator must be a pure observer: the same run with and without it
// produces bit-identical results (the golden-digest guarantee).
TEST(Validation, ValidatedRunMatchesUnvalidatedRun) {
  const Network net = topology::build_network(
      net_config(NetworkKind::kBMIN, "butterfly", 2, 3));
  const auto router = routing::make_router(net);
  SimConfig plain = validating_config();
  plain.validate = false;
  SimConfig checked = validating_config();

  Engine a(net, *router, nullptr, plain);
  Engine b(net, *router, nullptr, checked);
  RecordingTraceSink sink_a;
  RecordingTraceSink sink_b;
  a.set_trace_sink(&sink_a);
  b.set_trace_sink(&sink_b);
  for (Engine* e : {&a, &b}) {
    e->inject_message(0, 7, 16);
    e->inject_message(3, 4, 16);
    e->inject_message(5, 2, 16);
    EXPECT_TRUE(e->run_until_idle(10'000));
  }
  ASSERT_EQ(a.packet_count(), b.packet_count());
  for (PacketId id = 0; id < 3; ++id) {
    EXPECT_TRUE(sink_a.timeline(id).was_delivered());
    EXPECT_EQ(sink_a.timeline(id).delivered, sink_b.timeline(id).delivered);
  }
  EXPECT_GT(EngineTestPeer::validator(b).sweeps_run(), 0u);
}

// Regression: with an empty input lane, routing-legality judged the HEAD
// of the output FIFO, which with deep buffers can be an earlier worm's
// tail from another input.  This run aborted at cycle 2583.
TEST(Validation, DeepBufferBminRunIsClean) {
  NetworkConfig config = net_config(NetworkKind::kBMIN, "cube", 2, 3);
  config.dilation = 2;
  config.vcs = 2;
  const Network net = topology::build_network(config);
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.45;
  workload.length = traffic::LengthSpec::uniform(4, 64);
  traffic::StandardTraffic traffic(net, workload);
  SimConfig sim;
  sim.seed = 7;
  sim.warmup_cycles = 500;
  sim.measure_cycles = 4'000;
  sim.drain_cycles = 1'500;
  sim.flow_control = FlowControlScheme::kVirtualCutThrough;
  sim.buffer_depth = 64;
  sim.credit_delay = 2;
  sim.validate = true;
  Engine engine(net, *router, &traffic, sim);
  const SimResult result = engine.run();
  EXPECT_GT(result.delivered_messages_total, 0u);
}

// The paper's single-lane networks with long worms (the default 8-1024
// flit lengths) under every invariant: these take the one-pass worm chase
// and the direct body-flit moves, whose seeding rule the event-frontier
// invariant checks.
TEST(Validation, LongWormSingleLaneRunsAreClean) {
  for (const NetworkConfig& config :
       {experiment::tmin_config(), experiment::dmin_config(),
        experiment::bmin_config()}) {
    SCOPED_TRACE(topology::to_string(config.kind));
    const Network net = topology::build_network(config);
    const auto router = routing::make_router(net);
    traffic::WorkloadSpec workload;
    workload.offered = 0.6;
    traffic::StandardTraffic traffic(net, workload);
    SimConfig sim;
    sim.seed = 1;
    sim.warmup_cycles = 500;
    sim.measure_cycles = 2'000;
    sim.drain_cycles = 500;
    sim.validate = true;
    Engine engine(net, *router, &traffic, sim);
    const SimResult result = engine.run();
    EXPECT_GT(result.delivered_messages_total, 0u);
  }
}

// Regression: a fault kill stopped the worm's source before collecting
// the routes it held, and chain_worm traces a chain of empty lanes (the
// credit bubbles between flits under credit delay) back to the source.
// Routes reachable only that way were never released, so the dead lane
// stayed allocated: 'fault-quiescence' at cycle 503, lane 191.
TEST(Validation, FaultKillWithDelayedCreditsReleasesEveryRoute) {
  const Network net = topology::build_network(experiment::tmin_config());
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.5;
  traffic::StandardTraffic traffic(net, workload);
  SimConfig sim;
  sim.seed = 1;
  sim.warmup_cycles = 500;
  sim.measure_cycles = 100;
  sim.drain_cycles = 0;
  sim.credit_delay = 2;
  sim.fault_fraction = 0.1;
  sim.fault_at_cycle = 500;
  sim.validate = true;
  Engine engine(net, *router, &traffic, sim);
  const SimResult result = engine.run();
  EXPECT_GT(result.terminated_messages, 0u);
}

}  // namespace
}  // namespace wormsim::sim
