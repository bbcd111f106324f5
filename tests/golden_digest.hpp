// The golden digest the engine tests pin results with.
//
// digest() is FNV-1a over the exact bit patterns of a SimResult: latency
// statistics, histogram bins, window counts, and, when a run collects
// them, each channel's busy cycles (its flit crossings, summed over its
// lanes on the run's network), the telemetry counters and the samples.
// A run with counters and sampling off hashes only the fields before
// them.  kCases are the pinned configurations and kExpected their
// committed digests (engine_golden.inc; golden_test.cpp has the
// regeneration recipe).  golden_network and golden_workload build the
// 8-node networks and the traffic every case runs on.
#pragma once

#include <cstdint>
#include <cstring>

#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "topology/net_view.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"
#include "util/stats.hpp"

namespace wormsim::sim {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void stats(const util::OnlineStats& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
    f64(s.min());
    f64(s.max());
  }
};

inline std::uint64_t digest(const SimResult& r,
                            const topology::NetView& view) {
  Fnv f;
  f.stats(r.latency_cycles);
  f.stats(r.network_latency_cycles);
  f.stats(r.queueing_cycles);
  f.u64(r.latency_histogram.total());
  for (std::size_t i = 0; i <= r.latency_histogram.bin_count(); ++i) {
    f.u64(r.latency_histogram.bin(i));
  }
  f.u64(r.delivered_flits_in_window);
  f.u64(r.generated_messages_in_window);
  f.u64(r.generated_flits_in_window);
  f.u64(r.delivered_messages_total);
  f.u64(r.dropped_messages);
  f.u64(r.max_source_queue);
  f.u64(r.measured_messages_unfinished);
  if (r.telemetry_counters.enabled()) {
    for (topology::ChannelId ch = 0; ch < view.channel_count(); ++ch) {
      f.u64(r.telemetry_counters.channel_flits(view, ch));
    }
  }
  for (std::uint64_t v : r.telemetry_counters.lane_flits) f.u64(v);
  for (std::uint64_t v : r.telemetry_counters.lane_blocked) f.u64(v);
  for (std::uint64_t v : r.telemetry_counters.switch_grants) f.u64(v);
  for (std::uint64_t v : r.telemetry_counters.switch_denials) f.u64(v);
  for (const telemetry::Sample& s : r.telemetry_samples) {
    f.u64(s.cycle);
    f.u64(s.delivered_flits);
    f.u64(static_cast<std::uint64_t>(s.flits_in_flight));
    f.u64(static_cast<std::uint64_t>(s.worms_in_flight));
    f.f64(s.mean_queue_depth);
  }
  return f.h;
}

struct GoldenCase {
  const char* name;
  topology::NetworkKind kind;
  ArbitrationOrder arbitration;
  bool store_forward;
  unsigned vcs = 2;
  std::uint32_t buffer_depth = 1;
  std::uint32_t credit_delay = 0;
};

inline constexpr GoldenCase kCases[] = {
    {"TMIN", topology::NetworkKind::kTMIN, ArbitrationOrder::kRotating, false},
    {"DMIN", topology::NetworkKind::kDMIN, ArbitrationOrder::kRotating, false},
    {"VMIN", topology::NetworkKind::kVMIN, ArbitrationOrder::kRotating, false},
    {"BMIN", topology::NetworkKind::kBMIN, ArbitrationOrder::kRotating, false},
    {"TMIN_rand_arb", topology::NetworkKind::kTMIN, ArbitrationOrder::kRandom,
     false},
    {"BMIN_1vc", topology::NetworkKind::kBMIN, ArbitrationOrder::kRotating,
     false, 1},
    {"BMIN_vc_deep", topology::NetworkKind::kBMIN,
     ArbitrationOrder::kRotating, false, 2, 4, 2},
    {"SF_TMIN", topology::NetworkKind::kTMIN, ArbitrationOrder::kRotating,
     true},
    {"SF_BMIN", topology::NetworkKind::kBMIN, ArbitrationOrder::kRotating,
     true},
};

struct GoldenExpect {
  const char* name;
  std::uint64_t digest;
  std::uint64_t delivered_messages_total;
  std::uint64_t latency_mean_bits;  ///< bit pattern of latency_cycles.mean()
};

inline constexpr GoldenExpect kExpected[] = {
#include "engine_golden.inc"
};

inline topology::NetworkConfig golden_network(topology::NetworkKind kind,
                                              unsigned vcs = 2) {
  topology::NetworkConfig config;
  config.kind = kind;
  config.topology = "cube";
  config.radix = 2;
  config.stages = 3;
  config.dilation = 2;
  config.vcs = vcs;
  return config;
}

inline traffic::WorkloadSpec golden_workload() {
  traffic::WorkloadSpec workload;
  workload.offered = 0.45;
  workload.length = traffic::LengthSpec::uniform(4, 64);
  return workload;
}

}  // namespace wormsim::sim
