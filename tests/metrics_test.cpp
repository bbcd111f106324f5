// Unit tests for SimResult accounting and unit conversions.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "topology/network.hpp"

namespace wormsim::sim {
namespace {

TEST(SimResult, ThroughputFractions) {
  SimResult result;
  result.measure_cycles = 1000;
  result.node_count = 64;
  result.delivered_flits_in_window = 16'000;  // 0.25 flits/node/cycle
  result.generated_flits_in_window = 32'000;  // 0.5 offered
  EXPECT_DOUBLE_EQ(result.throughput_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(result.offered_fraction(), 0.5);
}

TEST(SimResult, EmptyResultIsZero) {
  const SimResult result;
  EXPECT_DOUBLE_EQ(result.throughput_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(result.offered_fraction(), 0.0);
  EXPECT_TRUE(result.sustainable());
}

TEST(SimResult, SustainabilityCriteria) {
  SimResult result;
  result.max_source_queue = 100;
  EXPECT_TRUE(result.sustainable(100));
  result.max_source_queue = 101;
  EXPECT_FALSE(result.sustainable(100));
  result.max_source_queue = 3;
  result.dropped_messages = 1;
  EXPECT_FALSE(result.sustainable(100));  // drops always disqualify
}

TEST(SimResult, LatencyUnitsUseChannelBandwidth) {
  SimResult result;
  result.latency_cycles.add(100.0);
  result.latency_cycles.add(300.0);
  EXPECT_DOUBLE_EQ(result.mean_latency_us(), 10.0);  // 200 cycles
  result.latency_histogram.add(100.0);
  result.latency_histogram.add(300.0);
  // p50: the 100-cycle sample lands in bin [100, 120); the quantile
  // reports the upper edge, 120 cycles = 6 us.
  EXPECT_DOUBLE_EQ(result.latency_quantile_us(0.5), 6.0);
}

TEST(SimResult, SaturatedQuantileReportsInfinityNotTopEdge) {
  // Latencies beyond the histogram range land in the overflow bin.  The
  // quantile used to be silently clamped to the top edge (3000 us),
  // making a saturated network look merely slow; it must report
  // +infinity so downstream consumers see the saturation.
  SimResult result;
  for (int i = 0; i < 100; ++i) {
    result.latency_histogram.add(i < 40 ? 100.0 : 1e6);
  }
  EXPECT_FALSE(std::isinf(result.latency_quantile_us(0.25)));
  EXPECT_TRUE(std::isinf(result.latency_quantile_us(0.95)));
}

TEST(SimConfig, CycleBudgetAndConversion) {
  SimConfig config;
  config.warmup_cycles = 10;
  config.measure_cycles = 20;
  config.drain_cycles = 5;
  EXPECT_EQ(config.total_cycles(), 35u);
  // The paper's channel clock, 20 flits/us: 40 cycles are 2 us.
  EXPECT_DOUBLE_EQ(40.0 / topology::kFlitsPerMicrosecond, 2.0);
}

}  // namespace
}  // namespace wormsim::sim
