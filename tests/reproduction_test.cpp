// Figure-shape regression tests: the paper's qualitative conclusions,
// asserted on reduced-size simulations so the reproduction cannot drift
// silently.  Each test names the claim it pins down.
#include <gtest/gtest.h>

#include "experiment/figures.hpp"
#include "experiment/sweep.hpp"
#include "partition/cluster.hpp"

namespace wormsim::experiment {
namespace {

sim::SimConfig short_sim(std::uint64_t seed = 424242) {
  sim::SimConfig config;
  config.seed = seed;
  config.warmup_cycles = 10'000;
  config.measure_cycles = 50'000;
  config.drain_cycles = 20'000;
  return config;
}

SweepPoint run(const topology::NetworkConfig& net,
               traffic::WorkloadSpec::Pattern pattern, double load,
               const std::string& clustering = "global",
               std::vector<double> weights = {}, double hotspot = 0.05,
               traffic::LengthSpec length = traffic::LengthSpec{}) {
  SeriesSpec spec;
  spec.label = net.describe();
  spec.net = net;
  spec.workload = [=](const topology::NetView& network, double l) {
    traffic::WorkloadSpec workload;
    workload.pattern = pattern;
    workload.offered = l;
    workload.hotspot_extra = hotspot;
    workload.butterfly_index = 2;
    workload.length = length;
    workload.cluster_weights = weights;
    if (clustering == "top16") {
      workload.clustering =
          partition::Clustering::by_top_digits(network.address_spec(), 1);
    } else if (clustering == "low16") {
      workload.clustering =
          partition::Clustering::by_low_digits(network.address_spec(), 1);
    } else {
      workload.clustering =
          partition::Clustering::global(network.node_count());
    }
    return workload;
  };
  return run_point(resolve_point(spec, load, short_sim()));
}

using Pattern = traffic::WorkloadSpec::Pattern;

TEST(Reproduction, Fig16aGlobalUniformCubeEqualsButterfly) {
  // "For the global uniform traffic, there is no difference between their
  // performance as expected."
  const SweepPoint cube = run(tmin_config("cube"), Pattern::kUniform, 0.3);
  const SweepPoint butterfly =
      run(tmin_config("butterfly"), Pattern::kUniform, 0.3);
  EXPECT_NEAR(cube.throughput, butterfly.throughput, 0.03);
  EXPECT_NEAR(cube.latency_us, butterfly.latency_us,
              0.35 * cube.latency_us);
}

TEST(Reproduction, Fig16bClusterTrafficOrdersCubeSharedReduced) {
  // "the channel-reduced clustering in the butterfly TMIN provides the
  // worst performance"; the cube's balanced partition is best.
  const SweepPoint cube =
      run(tmin_config("cube"), Pattern::kUniform, 0.3, "top16");
  const SweepPoint reduced =
      run(tmin_config("butterfly"), Pattern::kUniform, 0.3, "top16");
  const SweepPoint shared =
      run(tmin_config("butterfly"), Pattern::kUniform, 0.3, "low16");
  EXPECT_GT(cube.throughput, reduced.throughput + 0.05);
  EXPECT_GE(shared.throughput, reduced.throughput);
  EXPECT_LT(cube.latency_us, reduced.latency_us);
}

TEST(Reproduction, Fig17aSkewedClustersFavorChannelShared) {
  // Ratio 4:1:1:1: "the channel-shared partitioning of the butterfly
  // TMIN provides the best performance."
  const std::vector<double> ratio{4, 1, 1, 1};
  const SweepPoint cube =
      run(tmin_config("cube"), Pattern::kUniform, 0.2, "top16", ratio);
  const SweepPoint shared =
      run(tmin_config("butterfly"), Pattern::kUniform, 0.2, "low16", ratio);
  const SweepPoint reduced =
      run(tmin_config("butterfly"), Pattern::kUniform, 0.2, "top16", ratio);
  EXPECT_LT(shared.latency_us, cube.latency_us);
  EXPECT_LT(shared.latency_us, reduced.latency_us);
  EXPECT_LT(reduced.throughput, shared.throughput);
}

TEST(Reproduction, Fig17bSoloClusterCapsThroughput) {
  // "The ratio 1:0:0:0 provides a smaller maximum network throughput
  // because only one cluster of 16 nodes is able to generate traffic."
  const std::vector<double> solo{1, 0, 0, 0};
  const SweepPoint solo_point =
      run(tmin_config("cube"), Pattern::kUniform, 0.5, "top16", solo);
  // 16 senders with one-port injection bound the machine at 25%.
  EXPECT_LE(solo_point.throughput, 0.25 + 0.02);
}

TEST(Reproduction, Fig18aDminBestTminWorst) {
  const SweepPoint tmin = run(tmin_config(), Pattern::kUniform, 0.5);
  const SweepPoint dmin = run(dmin_config(), Pattern::kUniform, 0.5);
  const SweepPoint vmin = run(vmin_config(), Pattern::kUniform, 0.5);
  const SweepPoint bmin = run(bmin_config(), Pattern::kUniform, 0.5);
  // "The DMIN performs consistently the best."
  EXPECT_GT(dmin.throughput, tmin.throughput + 0.05);
  EXPECT_GT(dmin.throughput, bmin.throughput);
  EXPECT_GT(dmin.throughput, vmin.throughput);
  EXPECT_LT(dmin.latency_us, tmin.latency_us);
  // "The TMIN performs the worst in both cases."
  EXPECT_LE(tmin.throughput, vmin.throughput + 0.02);
  EXPECT_LE(tmin.throughput, bmin.throughput + 0.02);
  // "The performance of the VMIN is always slightly better than that of
  // the BMIN" (with the standard VC-multiplexed ejection model).
  EXPECT_GE(vmin.throughput, bmin.throughput - 0.02);
}

TEST(Reproduction, Fig19HotspotCollapsesAllNetworks) {
  // "all four networks are congested as indicated by their reduced
  // network throughput"; the hot ejection link caps accepted throughput
  // near (1/N)/p_hot ~ 25% for x = 5%.
  for (const auto& config : {tmin_config(), dmin_config(), vmin_config(),
                             bmin_config()}) {
    const SweepPoint point =
        run(config, Pattern::kHotspot, 0.6, "global", {}, 0.05);
    // Offered 60% collapses to ~25% accepted (the hot ejection cap);
    // queues build slowly, so sustainability flags need longer windows
    // than this regression test runs — throughput is the robust signal.
    EXPECT_LE(point.throughput, 0.32) << config.describe();
    EXPECT_GT(point.queueing_us, 5.0) << config.describe();
  }
  // 10% hot spots hurt more (Fig 19b vs 19a).
  const SweepPoint five =
      run(dmin_config(), Pattern::kHotspot, 0.6, "global", {}, 0.05);
  const SweepPoint ten =
      run(dmin_config(), Pattern::kHotspot, 0.6, "global", {}, 0.10);
  EXPECT_GT(five.throughput, ten.throughput);
}

TEST(Reproduction, Fig20PermutationTrafficShapes) {
  // Butterfly permutation: "some channels have to be shared by four
  // source and destination pairs" -> TMIN and VMIN cap at 25%; DMIN and
  // BMIN do much better.
  const SweepPoint tmin = run(tmin_config(), Pattern::kButterfly, 0.5);
  const SweepPoint vmin = run(vmin_config(), Pattern::kButterfly, 0.5);
  const SweepPoint dmin = run(dmin_config(), Pattern::kButterfly, 0.5);
  const SweepPoint bmin = run(bmin_config(), Pattern::kButterfly, 0.5);
  EXPECT_LE(tmin.throughput, 0.27);
  EXPECT_LE(vmin.throughput, 0.27);
  EXPECT_GT(dmin.throughput, 0.38);
  EXPECT_GT(bmin.throughput, 0.33);
}

TEST(Reproduction, Fig20VminLosesToTminUnderPermutations) {
  // "The VMIN has worse performance than that of the TMIN because the
  // flit-level sharing of channels is based on round-robin scheduling."
  const SweepPoint tmin = run(tmin_config(), Pattern::kButterfly, 0.2);
  const SweepPoint vmin = run(vmin_config(), Pattern::kButterfly, 0.2);
  EXPECT_GE(vmin.latency_us, tmin.latency_us - 2.0);
}

TEST(Reproduction, HotspotDegradationSmallForDmin) {
  // Fig 18a vs Fig 19a text: DMIN's degradation from uniform to 5% hot
  // spots is visible but it remains the best unidirectional design.
  const SweepPoint uniform = run(dmin_config(), Pattern::kUniform, 0.3);
  const SweepPoint hot =
      run(dmin_config(), Pattern::kHotspot, 0.3, "global", {}, 0.05);
  EXPECT_GT(uniform.throughput, hot.throughput - 0.02);
  const SweepPoint tmin_hot =
      run(tmin_config(), Pattern::kHotspot, 0.3, "global", {}, 0.05);
  EXPECT_GE(hot.throughput + 0.02, tmin_hot.throughput);
}

}  // namespace
}  // namespace wormsim::experiment
