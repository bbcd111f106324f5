// Million-node smoke: prove the implicit topology backend at the scale
// it exists for.  Builds a k^n-node unidirectional MIN WITHOUT
// materializing the graph (topology/implicit.hpp), drives it at a given
// offered load, and asserts two budgets:
//
//   * peak RSS stays under --rss-budget-mb (the whole point of the
//     implicit backend: memory is O(lanes) engine hot state, not
//     O(N log N) port tables), and
//   * measured accepted throughput lands inside
//     [--min-accept-ratio, --max-accept-ratio] x the paper's closed-form
//     unbuffered delta-network acceptance p_{i+1} = 1-(1-p_i/k)^k
//     (analysis/analytical.hpp).  Wormhole switching with single-flit
//     buffers saturates BELOW that upper bound, so the default band
//     checks the simulation is in the analytically sane regime, not
//     equal to it.
//
// The default configuration is the 2,097,152-node radix-8 TMIN from
// DESIGN.md §13 (k=8, n=7: ~16.8M channels, ~16.8M lanes).  CI runs a
// short-window variant of exactly this binary; DESIGN.md §13 records a
// full-window reference run.
//
// Usage: large_n_smoke [--radix=8] [--stages=7] [--load=1.0]
//                      [--length=32] [--warmup=400] [--measure=1200]
//                      [--drain=200] [--rss-budget-mb=6144]
//                      [--min-accept-ratio=0.3] [--max-accept-ratio=1.1]

#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>

#include "analysis/analytical.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "topology/implicit.hpp"
#include "topology/net_view.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/resource.hpp"

int main(int argc, char** argv) {
  using namespace wormsim;

  std::int64_t radix = 8;
  std::int64_t stages = 7;
  double load = 1.0;
  std::int64_t length = 32;
  std::int64_t warmup = 400;
  std::int64_t measure = 1'200;
  std::int64_t drain = 200;
  std::int64_t rss_budget_mb = 6'144;
  double min_accept_ratio = 0.3;
  double max_accept_ratio = 1.1;
  util::CliParser cli(
      "large_n_smoke: million-node implicit-backend memory/throughput "
      "smoke");
  cli.add_flag("radix", &radix, "switch radix k");
  cli.add_flag("stages", &stages, "stages n; the network has k^n nodes");
  cli.add_flag("load", &load, "offered load fraction (1.0 = saturation)");
  cli.add_flag("length", &length, "message length in flits");
  cli.add_flag("warmup", &warmup, "warmup cycles before the window");
  cli.add_flag("measure", &measure, "measurement window in cycles");
  cli.add_flag("drain", &drain, "drain cycles after the window");
  cli.add_flag("rss-budget-mb", &rss_budget_mb,
               "fail if peak RSS exceeds this many MiB");
  cli.add_flag("min-accept-ratio", &min_accept_ratio,
               "fail if accepted/analytical falls below this");
  cli.add_flag("max-accept-ratio", &max_accept_ratio,
               "fail if accepted/analytical exceeds this");
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }
  if (radix < 2 || stages < 1 || length < 1 || measure < 1) {
    std::fprintf(stderr, "bad arguments; see --help\n");
    return 1;
  }

  topology::NetworkConfig net_config;
  net_config.kind = topology::NetworkKind::kTMIN;
  net_config.topology = "cube";
  net_config.radix = static_cast<unsigned>(radix);
  net_config.stages = static_cast<unsigned>(stages);
  net_config.dilation = 1;
  net_config.vcs = 1;
  if (!topology::ImplicitTopology::supports(net_config)) {
    std::fprintf(stderr, "configuration not expressible implicitly\n");
    return 1;
  }

  const auto implicit =
      std::make_shared<const topology::ImplicitTopology>(net_config);
  const topology::NetView network(implicit);
  std::printf("network: %s implicit backend\n",
              net_config.describe().c_str());
  std::printf("nodes %llu  switches %zu  channels %zu  lanes %zu\n",
              static_cast<unsigned long long>(network.node_count()),
              network.switch_count(), network.channel_count(),
              network.lane_count());

  const auto router = routing::make_router(network);
  traffic::WorkloadSpec workload;
  workload.pattern = traffic::WorkloadSpec::Pattern::kUniform;
  workload.offered = load;
  workload.length = traffic::LengthSpec::fixed(
      static_cast<std::uint32_t>(length));
  traffic::StandardTraffic traffic(network, workload);

  sim::SimConfig sim_config;
  sim_config.seed = 1;
  sim_config.warmup_cycles = static_cast<std::uint64_t>(warmup);
  sim_config.measure_cycles = static_cast<std::uint64_t>(measure);
  sim_config.drain_cycles = static_cast<std::uint64_t>(drain);
  sim_config.implicit_topology = true;
  // Saturation runs hold every source queue at its cap by design.
  sim_config.sustainable_queue_limit =
      std::numeric_limits<std::uint64_t>::max();

  sim::Engine engine(network, *router, &traffic, sim_config);
  const sim::SimResult result = engine.run();

  const double accepted = result.throughput_fraction();
  const double analytical = analysis::unbuffered_delta_acceptance(
      net_config.radix, net_config.stages, load);
  const double ratio = analytical > 0.0 ? accepted / analytical : 0.0;
  const double rss = util::peak_rss_mib();

  std::printf("accepted throughput %.4f of capacity\n", accepted);
  std::printf("analytical unbuffered acceptance %.4f (ratio %.3f)\n",
              analytical, ratio);
  std::printf("delivered messages %llu\n",
              static_cast<unsigned long long>(
                  result.delivered_messages_total));
  // Records are reused once their message is delivered or terminated, so
  // this is the most messages alive at once, not the messages created.
  std::printf("packet records held %zu\n", engine.packet_count());
  std::printf("peak rss %.0f MiB (budget %lld MiB)\n", rss,
              static_cast<long long>(rss_budget_mb));

  bool ok = true;
  if (rss > static_cast<double>(rss_budget_mb)) {
    std::fprintf(stderr, "FAIL: peak RSS %.0f MiB over budget %lld MiB\n",
                 rss, static_cast<long long>(rss_budget_mb));
    ok = false;
  }
  if (ratio < min_accept_ratio || ratio > max_accept_ratio) {
    std::fprintf(stderr,
                 "FAIL: accepted/analytical ratio %.3f outside "
                 "[%.2f, %.2f]\n",
                 ratio, min_accept_ratio, max_accept_ratio);
    ok = false;
  }
  if (result.delivered_messages_total == 0) {
    std::fprintf(stderr, "FAIL: nothing delivered\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
