#include "experiment/figures.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <ostream>

#include <algorithm>

#include "analysis/fault.hpp"
#include "experiment/cache.hpp"
#include "experiment/results_json.hpp"
#include "experiment/scheduler.hpp"
#include "routing/router.hpp"
#include "sim/fault_injection/plan.hpp"
#include "topology/network.hpp"

#include "util/check.hpp"
#include "util/resource.hpp"
#include "util/table.hpp"

namespace wormsim::experiment {

using partition::Clustering;
using topology::NetworkConfig;
using topology::NetworkKind;
using traffic::LengthSpec;
using traffic::WorkloadSpec;

NetworkConfig tmin_config(const std::string& topology, unsigned radix,
                          unsigned stages) {
  NetworkConfig config;
  config.kind = NetworkKind::kTMIN;
  config.topology = topology;
  config.radix = radix;
  config.stages = stages;
  config.dilation = 1;
  config.vcs = 1;
  return config;
}

NetworkConfig dmin_config(const std::string& topology, unsigned radix,
                          unsigned stages, unsigned dilation) {
  NetworkConfig config = tmin_config(topology, radix, stages);
  config.kind = NetworkKind::kDMIN;
  config.dilation = dilation;
  return config;
}

NetworkConfig vmin_config(const std::string& topology, unsigned radix,
                          unsigned stages, unsigned vcs) {
  NetworkConfig config = tmin_config(topology, radix, stages);
  config.kind = NetworkKind::kVMIN;
  config.vcs = vcs;
  // The standard VMIN multiplexes every switch output channel — including
  // the node ejection link — which is what reproduces the paper's
  // VMIN-slightly-above-BMIN ordering under uniform traffic (see
  // ablation_ejection_vc and EXPERIMENTS.md).
  config.vc_node_links = true;
  return config;
}

NetworkConfig bmin_config(unsigned radix, unsigned stages, unsigned vcs) {
  NetworkConfig config;
  config.kind = NetworkKind::kBMIN;
  config.topology = "butterfly";
  config.radix = radix;
  config.stages = stages;
  config.vcs = vcs;
  return config;
}

namespace {

// ---- Workload factories --------------------------------------------------

enum class ClusterKind { kGlobal, kTop16, kLow16, kHalf32 };

Clustering make_clustering(const topology::NetView& net, ClusterKind kind) {
  switch (kind) {
    case ClusterKind::kGlobal:
      return Clustering::global(net.node_count());
    case ClusterKind::kTop16:
      return Clustering::by_top_digits(net.address_spec(), 1);
    case ClusterKind::kLow16:
      return Clustering::by_low_digits(net.address_spec(), 1);
    case ClusterKind::kHalf32:
      return Clustering::contiguous(net.node_count(), 2);
  }
  WORMSIM_CHECK_MSG(false, "unreachable");
}

/// Uniform traffic within each cluster, optional per-cluster rate weights.
auto uniform_workload(ClusterKind kind, std::vector<double> weights = {},
                      LengthSpec length = LengthSpec{}) {
  return [kind, weights, length](const topology::NetView& net, double load) {
    WorkloadSpec spec;
    spec.pattern = WorkloadSpec::Pattern::kUniform;
    spec.offered = load;
    spec.length = length;
    spec.clustering = make_clustering(net, kind);
    spec.cluster_weights = weights;
    return spec;
  };
}

auto hotspot_workload(double extra, ClusterKind kind = ClusterKind::kGlobal) {
  return [extra, kind](const topology::NetView& net, double load) {
    WorkloadSpec spec;
    spec.pattern = WorkloadSpec::Pattern::kHotspot;
    spec.hotspot_extra = extra;
    spec.offered = load;
    spec.clustering = make_clustering(net, kind);
    return spec;
  };
}

auto shuffle_workload() {
  return [](const topology::NetView& net, double load) {
    WorkloadSpec spec;
    spec.pattern = WorkloadSpec::Pattern::kShuffle;
    spec.offered = load;
    spec.clustering = Clustering::global(net.node_count());
    return spec;
  };
}

auto butterfly_workload(unsigned index) {
  return [index](const topology::NetView& net, double load) {
    WorkloadSpec spec;
    spec.pattern = WorkloadSpec::Pattern::kButterfly;
    spec.butterfly_index = index;
    spec.offered = load;
    spec.clustering = Clustering::global(net.node_count());
    return spec;
  };
}

// ---- Figure definitions --------------------------------------------------

using SeriesList = std::vector<SeriesSpec>;

/// The four networks compared in Section 5.3, each paired with the same
/// workload factory.
template <typename WorkloadFactory>
SeriesList four_networks(const WorkloadFactory& factory) {
  return {
      {"TMIN(cube)", tmin_config(), factory},
      {"DMIN(cube,d=2)", dmin_config(), factory},
      {"VMIN(cube,m=2)", vmin_config(), factory},
      {"BMIN(butterfly)", bmin_config(), factory},
  };
}

struct FigureDef {
  std::string title;
  SeriesList series;
};

FigureDef define_figure(const std::string& id) {
  // Fig. 16 — cube vs butterfly TMIN.
  if (id == "fig16a") {
    return {"Fig 16a: cube vs butterfly TMIN, global uniform",
            {{"TMIN(cube)", tmin_config("cube"),
              uniform_workload(ClusterKind::kGlobal)},
             {"TMIN(butterfly)", tmin_config("butterfly"),
              uniform_workload(ClusterKind::kGlobal)}}};
  }
  if (id == "fig16b") {
    return {"Fig 16b: cube vs butterfly TMIN, cluster-16 uniform",
            {{"TMIN(cube) balanced 0XX..3XX", tmin_config("cube"),
              uniform_workload(ClusterKind::kTop16)},
             {"TMIN(butterfly) reduced 0XX..3XX", tmin_config("butterfly"),
              uniform_workload(ClusterKind::kTop16)},
             {"TMIN(butterfly) shared XX0..XX3", tmin_config("butterfly"),
              uniform_workload(ClusterKind::kLow16)}}};
  }
  // Fig. 17 — unequal cluster rates.
  if (id == "fig17a") {
    const std::vector<double> ratio{4, 1, 1, 1};
    return {"Fig 17a: cluster-16 traffic ratio 4:1:1:1",
            {{"TMIN(cube) balanced", tmin_config("cube"),
              uniform_workload(ClusterKind::kTop16, ratio)},
             {"TMIN(butterfly) reduced", tmin_config("butterfly"),
              uniform_workload(ClusterKind::kTop16, ratio)},
             {"TMIN(butterfly) shared", tmin_config("butterfly"),
              uniform_workload(ClusterKind::kLow16, ratio)}}};
  }
  if (id == "fig17b") {
    const std::vector<double> skew{4, 1, 1, 1};
    const std::vector<double> solo{1, 0, 0, 0};
    return {"Fig 17b: cube balanced vs butterfly shared, ratios "
            "1:0:0:0 and 4:1:1:1",
            {{"TMIN(cube) 1:0:0:0", tmin_config("cube"),
              uniform_workload(ClusterKind::kTop16, solo)},
             {"TMIN(butterfly) shared 1:0:0:0", tmin_config("butterfly"),
              uniform_workload(ClusterKind::kLow16, solo)},
             {"TMIN(cube) 4:1:1:1", tmin_config("cube"),
              uniform_workload(ClusterKind::kTop16, skew)},
             {"TMIN(butterfly) shared 4:1:1:1", tmin_config("butterfly"),
              uniform_workload(ClusterKind::kLow16, skew)}}};
  }
  // Fig. 18 — four networks, uniform.
  if (id == "fig18a") {
    return {"Fig 18a: four networks, global uniform",
            four_networks(uniform_workload(ClusterKind::kGlobal))};
  }
  if (id == "fig18b") {
    return {"Fig 18b: four networks, cluster-16 uniform",
            four_networks(uniform_workload(ClusterKind::kTop16))};
  }
  // Fig. 19 — hot spots.
  if (id == "fig19a") {
    return {"Fig 19a: four networks, global hot spot (5% extra)",
            four_networks(hotspot_workload(0.05))};
  }
  if (id == "fig19b") {
    return {"Fig 19b: four networks, global hot spot (10% extra)",
            four_networks(hotspot_workload(0.10))};
  }
  // Fig. 20 — permutations.
  if (id == "fig20a") {
    return {"Fig 20a: four networks, perfect-shuffle permutation",
            four_networks(shuffle_workload())};
  }
  if (id == "fig20b") {
    return {"Fig 20b: four networks, 2nd butterfly permutation",
            four_networks(butterfly_workload(2))};
  }

  // ---- Ablations (Section 6 future-work directions) ----------------------
  if (id == "ablation_msgsize_short") {
    return {"Ablation: short messages (uniform 8-32 flits), global uniform",
            four_networks(uniform_workload(ClusterKind::kGlobal, {},
                                           LengthSpec::uniform(8, 32)))};
  }
  if (id == "ablation_msgsize_long") {
    return {"Ablation: long messages (uniform 512-1024 flits), global "
            "uniform",
            four_networks(uniform_workload(ClusterKind::kGlobal, {},
                                           LengthSpec::uniform(512, 1024)))};
  }
  if (id == "ablation_msgsize_bimodal") {
    return {"Ablation: bimodal messages (8-32 / 512-1024), global uniform",
            four_networks(uniform_workload(
                ClusterKind::kGlobal, {},
                LengthSpec::bimodal(8, 32, 512, 1024, 0.5)))};
  }
  if (id == "ablation_switchsize") {
    SeriesList series;
    struct Shape {
      unsigned k, n;
    };
    for (const Shape shape : {Shape{2, 6}, Shape{4, 3}, Shape{8, 2}}) {
      const std::string suffix =
          "k=" + std::to_string(shape.k) + ",n=" + std::to_string(shape.n);
      series.push_back({"DMIN(" + suffix + ",d=2)",
                        dmin_config("cube", shape.k, shape.n),
                        uniform_workload(ClusterKind::kGlobal)});
      series.push_back({"BMIN(" + suffix + ")",
                        bmin_config(shape.k, shape.n),
                        uniform_workload(ClusterKind::kGlobal)});
    }
    return {"Ablation: switch size k=2/4/8 at N=64, DMIN vs BMIN, global "
            "uniform",
            series};
  }
  if (id == "ablation_vcs") {
    SeriesList series{{"TMIN(cube)", tmin_config(),
                       uniform_workload(ClusterKind::kGlobal)}};
    for (unsigned m : {2u, 4u, 8u}) {
      series.push_back({"VMIN(cube,m=" + std::to_string(m) + ")",
                        vmin_config("cube", 4, 3, m),
                        uniform_workload(ClusterKind::kGlobal)});
    }
    return {"Ablation: VMIN virtual-channel count, global uniform", series};
  }
  if (id == "ablation_bmin_vc") {
    SeriesList series;
    for (unsigned m : {1u, 2u, 4u}) {
      series.push_back({"BMIN(m=" + std::to_string(m) + ")",
                        bmin_config(4, 3, m),
                        uniform_workload(ClusterKind::kGlobal)});
    }
    series.push_back({"DMIN(cube,d=2)", dmin_config(),
                      uniform_workload(ClusterKind::kGlobal)});
    return {"Ablation: BMIN with virtual channels, global uniform", series};
  }
  if (id == "ablation_hotspot_cluster") {
    return {"Ablation: per-cluster hot spots (5%), cluster-16",
            four_networks(hotspot_workload(0.05, ClusterKind::kTop16))};
  }
  if (id == "ablation_bandwidth") {
    // Doubling TMIN/VMIN channel bandwidth is modeled by halving flit
    // counts (each double-width flit carries two baseline flits), so
    // reported flit-loads stay comparable in *time*; see EXPERIMENTS.md.
    return {"Ablation: TMIN/VMIN with doubled channel bandwidth vs "
            "DMIN/BMIN",
            {{"TMIN(cube) 2x bandwidth", tmin_config(),
              uniform_workload(ClusterKind::kGlobal, {},
                               LengthSpec::uniform(4, 512))},
             {"VMIN(cube,m=2) 2x bandwidth", vmin_config(),
              uniform_workload(ClusterKind::kGlobal, {},
                               LengthSpec::uniform(4, 512))},
             {"DMIN(cube,d=2)", dmin_config(),
              uniform_workload(ClusterKind::kGlobal)},
             {"BMIN(butterfly)", bmin_config(),
              uniform_workload(ClusterKind::kGlobal)}}};
  }
  if (id == "ablation_cluster32") {
    return {"Ablation: four networks, cluster-32 uniform",
            four_networks(uniform_workload(ClusterKind::kHalf32))};
  }
  if (id == "ablation_extra_stage_uniform" ||
      id == "ablation_extra_stage_perm") {
    // Section 6 future work: extra-stage MINs.  Compare plain TMIN,
    // TMINs with 1-2 adaptive extra stages, and the DMIN they approximate.
    topology::NetworkConfig x1 = tmin_config();
    x1.extra_stages = 1;
    topology::NetworkConfig x2 = tmin_config();
    x2.extra_stages = 2;
    const bool uniform = id == "ablation_extra_stage_uniform";
    auto factory = [uniform](const topology::NetView& net, double load) {
      WorkloadSpec spec;
      if (uniform) {
        spec.pattern = WorkloadSpec::Pattern::kUniform;
      } else {
        spec.pattern = WorkloadSpec::Pattern::kButterfly;
        spec.butterfly_index = 2;
      }
      spec.offered = load;
      spec.clustering = Clustering::global(net.node_count());
      return spec;
    };
    return {std::string("Ablation: extra-stage MINs, ") +
                (uniform ? "global uniform" : "2nd butterfly permutation"),
            {{"TMIN(cube)", tmin_config(), factory},
             {"TMIN+1 extra stage", x1, factory},
             {"TMIN+2 extra stages", x2, factory},
             {"DMIN(cube,d=2)", dmin_config(), factory}}};
  }
  if (id == "ablation_multibutterfly") {
    // Section 6 future work [31]: randomly-wired splitter networks break
    // structured-traffic worst cases.  The 2nd-butterfly permutation caps
    // a deterministic TMIN at 25%; the multibutterfly's random wiring
    // spreads those pairs across channels.
    topology::NetworkConfig mbmin = tmin_config();
    mbmin.splitter_dilation = 2;
    return {"Ablation: multibutterfly vs TMIN vs DMIN, 2nd butterfly "
            "permutation",
            {{"TMIN(cube)", tmin_config(), butterfly_workload(2)},
             {"MBMIN(d=2)", mbmin, butterfly_workload(2)},
             {"DMIN(cube,d=2)", dmin_config(), butterfly_workload(2)}}};
  }
  if (id == "ablation_arbitration") {
    // Robustness of the DESIGN.md substitution decision: does the
    // unspecified contention-resolution discipline change any conclusion?
    SeriesList series;
    struct Policy {
      const char* name;
      sim::ArbitrationOrder order;
      sim::LaneSelection lane;
    };
    for (const Policy policy :
         {Policy{"rotating+random", sim::ArbitrationOrder::kRotating,
                 sim::LaneSelection::kRandomFree},
          Policy{"random+random", sim::ArbitrationOrder::kRandom,
                 sim::LaneSelection::kRandomFree},
          Policy{"fixed+first-free", sim::ArbitrationOrder::kFixed,
                 sim::LaneSelection::kFirstFree}}) {
      for (const auto& net :
           {dmin_config(), bmin_config()}) {
        SeriesSpec spec;
        spec.label = net.describe() + " " + policy.name;
        spec.net = net;
        spec.workload = uniform_workload(ClusterKind::kGlobal);
        spec.tweak_sim = [policy](sim::SimConfig& config) {
          config.arbitration = policy.order;
          config.lane_selection = policy.lane;
        };
        series.push_back(std::move(spec));
      }
    }
    return {"Ablation: arbitration/lane-selection policies, global uniform",
            series};
  }
  if (id == "ablation_switching") {
    // Section 1's switching-technique contrast: wormhole vs
    // store-and-forward on identical hardware, global uniform traffic.
    SeriesList series;
    for (const auto& [label, net] :
         std::vector<std::pair<std::string, topology::NetworkConfig>>{
             {"TMIN wormhole", tmin_config()},
             {"TMIN store-and-forward", tmin_config()},
             {"BMIN wormhole", bmin_config()},
             {"BMIN store-and-forward", bmin_config()}}) {
      SeriesSpec spec;
      spec.label = label;
      spec.net = net;
      spec.workload = uniform_workload(ClusterKind::kGlobal);
      if (label.find("store") != std::string::npos) {
        spec.switching = SeriesSpec::Switching::kStoreForward;
      }
      series.push_back(std::move(spec));
    }
    return {"Ablation: wormhole vs store-and-forward switching, global "
            "uniform",
            series};
  }
  if (id == "ablation_ejection_vc") {
    // Model-variant study: does letting the VMIN multiplex its ejection
    // channels (vc_node_links) recover the paper's VMIN >= BMIN ordering?
    topology::NetworkConfig vmin_serial = vmin_config();
    vmin_serial.vc_node_links = false;
    return {"Ablation: VMIN ejection-channel model (serialized vs "
            "VC-multiplexed node links)",
            {{"VMIN(m=2) serialized ejection", vmin_serial,
              uniform_workload(ClusterKind::kGlobal)},
             {"VMIN(m=2,evc) standard", vmin_config(),
              uniform_workload(ClusterKind::kGlobal)},
             {"VMIN(m=4,evc)", vmin_config("cube", 4, 3, 4),
              uniform_workload(ClusterKind::kGlobal)},
             {"BMIN(butterfly)", bmin_config(),
              uniform_workload(ClusterKind::kGlobal)}}};
  }
  // ---- Flow-control ablations (finite buffers, delayed credits) ----------
  if (id == "ablation_buffer_depth") {
    // Deeper per-lane input fifos hide the credit-return round trip: each
    // extra flit slot lets the upstream sender cover one more cycle of
    // delay.  With a 2-cycle credit pipeline, depth 1 idles every busy
    // link two cycles out of three; once depth exceeds the round trip the
    // curve must converge to the paper's single-flit zero-delay switches.
    SeriesList series;
    for (unsigned depth : {1u, 2u, 4u, 8u}) {
      SeriesSpec spec;
      spec.label = "TMIN depth=" + std::to_string(depth) + " delay=2";
      spec.net = tmin_config();
      spec.workload = uniform_workload(ClusterKind::kGlobal);
      spec.tweak_sim = [depth](sim::SimConfig& config) {
        config.buffer_depth = depth;
        config.flow_control = sim::FlowControlScheme::kCredit;
        config.credit_delay = 2;
      };
      series.push_back(std::move(spec));
    }
    return {"Ablation: input-buffer depth under a 2-cycle credit delay, "
            "TMIN global uniform",
            series};
  }
  if (id == "ablation_credit_delay") {
    // The dual sweep: fix the fifo at 4 flits and stretch the credit
    // pipeline until it exceeds what the buffer can hide (delay >= depth
    // caps every link at depth/(depth+delay) of its bandwidth).
    SeriesList series;
    for (unsigned delay : {0u, 2u, 4u, 8u}) {
      SeriesSpec spec;
      spec.label = "TMIN depth=4 delay=" + std::to_string(delay);
      spec.net = tmin_config();
      spec.workload = uniform_workload(ClusterKind::kGlobal);
      spec.tweak_sim = [delay](sim::SimConfig& config) {
        config.buffer_depth = 4;
        config.flow_control = sim::FlowControlScheme::kCredit;
        config.credit_delay = delay;
      };
      series.push_back(std::move(spec));
    }
    return {"Ablation: credit-return delay at 4-flit buffers, TMIN global "
            "uniform",
            series};
  }
  if (id == "ablation_flow_control") {
    // Scheme comparison on identical hardware with fixed 32-flit messages
    // (so a packet-sized cut-through buffer stays small): credit vs
    // on/off backpressure at depth 8, virtual cut-through at depth 32,
    // and the store-and-forward reference, all under a 2-cycle signal
    // delay.
    SeriesList series;
    struct SchemeSpec {
      const char* label;
      sim::FlowControlScheme scheme;
      unsigned depth;
    };
    for (const SchemeSpec s :
         {SchemeSpec{"TMIN credit depth=8", sim::FlowControlScheme::kCredit,
                     8u},
          SchemeSpec{"TMIN on/off depth=8", sim::FlowControlScheme::kOnOff,
                     8u},
          SchemeSpec{"TMIN cut-through depth=32",
                     sim::FlowControlScheme::kVirtualCutThrough, 32u}}) {
      SeriesSpec spec;
      spec.label = s.label;
      spec.net = tmin_config();
      spec.workload = uniform_workload(ClusterKind::kGlobal, {},
                                       traffic::LengthSpec::fixed(32));
      spec.tweak_sim = [s](sim::SimConfig& config) {
        config.buffer_depth = s.depth;
        config.flow_control = s.scheme;
        config.credit_delay = 2;
      };
      series.push_back(std::move(spec));
    }
    SeriesSpec sf;
    sf.label = "TMIN store-and-forward";
    sf.net = tmin_config();
    sf.workload = uniform_workload(ClusterKind::kGlobal, {},
                                   traffic::LengthSpec::fixed(32));
    sf.switching = SeriesSpec::Switching::kStoreForward;
    series.push_back(std::move(sf));
    return {"Ablation: backpressure schemes on identical hardware, "
            "32-flit messages, TMIN global uniform",
            series};
  }
  // ---- Fault-injection figures (DESIGN.md §14, ROADMAP item 5) -----------
  if (id == "ablation_fault_fraction") {
    // Runtime resilience sweep: a seeded fraction of the interior
    // channels dies at cycle 1000 (mid-warmup, so the measurement window
    // sees the steady degraded network).  The unique-path TMIN loses
    // every pair whose path crosses a dead channel — its delivery
    // fraction tracks the static coverage — while the d-dilated DMIN
    // routes around faults through the sibling channels.  One seed across
    // all fractions keeps the dead sets nested (f=0.05 ⊂ f=0.10 ⊂
    // f=0.20), so degradation is monotone along each network's series.
    SeriesList series;
    struct NetChoice {
      const char* name;
      topology::NetworkConfig net;
    };
    for (const NetChoice& choice :
         {NetChoice{"TMIN(cube)", tmin_config()},
          NetChoice{"DMIN(cube,d=2)", dmin_config()}}) {
      for (const double fraction : {0.0, 0.05, 0.10, 0.20}) {
        SeriesSpec spec;
        char suffix[24];
        std::snprintf(suffix, sizeof(suffix), " f=%.2f", fraction);
        spec.label = std::string(choice.name) + suffix;
        spec.net = choice.net;
        spec.workload = uniform_workload(ClusterKind::kGlobal);
        spec.tweak_sim = [fraction](sim::SimConfig& config) {
          config.fault_fraction = fraction;
          config.fault_seed = 1;
          config.fault_at_cycle = 1000;
        };
        series.push_back(std::move(spec));
      }
    }
    return {"Ablation: runtime channel-fault fraction, TMIN vs DMIN, "
            "global uniform",
            series};
  }
  if (id == "slo_fault_degradation") {
    // Degraded-mode SLO table: the four Section 5.3 networks with 10% of
    // their interior channels killed at cycle 1000.  The table pairs the
    // runtime delivery fraction with the static connectivity
    // (analysis::fault_coverage of the exact channel set the engines
    // kill) plus the p95/p99 tail and the post-measurement drain time —
    // at low load the runtime and static columns must converge
    // (regression-tested in tests/fault_injection_test.cpp).
    SeriesList series = four_networks(uniform_workload(ClusterKind::kGlobal));
    for (SeriesSpec& spec : series) {
      spec.tweak_sim = [](sim::SimConfig& config) {
        config.fault_fraction = 0.10;
        config.fault_seed = 1;
        config.fault_at_cycle = 1000;
      };
    }
    return {"Degraded-mode SLOs: four networks with 10% interior channel "
            "faults, global uniform",
            series};
  }
  WORMSIM_CHECK_MSG(false, "unknown figure id");
}

const std::vector<std::string>& registry() {
  static const std::vector<std::string> ids = {
      "fig16a",
      "fig16b",
      "fig17a",
      "fig17b",
      "fig18a",
      "fig18b",
      "fig19a",
      "fig19b",
      "fig20a",
      "fig20b",
      "ablation_msgsize_short",
      "ablation_msgsize_long",
      "ablation_msgsize_bimodal",
      "ablation_switchsize",
      "ablation_vcs",
      "ablation_bmin_vc",
      "ablation_hotspot_cluster",
      "ablation_bandwidth",
      "ablation_cluster32",
      "ablation_ejection_vc",
      "ablation_extra_stage_uniform",
      "ablation_extra_stage_perm",
      "ablation_switching",
      "ablation_arbitration",
      "ablation_multibutterfly",
      "ablation_buffer_depth",
      "ablation_credit_delay",
      "ablation_flow_control",
      "ablation_fault_fraction",
      "slo_fault_degradation",
  };
  return ids;
}

}  // namespace

std::vector<std::string> figure_ids() { return registry(); }

bool figure_exists(const std::string& id) {
  for (const std::string& known : registry()) {
    if (known == id) return true;
  }
  return false;
}

FigureSpec figure_spec(const std::string& id) {
  FigureDef def = define_figure(id);
  FigureSpec spec;
  spec.id = id;
  spec.title = std::move(def.title);
  spec.series = std::move(def.series);
  return spec;
}

std::vector<std::string> shard_figure_ids(unsigned shard_index,
                                          unsigned shard_count,
                                          const RunOptions& options) {
  WORMSIM_CHECK_MSG(shard_count > 0 && shard_index < shard_count,
                    "shard index out of range");
  const std::vector<std::string>& ids = registry();
  const std::size_t load_count = options.loads().size();
  // Weight = upper bound on the figure's point count.  Early stops make
  // actual counts smaller, but proportionally so across figures.
  std::vector<std::size_t> weight(ids.size());
  std::vector<std::size_t> order(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    weight[i] = figure_spec(ids[i]).series.size() * load_count;
    order[i] = i;
  }
  // Greedy longest-processing-time: heaviest figure first, always onto
  // the lightest shard.  Ties break on registry order / lowest shard, so
  // the partition is a pure function of the registry and `options`.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weight[a] > weight[b];
                   });
  std::vector<std::size_t> shard_weight(shard_count, 0);
  std::vector<unsigned> assigned(ids.size());
  for (const std::size_t figure : order) {
    unsigned lightest = 0;
    for (unsigned s = 1; s < shard_count; ++s) {
      if (shard_weight[s] < shard_weight[lightest]) lightest = s;
    }
    assigned[figure] = lightest;
    shard_weight[lightest] += weight[figure];
  }
  std::vector<std::string> mine;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (assigned[i] == shard_index) mine.push_back(ids[i]);
  }
  return mine;
}

FigureResult run_figure(const std::string& id, const RunOptions& options) {
  const FigureSpec def = figure_spec(id);
  FigureResult result;
  result.id = id;
  result.title = def.title;
  // options.threads > 1 fans (series, load) points out over the
  // work-stealing pool; options.cache_dir replays previously computed
  // points.  Both are bitwise-neutral (experiment/scheduler.hpp).
  const auto wall_start = std::chrono::steady_clock::now();
  std::optional<ResultCache> cache;
  if (!options.cache_dir.empty()) cache.emplace(options.cache_dir);
  PoolOptions pool;
  pool.threads = options.threads;
  pool.cache = cache ? &*cache : nullptr;
  SweepOptions sweep = options.sweep_options();
  if (sweep.sim.telemetry.heartbeat_cycles > 0) {
    // One subdirectory per figure so concurrent figures (and the shard
    // runner) never interleave streams; resolve_point tags each point.
    std::string& dir = sweep.sim.telemetry.heartbeat_dir;
    dir = (dir.empty() ? std::string(".") : dir) + "/" + id;
  }
  result.series = run_series_pool(def.series, sweep, pool, &result.pool_stats);
  // Static-coverage cross-check for fault-injected series: rebuild the
  // exact fault plan the engines applied (deterministic in the network,
  // fraction, and fault seed — DESIGN.md §14) and compute the fraction of
  // ordered pairs that still have a live route.  The degraded-SLO tables
  // print it beside the measured delivery fraction.  The plan does not
  // depend on the load, so the series' first point answers for all.
  for (std::size_t i = 0; i < def.series.size(); ++i) {
    const ResolvedPoint point =
        resolve_point(def.series[i], sweep.loads.front(), sweep.sim);
    const sim::SimConfig& config = point.sim;
    if (config.fault_fraction <= 0.0) continue;
    const topology::NetView& view = point.net.view;
    const auto router = routing::make_router(view);
    const sim::fault_injection::FaultPlan plan =
        sim::fault_injection::build_fault_plan(view, config.fault_fraction,
                                               config.fault_seed,
                                               config.fault_at_cycle);
    const analysis::FaultSet faults(plan.channels.begin(),
                                    plan.channels.end());
    result.series[i].static_coverage =
        analysis::fault_coverage(view, *router, faults).fraction();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (cache) result.cache_stats = cache->stats();
  if (!options.json_dir.empty()) {
    const PoolStats& pool_stats = result.pool_stats;
    telemetry::RunManifest manifest;
    manifest.id = id;
    manifest.title = def.title;
    manifest.seed = options.seed;
    manifest.quick = options.quick;
    manifest.wall_seconds = result.wall_seconds;
    // Cycles actually executed: cache hits replay stored points without
    // simulating, and speculated points burn cycles without appearing in
    // the output, so count computed points rather than emitted ones.
    manifest.simulated_cycles =
        pool_stats.computed * options.sim_config().total_cycles();
    manifest.pool_threads = pool_stats.threads;
    manifest.pool_busy_seconds = pool_stats.busy_seconds;
    manifest.points_computed = pool_stats.computed;
    manifest.points_speculated = pool_stats.speculated;
    manifest.peak_rss_mib = util::peak_rss_mib();
    manifest.profile = pool_stats.engine_profile;
    if (result.cache_stats) {
      manifest.cache_used = true;
      manifest.cache_hits = result.cache_stats->hits;
      manifest.cache_misses = result.cache_stats->misses;
      manifest.cache_rejected = result.cache_stats->rejected;
      manifest.cache_stores = result.cache_stats->stores;
    }
    write_figure_json(result, manifest, options.json_dir);
  }
  return result;
}

void print_figure(const FigureResult& result, std::ostream& os) {
  // Fault-injected figures (any series with a computed static coverage)
  // swap the table to the degraded-SLO columns; every other figure keeps
  // the historical byte-pinned format.
  bool degraded = false;
  for (const Series& series : result.series) {
    if (series.static_coverage >= 0.0) degraded = true;
  }
  os << "== " << result.title << " ==\n";
  for (const Series& series : result.series) {
    os << "\n-- " << series.label << " --\n";
    if (degraded) {
      util::Table table({"offered%", "accepted%", "latency_us", "p95_us",
                         "p99_us", "deliv%", "static%", "terminated",
                         "drain_us", "sustainable", "max_queue"});
      for (const SweepPoint& point : series.points) {
        auto& row = table.row()
                        .cell(point.offered_requested * 100.0, 1)
                        .cell(point.throughput * 100.0, 1)
                        .cell(point.latency_us, 1)
                        .cell(point.latency_p95_us, 1)
                        .cell(point.latency_p99_us, 1)
                        .cell(point.delivery_fraction * 100.0, 2);
        if (series.static_coverage >= 0.0) {
          row.cell(series.static_coverage * 100.0, 2);
        } else {
          row.cell(std::string("-"));
        }
        row.cell(point.terminated_messages)
            .cell(point.time_to_drain_us, 1)
            .cell(std::string(point.sustainable ? "yes" : "no"))
            .cell(point.max_source_queue);
      }
      table.print(os);
    } else {
      util::Table table({"offered%", "accepted%", "latency_us", "p95_us",
                         "net_lat_us", "queue_us", "sustainable",
                         "max_queue"});
      for (const SweepPoint& point : series.points) {
        table.row()
            .cell(point.offered_requested * 100.0, 1)
            .cell(point.throughput * 100.0, 1)
            .cell(point.latency_us, 1)
            .cell(point.latency_p95_us, 1)
            .cell(point.network_latency_us, 1)
            .cell(point.queueing_us, 1)
            .cell(std::string(point.sustainable ? "yes" : "no"))
            .cell(point.max_source_queue);
      }
      table.print(os);
    }
  }
  os << "\n";
}

void print_figure_csv(const FigureResult& result, std::ostream& os) {
  util::Table table({"figure", "series", "offered_pct", "accepted_pct",
                     "latency_us", "latency_p95_us", "latency_p99_us",
                     "network_latency_us", "queueing_us", "sustainable",
                     "max_source_queue", "delivery_fraction",
                     "terminated_messages", "time_to_drain_us",
                     "static_coverage"});
  for (const Series& series : result.series) {
    for (const SweepPoint& point : series.points) {
      auto& row = table.row()
                      .cell(result.id)
                      .cell(series.label)
                      .cell(point.offered_requested * 100.0, 2)
                      .cell(point.throughput * 100.0, 2)
                      .cell(point.latency_us, 2)
                      .cell(point.latency_p95_us, 2)
                      .cell(point.latency_p99_us, 2)
                      .cell(point.network_latency_us, 2)
                      .cell(point.queueing_us, 2)
                      .cell(std::string(point.sustainable ? "1" : "0"))
                      .cell(point.max_source_queue)
                      .cell(point.delivery_fraction, 4)
                      .cell(point.terminated_messages)
                      .cell(point.time_to_drain_us, 2);
      if (series.static_coverage >= 0.0) {
        row.cell(series.static_coverage, 4);
      } else {
        row.cell(std::string(""));
      }
    }
  }
  table.print_csv(os);
}

}  // namespace wormsim::experiment
