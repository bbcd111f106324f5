#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/analytical.hpp"
#include "experiment/figures.hpp"
#include "probes.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "topology/implicit.hpp"
#include "topology/net_view.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"
#include "util/resource.hpp"

namespace perfbench {
namespace {

using namespace wormsim;
using telemetry::EnginePhase;

/// Extra set-up-only constructions per run, on top of one per timed rep,
/// so setup_s is a median of several samples even when reps are long.
/// A paper_sweep set-up takes about a millisecond, so it takes many more,
/// half before and half after the reps.
constexpr int kSetupSamples = 10;
constexpr int kSweepSetupSamples = 100;
/// Untraced/traced rep pairs in a traced single-simulation run.
constexpr int kTracePairs = 20;
/// Cycle ranges a single-simulation rep is timed in.
constexpr std::uint64_t kSlices = 250;

const std::vector<std::string> kFigures = {"fig18a", "fig20a",
                                           "ablation_switching"};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Reps run while one more (at the median rep time so far) still ends
/// inside the time budget; there is always at least one.
bool another_rep_fits(Clock::time_point start, const std::vector<double>& walls,
                      double budget_s) {
  return seconds_since(start) + median(walls) <= budget_s;
}

/// Fastest time of each segment of a rep, over reps.  Every rep is cut into
/// the same segments, each doing the same work in every rep (set-up, a
/// fixed cycle range, one figure).  Other tenants of the host slow
/// segments down in bursts of seconds, so the sum of the segments' fastest
/// times estimates one undisturbed rep.
class BestOf {
 public:
  void add(std::size_t segment, double wall_s, double cpu_s) {
    if (segment >= wall_.size()) {
      wall_.resize(segment + 1, std::numeric_limits<double>::infinity());
      cpu_.resize(segment + 1, std::numeric_limits<double>::infinity());
    }
    wall_[segment] = std::min(wall_[segment], wall_s);
    cpu_[segment] = std::min(cpu_[segment], cpu_s);
  }
  double wall(std::size_t segment) const { return wall_[segment]; }
  double wall() const { return sum(wall_); }
  double cpu() const { return sum(cpu_); }

 private:
  static double sum(const std::vector<double>& values) {
    double total = 0.0;
    for (const double v : values) total += v;
    return total;
  }

  std::vector<double> wall_;
  std::vector<double> cpu_;
};

std::string fnv_digest(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// Digest of the simulated statistics of one engine run: accepted
/// fraction, mean latency, delivered messages, and window arrivals.
std::string stats_digest(const sim::SimResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.17g|%.17g|%llu|%llu",
                r.throughput_fraction(), r.mean_latency_us(),
                static_cast<unsigned long long>(r.delivered_messages_total),
                static_cast<unsigned long long>(
                    r.generated_messages_in_window));
  return fnv_digest(buf);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double phase(const telemetry::PhaseProfile& p, EnginePhase which) {
  return p.seconds[static_cast<std::size_t>(which)];
}

/// Profiler seconds charged to phases that have no work under `config`:
/// the engine is sequential, and faults, validation, sampling, heartbeats
/// and delayed credits are off unless the config turns them on.
double idle_phase_seconds(const telemetry::PhaseProfile& p,
                          const sim::SimConfig& config) {
  double idle = phase(p, EnginePhase::kAdvanceDecide) +
                phase(p, EnginePhase::kAdvanceApply);
  if (config.fault_fraction == 0.0) idle += phase(p, EnginePhase::kFault);
  if (!config.validate) idle += phase(p, EnginePhase::kValidate);
  if (!config.telemetry.sampling && config.telemetry.heartbeat_cycles == 0) {
    idle += phase(p, EnginePhase::kTelemetry);
  }
  if (config.credit_delay == 0) idle += phase(p, EnginePhase::kFlowControl);
  return idle;
}

// ---- One engine run -------------------------------------------------------

/// A network, the traffic it carries, and the simulator knobs.
struct SimSetup {
  topology::NetworkConfig net;
  bool implicit = false;
  double load = 0.0;  ///< offered load fraction
  std::function<traffic::WorkloadSpec(const topology::NetView&)> workload;
  sim::SimConfig sim;
};

/// Host-side layer numbers of traced engine runs; adds up over runs.
struct LayerStats {
  double topology_s = 0.0;
  double run_s = 0.0;
  double idle_phase_s = 0.0;
  std::uint64_t lanes = 0;
  CallStat candidates;
  CallStat traffic;
  std::uint64_t created = 0;
  std::uint64_t delivered = 0;
  std::uint64_t moves = 0;
  std::uint64_t grants = 0;
  std::uint64_t denials = 0;
  std::uint64_t blocked = 0;
  std::uint64_t starved = 0;
  std::uint64_t packet_states = 0;
  telemetry::PhaseProfile profile;

  void add(const LayerStats& o) {
    topology_s += o.topology_s;
    run_s += o.run_s;
    idle_phase_s += o.idle_phase_s;
    lanes += o.lanes;
    candidates.add(o.candidates);
    traffic.add(o.traffic);
    created += o.created;
    delivered += o.delivered;
    moves += o.moves;
    grants += o.grants;
    denials += o.denials;
    blocked += o.blocked;
    starved += o.starved;
    packet_states += o.packet_states;
    profile.merge(o.profile);
  }
};

/// Everything one engine run holds, declared in construction order so the
/// engine is destroyed before what it references.
struct Instance {
  topology::ImplicitTopologyPtr implicit;
  std::unique_ptr<const topology::Network> network;
  std::optional<topology::NetView> view;
  std::unique_ptr<routing::Router> router;
  std::optional<traffic::StandardTraffic> traffic;
  std::optional<CountingRouter> counting_router;
  std::optional<CountingTraffic> counting_traffic;
  std::unique_ptr<sim::Engine> engine;
};

/// Builds topology, router, traffic and engine.  `traced` puts the
/// counting decorators between the engine and the router and traffic, and
/// turns on the engine's counters and phase profiler.
void build(const SimSetup& setup, bool traced, Instance& in,
           SpanRecorder* spans, LayerStats* layers) {
  {
    SpanRecorder::Scope span(spans, "topology_build");
    const auto start = Clock::now();
    if (setup.implicit) {
      in.implicit =
          std::make_shared<const topology::ImplicitTopology>(setup.net);
      in.view.emplace(in.implicit);
    } else {
      in.network = std::make_unique<const topology::Network>(
          topology::build_network(setup.net));
      in.view.emplace(*in.network);
    }
    if (layers != nullptr) layers->topology_s += seconds_since(start);
  }
  {
    SpanRecorder::Scope span(spans, "router_build");
    in.router = routing::make_router(*in.view);
  }
  {
    SpanRecorder::Scope span(spans, "traffic_build");
    in.traffic.emplace(*in.view, setup.workload(*in.view));
  }
  sim::SimConfig config = setup.sim;
  const routing::Router* router = in.router.get();
  sim::TrafficSource* traffic = &*in.traffic;
  if (traced) {
    config.telemetry.counters = true;
    config.telemetry.profile = true;
    router = &in.counting_router.emplace(*in.router);
    traffic = &in.counting_traffic.emplace(*in.traffic);
  }
  SpanRecorder::Scope span(spans, "engine_build");
  in.engine = std::make_unique<sim::Engine>(*in.view, *router, traffic, config);
}

struct SimRun {
  double wall_s = 0.0;
  sim::SimResult result;
  LayerStats layers;  ///< filled by traced runs only
};

SimRun simulate(const SimSetup& setup, bool traced, SpanRecorder* spans) {
  SimRun run;
  SpanRecorder::Scope span(spans, "simulation");
  const auto start = Clock::now();
  CountingSink sink;
  Instance in;
  build(setup, traced, in, spans, &run.layers);
  if (traced) in.engine->set_trace_sink(&sink);
  {
    SpanRecorder::Scope run_span(spans, "engine_run");
    const auto run_start = Clock::now();
    run.result = in.engine->run();
    run.layers.run_s = seconds_since(run_start);
  }
  run.wall_s = seconds_since(start);
  if (traced) {
    using Kind = sim::TraceEvent::Kind;
    LayerStats& l = run.layers;
    const telemetry::Counters& counters = run.result.telemetry_counters;
    l.lanes = in.view->lane_count();
    l.candidates = in.counting_router->stat();
    l.traffic = in.counting_traffic->stat();
    l.created = sink.count(Kind::kCreated);
    l.delivered = sink.count(Kind::kDelivered);
    l.moves = sink.count(Kind::kFlitMoved);
    l.grants = counters.total_grants();
    l.denials = counters.total_denials();
    l.blocked = counters.total_blocked_cycles();
    l.starved = counters.total_credit_starved_cycles();
    l.packet_states = in.engine->packet_count();
    l.profile = run.result.phase_profile;
    l.idle_phase_s = idle_phase_seconds(l.profile, setup.sim);
  }
  run.result.telemetry_counters = {};
  return run;
}

/// One untraced rep timed segment by segment into `best`: set-up, kSlices
/// equal cycle ranges driven through Engine::step(), and Engine::run(),
/// which only finalizes the result once every cycle has been stepped.
/// Returns the rep's set-up and total wall seconds.
std::pair<double, double> simulate_sliced(const SimSetup& setup, BestOf& best,
                                          sim::SimResult& result) {
  const auto start = Clock::now();
  auto segment_start = start;
  double segment_cpu = cpu_seconds();
  std::size_t segment = 0;
  const auto lap = [&] {
    const auto now = Clock::now();
    const double cpu = cpu_seconds();
    best.add(segment++,
             std::chrono::duration<double>(now - segment_start).count(),
             cpu - segment_cpu);
    segment_start = now;
    segment_cpu = cpu;
  };
  Instance in;
  build(setup, false, in, nullptr, nullptr);
  const double setup_s = seconds_since(start);
  lap();
  const std::uint64_t total = setup.sim.total_cycles();
  const std::uint64_t slice =
      std::max<std::uint64_t>(1, (total + kSlices - 1) / kSlices);
  while (in.engine->cycle() < total) {
    const std::uint64_t end = std::min(total, in.engine->cycle() + slice);
    while (in.engine->cycle() < end) in.engine->step();
    lap();
  }
  result = in.engine->run();
  lap();
  return {setup_s, seconds_since(start)};
}

/// Seconds to construct a run without simulating it.
double setup_seconds(const SimSetup& setup) {
  Instance in;
  const auto start = Clock::now();
  build(setup, false, in, nullptr, nullptr);
  return seconds_since(start);
}

// ---- Reporting ------------------------------------------------------------

struct SweepStats {
  std::uint64_t computed = 0;
  std::uint64_t kept = 0;
  std::uint64_t speculated = 0;
  double busy_s = 0.0;
  double capacity_s = 0.0;  ///< pool wall x workers
};

void end_to_end_metrics(Report& r, const BestOf& best, double cycles,
                        const std::vector<double>& setups,
                        std::vector<double> rep_walls) {
  r.rep_walls = std::move(rep_walls);
  r.metric("wall_s", best.wall(), "s");
  r.metric("cpu_s", best.cpu(), "s");
  r.metric("sim_cycles_per_s", cycles / best.wall(), "cycles/s");
  r.metric("setup_s", median(setups), "s");
  r.metric("peak_rss_mib", util::peak_rss_mib(), "MiB");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void layer_metrics(Report& r, const LayerStats& l, const SweepStats& sweep,
                   double trace_overhead, double accepted, double latency) {
  const double moves = static_cast<double>(l.moves);
  const double advance_s = phase(l.profile, EnginePhase::kAdvance);
  r.metric("topology.build_s", l.topology_s, "s");
  r.metric("topology.lanes", static_cast<double>(l.lanes), "count");
  r.metric("routing.candidate_calls", static_cast<double>(l.candidates.count),
           "count");
  r.metric("routing.candidate_ns", l.candidates.mean_ns(), "ns/call");
  r.metric("routing.grants", static_cast<double>(l.grants), "count");
  r.metric("routing.denials", static_cast<double>(l.denials), "count");
  r.metric("routing.grant_ratio",
           ratio(static_cast<double>(l.grants),
                 static_cast<double>(l.grants + l.denials)),
           "ratio");
  r.metric("routing.phase_s", phase(l.profile, EnginePhase::kRouting), "s");
  r.metric("traffic.calls", static_cast<double>(l.traffic.count), "count");
  r.metric("traffic.call_ns", l.traffic.mean_ns(), "ns/call");
  r.metric("traffic.messages_created", static_cast<double>(l.created), "count");
  r.metric("traffic.messages_delivered", static_cast<double>(l.delivered),
           "count");
  r.metric("traffic.arrivals_s", phase(l.profile, EnginePhase::kArrivals), "s");
  r.metric("sim.flit_moves", moves, "count");
  r.metric("sim.advance_s", advance_s, "s");
  r.metric("sim.advance_ns_per_move", ratio(advance_s * 1e9, moves), "ns/move");
  r.metric("sim.run_ns_per_move", ratio(l.run_s * 1e9, moves), "ns/move");
  r.metric("sim.blocked_cycles", static_cast<double>(l.blocked), "lane-cycles");
  r.metric("sim.flow_control_s", phase(l.profile, EnginePhase::kFlowControl),
           "s");
  r.metric("sim.credit_starved_cycles", static_cast<double>(l.starved),
           "lane-cycles");
  r.metric("sim.packet_states", static_cast<double>(l.packet_states), "count");
  r.metric("sim.accepted_fraction", accepted, "fraction");
  r.metric("sim.latency_us_mean", latency, "us");
  r.metric("experiment.points_computed", static_cast<double>(sweep.computed),
           "count");
  r.metric("experiment.points_kept", static_cast<double>(sweep.kept), "count");
  r.metric("experiment.points_speculated",
           static_cast<double>(sweep.speculated), "count");
  r.metric("experiment.speculation_waste",
           ratio(static_cast<double>(sweep.speculated),
                 static_cast<double>(sweep.computed)),
           "ratio");
  r.metric("experiment.pool_utilization", ratio(sweep.busy_s, sweep.capacity_s),
           "ratio");
  r.metric("experiment.point_busy_s",
           ratio(sweep.busy_s, static_cast<double>(sweep.computed)), "s");
  r.metric("telemetry.trace_overhead", trace_overhead, "ratio");
  r.metric("telemetry.profile_coverage", l.profile.coverage(), "ratio");
  r.metric("telemetry.idle_phase_s", l.idle_phase_s, "s");
}

void write_spans(const std::string& path, const std::string& workload,
                 const SpanRecorder& spans, const LayerStats& l) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  out << "{\"workload\":\"" << workload << "\",\"spans\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const SpanRecorder::Span& s = spans.spans()[i];
    const int index = static_cast<int>(i);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"parent\":%d,\"start_s\":%.9f,"
                  "\"dur_s\":%.9f,\"self_s\":%.9f}",
                  i == 0 ? "" : ",", s.name.c_str(), s.parent, s.start_s,
                  spans.duration(index), spans.self_seconds(index));
    out << buf;
  }
  std::snprintf(buf, sizeof buf,
                "],\"calls\":{\"Router::candidates\":{\"count\":%llu,"
                "\"ns\":%llu},\"TrafficSource\":{\"count\":%llu,"
                "\"ns\":%llu}}}\n",
                static_cast<unsigned long long>(l.candidates.count),
                static_cast<unsigned long long>(l.candidates.ns),
                static_cast<unsigned long long>(l.traffic.count),
                static_cast<unsigned long long>(l.traffic.ns));
  out << buf;
}

// ---- Single-simulation workloads -------------------------------------------

traffic::WorkloadSpec uniform_fixed(double load) {
  traffic::WorkloadSpec w;
  w.pattern = traffic::WorkloadSpec::Pattern::kUniform;
  w.offered = load;
  w.length = traffic::LengthSpec::fixed(32);
  return w;
}

/// 512-node radix-8 TMIN on the implicit backend, saturated: arrivals and
/// per-message state grow while the hot lane state stays in L2.
SimSetup tmin_saturated(const Options& o) {
  SimSetup s;
  s.net = experiment::tmin_config("cube", o.tiny ? 4 : 8, o.tiny ? 4 : 3);
  s.implicit = true;
  s.load = 1.0;
  s.workload = [](const topology::NetView&) { return uniform_fixed(1.0); };
  s.sim.seed = o.seed;
  s.sim.warmup_cycles = o.tiny ? 100 : 400;
  s.sim.measure_cycles = o.tiny ? 200 : 800;
  s.sim.drain_cycles = o.tiny ? 50 : 200;
  s.sim.implicit_topology = true;
  // Saturation holds every source queue at its cap by design.
  s.sim.sustainable_queue_limit = std::numeric_limits<std::uint64_t>::max();
  return s;
}

/// 512-node radix-8 BMIN with 2 VCs, 4-flit credit buffers and credit
/// delay 2: turnaround routing, VC arbitration and the credit calendar.
SimSetup bmin_vc_deep(const Options& o) {
  SimSetup s;
  s.net = experiment::bmin_config(o.tiny ? 4 : 8, 3, 2);
  s.load = 0.6;
  s.workload = [](const topology::NetView&) { return uniform_fixed(0.6); };
  s.sim.seed = o.seed;
  s.sim.warmup_cycles = o.tiny ? 200 : 400;
  s.sim.measure_cycles = o.tiny ? 400 : 800;
  s.sim.drain_cycles = o.tiny ? 100 : 200;
  s.sim.buffer_depth = 4;
  s.sim.flow_control = sim::FlowControlScheme::kCredit;
  s.sim.credit_delay = 2;
  return s;
}

Report run_single(const Options& o, const SimSetup& setup) {
  Report report;
  const bool tmin = setup.net.kind == topology::NetworkKind::kTMIN;
  const auto check_run = [&](const sim::SimResult& r) {
    const std::string digest = stats_digest(r);
    if (report.digest.empty()) report.digest = digest;
    report.check(r.delivered_messages_total > 0, "nothing delivered");
    const double accepted = r.throughput_fraction();
    if (tmin) {
      // large_n_smoke's band around the closed-form unbuffered acceptance.
      const double bound = analysis::unbuffered_delta_acceptance(
          setup.net.radix, setup.net.stages, setup.load);
      const double ratio = accepted / bound;
      report.check(ratio >= 0.3 && ratio <= 1.1,
                   "accepted/analytical ratio " + std::to_string(ratio) +
                       " outside [0.3, 1.1]");
    } else {
      report.check(accepted > 0.0 && accepted <= 1.0,
                   "accepted fraction " + std::to_string(accepted) +
                       " outside (0, 1]");
    }
    report.check(digest == report.digest,
                 "digest " + digest + " differs from the first run's " +
                     report.digest);
    if (!o.expect_digest.empty()) {
      report.check(digest == o.expect_digest,
                   "digest " + digest + " differs from the reference " +
                       o.expect_digest);
    }
  };

  if (!o.trace) {
    std::vector<double> setups, walls;
    for (int i = 0; i < kSetupSamples; ++i) {
      setups.push_back(setup_seconds(setup));
    }
    BestOf best;
    const auto start = Clock::now();
    do {
      sim::SimResult result;
      const auto [setup_s, wall_s] = simulate_sliced(setup, best, result);
      check_run(result);
      setups.push_back(setup_s);
      walls.push_back(wall_s);
    } while (another_rep_fits(start, walls, o.seconds));
    end_to_end_metrics(report, best,
                       static_cast<double>(setup.sim.total_cycles()), setups,
                       std::move(walls));
    return report;
  }

  // Untraced and traced reps alternate, and each side keeps its fastest,
  // so a burst of host interference does not land on one side only.
  double plain_wall = std::numeric_limits<double>::infinity();
  std::optional<SimRun> traced;
  SpanRecorder spans;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    const SimRun plain = simulate(setup, false, nullptr);
    check_run(plain.result);
    plain_wall = std::min(plain_wall, plain.wall_s);
    SpanRecorder rep_spans;
    SimRun run = simulate(setup, true, &rep_spans);
    report.check(stats_digest(run.result) == report.digest,
                 "tracing changed the simulated statistics");
    if (!traced || run.wall_s < traced->wall_s) {
      traced = std::move(run);
      spans = std::move(rep_spans);
    }
  }
  report.check(traced->layers.delivered ==
                   traced->result.delivered_messages_total,
               "trace sink deliveries differ from the engine's count");
  if (o.expect_moves >= 0) {
    report.check(traced->layers.moves ==
                     static_cast<std::uint64_t>(o.expect_moves),
                 "flit moves " + std::to_string(traced->layers.moves) +
                     " differ from the reference " +
                     std::to_string(o.expect_moves));
  }
  layer_metrics(report, traced->layers, SweepStats{},
                traced->wall_s / plain_wall,
                traced->result.throughput_fraction(),
                traced->result.mean_latency_us());
  write_spans(o.spans_path, o.workload, spans, traced->layers);
  return report;
}

// ---- paper_sweep ----------------------------------------------------------

experiment::RunOptions sweep_run_options(const Options& o) {
  experiment::RunOptions ro;
  ro.quick = o.tiny;
  ro.seed = o.seed;
  ro.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  return ro;
}

/// Full mode keeps its ten loads and its early stop, but runs a tenth of
/// its cycles per point (4k + 16k + 8k).  A full-mode figure takes 4-8 s
/// on four threads, so a 30 s run would hold one or two samples of it and
/// any burst of load from other tenants of the host would land in the
/// result; at a tenth it holds about fifteen.  The source-queue limit of
/// a sustainable point shrinks with the window, so saturated series still
/// stop early and the pool still speculates.
constexpr std::uint64_t kSweepCycleDivisor = 10;

sim::SimConfig sweep_sim_config(const experiment::RunOptions& ro) {
  sim::SimConfig config = ro.sim_config();
  if (!ro.quick) {
    config.warmup_cycles /= kSweepCycleDivisor;
    config.measure_cycles /= kSweepCycleDivisor;
    config.drain_cycles /= kSweepCycleDivisor;
    config.sustainable_queue_limit /= kSweepCycleDivisor;
  }
  return config;
}

/// run_figure's sweep, through the same point pool, at the cycles of
/// sweep_sim_config.  None of the three figures injects faults, so
/// run_figure's static-coverage pass would add nothing to the table.
experiment::FigureResult run_sweep_figure(const std::string& id,
                                          const experiment::RunOptions& ro) {
  const experiment::FigureSpec spec = experiment::figure_spec(id);
  experiment::SweepOptions sweep = ro.sweep_options();
  sweep.sim = sweep_sim_config(ro);
  experiment::PoolOptions pool;
  pool.threads = ro.threads;
  experiment::FigureResult result;
  result.id = id;
  result.title = spec.title;
  result.series = experiment::run_series_pool(spec.series, sweep, pool,
                                              &result.pool_stats);
  return result;
}

/// One timed figure sweep and its printed table.
struct FigureRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  experiment::FigureResult result;
  std::string table;
};

FigureRun run_figure_timed(const std::string& id,
                           const experiment::RunOptions& ro,
                           SpanRecorder* spans) {
  FigureRun run;
  {
    SpanRecorder::Scope span(spans, "figure:" + id);
    const double cpu_start = cpu_seconds();
    const auto start = Clock::now();
    run.result = run_sweep_figure(id, ro);
    run.wall_s = seconds_since(start);
    run.cpu_s = cpu_seconds() - cpu_start;
  }
  std::ostringstream os;
  experiment::print_figure(run.result, os);
  run.table = os.str();
  return run;
}

std::uint64_t kept_points(const experiment::FigureResult& figure) {
  std::uint64_t kept = 0;
  for (const experiment::Series& series : figure.series) {
    kept += series.points.size();
  }
  return kept;
}

/// Every figure once, in order (the traced run's unit).
struct SweepRep {
  double wall_s = 0.0;
  std::vector<FigureRun> figures;
  SweepStats stats;
};

SweepRep run_sweep(const experiment::RunOptions& ro, SpanRecorder* spans) {
  SweepRep rep;
  for (const std::string& id : kFigures) {
    rep.figures.push_back(run_figure_timed(id, ro, spans));
    const FigureRun& run = rep.figures.back();
    const experiment::PoolStats& pool = run.result.pool_stats;
    rep.wall_s += run.wall_s;
    rep.stats.computed += pool.computed;
    rep.stats.speculated += pool.speculated;
    rep.stats.busy_s += pool.busy_seconds;
    rep.stats.capacity_s += pool.wall_seconds * pool.threads;
    rep.stats.kept += kept_points(run.result);
  }
  return rep;
}

/// The "== title ==" and "-- series --" lines of a figure table: they do
/// not depend on the seed, so they are checked at every seed.
std::string headings(const std::string& table) {
  std::istringstream in(table);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0 || line.rfind("-- ", 0) == 0) {
      out += line + "\n";
    }
  }
  return out;
}

/// Checks one regenerated table of figure `f`; `first` keeps the first
/// table of each figure this run produced.
void check_table(Report& report, const Options& o, std::size_t f,
                 const std::string& table, std::vector<std::string>& first) {
  const std::string& id = kFigures[f];
  // results/ holds full-mode tables: the same titles and series, but
  // numbers from ten times the cycles.
  const std::string path = o.results_dir + "/" + id + ".txt";
  report.check(headings(table) == headings(read_file(path)),
               id + ": series differ from " + path);
  if (first[f].empty()) first[f] = table;
  report.check(table == first[f], id + ": table differs from this run's first");
}

/// Run-level checks once every figure ran: points were kept, and the
/// digest of the tables matches the reference when one is pinned.
void check_tables_digest(Report& report, const Options& o,
                         const std::vector<std::string>& first,
                         std::uint64_t kept) {
  std::string all_tables;
  for (const std::string& table : first) all_tables += table;
  report.digest = fnv_digest(all_tables);
  report.check(kept > 0, "no sweep point kept");
  if (!o.expect_digest.empty()) {
    report.check(report.digest == o.expect_digest,
                 "tables digest " + report.digest +
                     " differs from the reference " + o.expect_digest);
  }
}

SimSetup point_setup(const experiment::SeriesSpec& series, double load,
                     const sim::SimConfig& base) {
  SimSetup setup;
  setup.net = series.net;
  setup.load = load;
  setup.workload = [&series, load](const topology::NetView& view) {
    return series.workload(view, load);
  };
  setup.sim = base;
  if (series.tweak_sim) series.tweak_sim(setup.sim);
  return setup;
}

/// Set-up of every series' first point: figure specs, then topology,
/// router, traffic and engine construction per series.
double sweep_setup_seconds(const experiment::RunOptions& ro) {
  const auto start = Clock::now();
  const sim::SimConfig base = sweep_sim_config(ro);
  const double load = ro.loads().front();
  for (const std::string& id : kFigures) {
    const experiment::FigureSpec spec = experiment::figure_spec(id);
    for (const experiment::SeriesSpec& series : spec.series) {
      Instance in;
      build(point_setup(series, load, base), false, in, nullptr, nullptr);
    }
  }
  return seconds_since(start);
}

/// Re-runs every kept wormhole point of the traced sweep through the
/// instrumented harness (the pool's engines cannot be wrapped from
/// outside), checking that each reproduces the sweep's numbers.
/// Store-and-forward points run a different engine and are skipped.
LayerStats replay_kept_points(const experiment::RunOptions& ro,
                              const SweepRep& rep, Report& report) {
  struct Job {
    const experiment::SeriesSpec* series;
    const experiment::SweepPoint* point;
  };
  std::vector<experiment::FigureSpec> specs;
  std::vector<Job> jobs;
  for (const std::string& id : kFigures) {
    specs.push_back(experiment::figure_spec(id));
  }
  for (std::size_t f = 0; f < specs.size(); ++f) {
    for (std::size_t s = 0; s < specs[f].series.size(); ++s) {
      const experiment::SeriesSpec& series = specs[f].series[s];
      if (series.switching != experiment::SeriesSpec::Switching::kWormhole) {
        continue;
      }
      for (const experiment::SweepPoint& point :
           rep.figures[f].result.series[s].points) {
        jobs.push_back({&series, &point});
      }
    }
  }
  const sim::SimConfig base = sweep_sim_config(ro);
  std::vector<LayerStats> stats(jobs.size());
  std::vector<std::string> errors(jobs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();) {
      const Job& job = jobs[j];
      const std::string where =
          job.series->label + " at load " +
          std::to_string(job.point->offered_requested);
      try {
        const SimRun run = simulate(
            point_setup(*job.series, job.point->offered_requested, base), true,
            nullptr);
        stats[j] = run.layers;
        if (run.result.throughput_fraction() != job.point->throughput ||
            run.result.mean_latency_us() != job.point->latency_us) {
          errors[j] = "replayed point differs from the sweep: " + where;
        }
      } catch (const std::exception& e) {
        errors[j] = "replay failed at " + where + ": " + e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < ro.threads; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  LayerStats total;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    total.add(stats[j]);
    report.check(errors[j].empty(), errors[j]);
  }
  return total;
}

Report run_paper_sweep(const Options& o) {
  Report report;
  const experiment::RunOptions ro = sweep_run_options(o);
  std::vector<std::string> first(kFigures.size());

  if (!o.trace) {
    std::vector<double> setups, walls;
    for (int i = 0; i < kSweepSetupSamples / 2; ++i) {
      setups.push_back(sweep_setup_seconds(ro));
    }
    // Each figure is one segment of the rep.  After one pass over all of
    // them, figures keep running in turn, skipping any whose fastest time
    // no longer fits in the budget.
    BestOf best;
    std::uint64_t kept = 0;
    const auto start = Clock::now();
    for (std::size_t f = 0; f < kFigures.size(); ++f) {
      const FigureRun run = run_figure_timed(kFigures[f], ro, nullptr);
      check_table(report, o, f, run.table, first);
      best.add(f, run.wall_s, run.cpu_s);
      walls.push_back(run.wall_s);
      kept += kept_points(run.result);
    }
    for (std::size_t i = 0, misses = 0; misses < kFigures.size(); ++i) {
      const std::size_t f = i % kFigures.size();
      if (seconds_since(start) + best.wall(f) > o.seconds) {
        ++misses;
        continue;
      }
      misses = 0;
      const FigureRun run = run_figure_timed(kFigures[f], ro, nullptr);
      check_table(report, o, f, run.table, first);
      best.add(f, run.wall_s, run.cpu_s);
      walls.push_back(run.wall_s);
    }
    check_tables_digest(report, o, first, kept);
    for (int i = 0; i < kSweepSetupSamples / 2; ++i) {
      setups.push_back(sweep_setup_seconds(ro));
    }
    const double cycles =
        static_cast<double>(kept) *
        static_cast<double>(sweep_sim_config(ro).total_cycles());
    end_to_end_metrics(report, best, cycles, setups, std::move(walls));
    return report;
  }

  const SweepRep plain = run_sweep(ro, nullptr);
  for (std::size_t f = 0; f < kFigures.size(); ++f) {
    check_table(report, o, f, plain.figures[f].table, first);
  }
  check_tables_digest(report, o, first, plain.stats.kept);
  // results/ holds full-mode tables.  At the default seed the traced run
  // also regenerates them through run_figure itself and compares bytes,
  // so a modelling change that updates results/ carries this check along.
  if (!o.tiny && o.seed == kDefaultSeed) {
    for (const std::string& id : kFigures) {
      std::ostringstream os;
      experiment::print_figure(experiment::run_figure(id, ro), os);
      const std::string path = o.results_dir + "/" + id + ".txt";
      report.check(os.str() == read_file(path),
                   id + ": full-mode table differs from " + path);
    }
  }
  SpanRecorder spans;
  experiment::RunOptions profiled = ro;
  profiled.profile = true;
  SweepRep traced;
  {
    SpanRecorder::Scope span(&spans, "paper_sweep");
    traced = run_sweep(profiled, &spans);
  }
  for (std::size_t f = 0; f < kFigures.size(); ++f) {
    report.check(traced.figures[f].table == plain.figures[f].table,
                 kFigures[f] + ": profiling changed the table");
  }

  // A network is built per computed point; time one build per series.
  double build_s = 0.0;
  std::uint64_t lanes = 0;
  std::size_t series_count = 0;
  {
    SpanRecorder::Scope span(&spans, "topology_build");
    for (const std::string& id : kFigures) {
      for (const experiment::SeriesSpec& series :
           experiment::figure_spec(id).series) {
        const auto start = Clock::now();
        const topology::Network network = topology::build_network(series.net);
        build_s += seconds_since(start);
        lanes += network.lane_count();
        ++series_count;
      }
    }
  }
  LayerStats layers;
  {
    SpanRecorder::Scope span(&spans, "replay");
    layers = replay_kept_points(ro, traced, report);
  }
  if (o.expect_moves >= 0) {
    report.check(layers.moves == static_cast<std::uint64_t>(o.expect_moves),
                 "replayed flit moves " + std::to_string(layers.moves) +
                     " differ from the reference " +
                     std::to_string(o.expect_moves));
  }
  layers.topology_s =
      build_s / static_cast<double>(series_count) *
      static_cast<double>(traced.stats.computed);
  layers.lanes = lanes;

  double accepted = 0.0, latency = 0.0;
  for (const FigureRun& figure : traced.figures) {
    for (const experiment::Series& series : figure.result.series) {
      for (const experiment::SweepPoint& point : series.points) {
        accepted += point.throughput;
        latency += point.latency_us;
      }
    }
  }
  const double kept = static_cast<double>(traced.stats.kept);
  layer_metrics(report, layers, traced.stats, traced.wall_s / plain.wall_s,
                ratio(accepted, kept), ratio(latency, kept));
  write_spans(o.spans_path, o.workload, spans, layers);
  return report;
}

}  // namespace

double SpanRecorder::self_seconds(int index) const {
  double children = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == index) children += duration(static_cast<int>(i));
  }
  return duration(index) - children;
}

int SpanRecorder::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_s = seconds_since(origin_);
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int index) {
  spans_[index].end_s = seconds_since(origin_);
  stack_.pop_back();
}

bool is_workload(const std::string& name) {
  return name == "paper_sweep" || name == "tmin_saturated" ||
         name == "bmin_vc_deep";
}

Report run_workload(const Options& options) {
  if (options.workload == "paper_sweep") return run_paper_sweep(options);
  if (options.workload == "tmin_saturated") {
    return run_single(options, tmin_saturated(options));
  }
  return run_single(options, bmin_vc_deep(options));
}

}  // namespace perfbench
