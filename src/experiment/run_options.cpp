#include "experiment/run_options.hpp"

#include <cstdio>
#include <cstdlib>
#include <variant>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace wormsim::experiment {

sim::SimConfig RunOptions::sim_config() const {
  sim::SimConfig config = sim;
  config.seed = seed;
  if (quick) {
    config.warmup_cycles = 5'000;
    config.measure_cycles = 15'000;
    config.drain_cycles = 5'000;
  } else {
    config.warmup_cycles = 40'000;
    config.measure_cycles = 160'000;
    config.drain_cycles = 80'000;
  }
  config.telemetry.profile = profile;
  return config;
}

std::vector<double> RunOptions::loads() const {
  if (quick) return {0.10, 0.30, 0.50};
  return {0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90};
}

SweepOptions RunOptions::sweep_options() const {
  SweepOptions options;
  options.loads = loads();
  options.sim = sim_config();
  options.stop_after_unsustainable = 2;
  return options;
}

namespace {

/// A count that must be at least 1.
struct Positive {
  std::uint32_t* value;
};

/// Where a knob's value lives.  The alternative's type picks the parser:
/// util::parse_u32 / parse_u64 for integers, util::parse_nonneg_double
/// for fractions, util::parse_bool for switches.
using Field = std::variant<bool*, std::uint32_t*, std::uint64_t*, Positive,
                           double*, std::string*, sim::FlowControlScheme*>;

struct Knob {
  std::uint32_t group;  ///< the knob:: group that binds it
  const char* flag;
  const char* env;
  const char* help;
  Field (*field)(RunOptions& options);
};

const Knob kKnobs[] = {
    {knob::kQuick, "quick", "WORMSIM_QUICK",
     "smoke-test mode (short simulations, three loads)",
     [](RunOptions& o) -> Field { return &o.quick; }},
    {knob::kSeed, "seed", "WORMSIM_SEED", "traffic random seed",
     [](RunOptions& o) -> Field { return &o.seed; }},
    {knob::kFigureRun, "threads", "WORMSIM_THREADS",
     "sweep-pool worker threads (0 = one per hardware thread); results "
     "match the sequential run bitwise",
     [](RunOptions& o) -> Field { return &o.threads; }},
    {knob::kFigureRun, "json-dir", "WORMSIM_JSON_DIR",
     "also write <dir>/<id>.json results (empty = none)",
     [](RunOptions& o) -> Field { return &o.json_dir; }},
    {knob::kFigureRun, "cache-dir", "WORMSIM_CACHE_DIR",
     "content-addressed sweep-point cache directory (empty = none)",
     [](RunOptions& o) -> Field { return &o.cache_dir; }},
    {knob::kScenario, "buffer-depth", "WORMSIM_BUFFER_DEPTH",
     "per-lane input fifo depth in flits (packets under store-and-forward)",
     [](RunOptions& o) -> Field { return Positive{&o.sim.buffer_depth}; }},
    {knob::kScenario, "flow-control", "WORMSIM_FLOW_CONTROL",
     "backpressure scheme: credit, onoff, or vct",
     [](RunOptions& o) -> Field { return &o.sim.flow_control; }},
    {knob::kScenario, "credit-delay", "WORMSIM_CREDIT_DELAY",
     "credit/signal return delay in cycles",
     [](RunOptions& o) -> Field { return &o.sim.credit_delay; }},
    {knob::kScenario, "implicit-topology", "WORMSIM_IMPLICIT_TOPOLOGY",
     "compute topology records on the fly instead of materializing the "
     "graph (bitwise neutral; DESIGN.md §13)",
     [](RunOptions& o) -> Field { return &o.sim.implicit_topology; }},
    {knob::kScenario, "fault-fraction", "WORMSIM_FAULT_FRACTION",
     "kill this fraction of interior channels (DESIGN.md §14); the fault "
     "figures set their own",
     [](RunOptions& o) -> Field { return &o.sim.fault_fraction; }},
    {knob::kScenario, "fault-seed", "WORMSIM_FAULT_SEED",
     "fault-plan RNG seed, independent of --seed",
     [](RunOptions& o) -> Field { return &o.sim.fault_seed; }},
    {knob::kScenario, "fault-at-cycle", "WORMSIM_FAULT_AT_CYCLE",
     "cycle the fault plan lands",
     [](RunOptions& o) -> Field { return &o.sim.fault_at_cycle; }},
    {knob::kHeartbeat, "heartbeat-cycles", "WORMSIM_HEARTBEAT",
     "NDJSON heartbeat every N simulated cycles (DESIGN.md §15; 0 = off)",
     [](RunOptions& o) -> Field {
       return &o.sim.telemetry.heartbeat_cycles;
     }},
    {knob::kHeartbeat, "heartbeat-dir", "WORMSIM_HEARTBEAT_DIR",
     "heartbeat stream root (empty = .); figures write <dir>/<id>/",
     [](RunOptions& o) -> Field { return &o.sim.telemetry.heartbeat_dir; }},
    {knob::kProfile, "profile", "WORMSIM_PROFILE",
     "attribute engine wall time to phases (DESIGN.md §15; diagnostics)",
     [](RunOptions& o) -> Field { return &o.profile; }},
};

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

/// Stores `text` into `field`; false rejects it.
bool parse(const Field& field, const std::string& text) {
  return std::visit(
      Overloaded{
          [&](bool* v) { return util::parse_bool(text, v); },
          [&](std::uint32_t* v) { return util::parse_u32(text, v); },
          [&](std::uint64_t* v) { return util::parse_u64(text, v); },
          [&](Positive f) {
            std::uint32_t v = 0;
            if (!util::parse_u32(text, &v) || v == 0) return false;
            *f.value = v;
            return true;
          },
          [&](double* v) { return util::parse_nonneg_double(text, v); },
          [&](std::string* v) {
            *v = text;
            return true;
          },
          [&](sim::FlowControlScheme* v) {
            const auto scheme = sim::parse_flow_control(text);
            if (scheme) *v = *scheme;
            return scheme.has_value();
          }},
      field);
}

/// The field's value as --help prints it.
std::string show(const Field& field) {
  return std::visit(
      Overloaded{
          [](bool* v) -> std::string { return *v ? "true" : "false"; },
          [](Positive f) { return std::to_string(*f.value); },
          [](double* v) { return util::format_double(*v, 4); },
          [](std::string* v) { return *v; },
          [](sim::FlowControlScheme* v) {
            return std::string(sim::to_string(*v));
          },
          [](auto* v) { return std::to_string(*v); }},
      field);
}

/// What a rejected value should have looked like.
const char* expected(const Field& field) {
  return std::visit(
      Overloaded{[](bool*) { return "0, 1, true or false"; },
                 [](Positive) { return "a positive decimal integer"; },
                 [](double*) { return "a non-negative number"; },
                 [](sim::FlowControlScheme*) {
                   return "credit, onoff, or vct";
                 },
                 [](auto) { return "a non-negative decimal integer"; }},
      field);
}

/// Applies the knob's variable when it is set and non-empty.
void apply_env(const Knob& knob, RunOptions& options) {
  const char* raw = std::getenv(knob.env);
  if (raw == nullptr || *raw == '\0') return;
  const Field field = knob.field(options);
  if (!parse(field, raw)) {
    std::fprintf(stderr, "%s: expected %s, got '%s'\n", knob.env,
                 expected(field), raw);
    std::abort();
  }
}

}  // namespace

RunOptions RunOptions::from_env() {
  RunOptions options;
  for (const Knob& knob : kKnobs) apply_env(knob, options);
  return options;
}

void bind_run_knobs(util::CliParser& cli, RunOptions* options,
                    std::uint32_t knobs) {
  for (const Knob& knob : kKnobs) {
    if ((knobs & knob.group) == 0) continue;
    apply_env(knob, *options);
    const Field field = knob.field(*options);
    cli.add_flag(
        knob.flag, [field](const std::string& value) {
          return parse(field, value);
        },
        std::string(knob.help) + " [" + knob.env + "]", show(field),
        /*is_switch=*/std::holds_alternative<bool*>(field));
  }
}

}  // namespace wormsim::experiment
