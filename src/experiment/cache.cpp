#include "experiment/cache.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "experiment/results_json.hpp"
#include "telemetry/json.hpp"
#include "topology/net_view.hpp"
#include "util/check.hpp"

namespace wormsim::experiment {

namespace {

// ---- Engine-semantics version -------------------------------------------
//
// The golden digest table is the repo's single source of truth for "the
// engines behave exactly like this"; hashing it gives the cache a version
// that changes precisely when an intentional semantic change regenerates
// the digests (tests/golden_test.cpp documents the recipe).

struct GoldenDigestRow {
  const char* name;
  unsigned long long digest;
  unsigned long long delivered_messages_total;
  unsigned long long latency_mean_bits;
};

constexpr GoldenDigestRow kGoldenDigests[] = {
#include "tests/engine_golden.inc"
};

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  void str(const char* s) {
    for (; *s != '\0'; ++s) byte(static_cast<std::uint8_t>(*s));
    byte(0);
  }
};

std::string hex16(std::uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, v);
  return std::string(buffer);
}

// ---- Canonical serialization --------------------------------------------

class KeyBuilder {
 public:
  void field(const char* name, const std::string& value) {
    out_ << name << '=' << value << ';';
  }
  void field(const char* name, std::uint64_t value) {
    out_ << name << '=' << value << ';';
  }
  void field(const char* name, unsigned value) {
    out_ << name << '=' << value << ';';
  }
  void field(const char* name, bool value) {
    out_ << name << '=' << (value ? 1 : 0) << ';';
  }
  void field(const char* name, double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out_ << name << '=' << buffer << ';';
  }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

bool is_type(const telemetry::JsonValue* v, telemetry::JsonValue::Type type) {
  return v != nullptr && v->type() == type;
}

/// Structural pre-check so sweep_point_from_json (which aborts on missing
/// fields) only ever sees well-formed entries; anything else is a miss.
bool valid_point_json(const telemetry::JsonValue& p) {
  using Type = telemetry::JsonValue::Type;
  if (!p.is_object()) return false;
  for (const char* key :
       {"offered", "offered_measured", "throughput", "latency_us",
        "network_latency_us", "queueing_us", "max_source_queue",
        "delivered_messages", "delivery_fraction", "terminated_messages",
        "time_to_drain_us"}) {
    if (!is_type(p.find(key), Type::kNumber)) return false;
  }
  if (!is_type(p.find("sustainable"), Type::kBool)) return false;
  for (const char* flag : {"latency_p95_overflow", "latency_p99_overflow"}) {
    const telemetry::JsonValue* overflow = p.find(flag);
    if (!is_type(overflow, Type::kBool)) return false;
    if (overflow->as_bool()) continue;
    // Strip the "_overflow" suffix to get the value key.
    const std::string value_key =
        std::string(flag, std::strlen(flag) - std::strlen("_overflow")) +
        "_us";
    if (!is_type(p.find(value_key.c_str()), Type::kNumber)) return false;
  }
  return true;
}

}  // namespace

const std::string& ResultCache::engine_semantics_version() {
  static const std::string version = [] {
    Fnv fnv;
    for (const GoldenDigestRow& row : kGoldenDigests) {
      fnv.str(row.name);
      fnv.u64(row.digest);
      fnv.u64(row.delivered_messages_total);
      fnv.u64(row.latency_mean_bits);
    }
    return hex16(fnv.h);
  }();
  return version;
}

std::string ResultCache::fingerprint(const SeriesSpec& spec, double load,
                                     const sim::SimConfig& base_config) {
  // Base config first, per-series tweak last — the exact composition
  // run_point applies, so the fingerprint sees what the engine sees.
  sim::SimConfig sim_config = base_config;
  if (spec.tweak_sim) spec.tweak_sim(sim_config);

  KeyBuilder key;
  key.field("cache_schema", static_cast<unsigned>(kCacheSchemaVersion));
  key.field("engine", engine_semantics_version());

  const topology::NetworkConfig& net = spec.net;
  key.field("net.kind", topology::to_string(net.kind));
  key.field("net.topology", net.topology);
  key.field("net.radix", net.radix);
  key.field("net.stages", net.stages);
  key.field("net.dilation", net.dilation);
  key.field("net.vcs", net.vcs);
  key.field("net.vc_node_links", net.vc_node_links);
  key.field("net.extra_stages", net.extra_stages);
  key.field("net.splitter_dilation", net.splitter_dilation);
  key.field("net.wiring_seed", net.wiring_seed);

  key.field("switching",
            spec.switching == SeriesSpec::Switching::kStoreForward
                ? std::string("store_forward")
                : std::string("wormhole"));

  key.field("sim.seed", sim_config.seed);
  key.field("sim.arbitration",
            static_cast<unsigned>(sim_config.arbitration));
  key.field("sim.lane_selection",
            static_cast<unsigned>(sim_config.lane_selection));
  key.field("sim.warmup_cycles", sim_config.warmup_cycles);
  key.field("sim.measure_cycles", sim_config.measure_cycles);
  key.field("sim.drain_cycles", sim_config.drain_cycles);
  key.field("sim.sustainable_queue_limit",
            sim_config.sustainable_queue_limit);
  key.field("sim.queue_capacity", sim_config.queue_capacity);
  key.field("sim.deadlock_watchdog_cycles",
            sim_config.deadlock_watchdog_cycles);
  key.field("sim.buffer_depth", sim_config.buffer_depth);
  key.field("sim.flow_control",
            std::string(sim::to_string(sim_config.flow_control)));
  key.field("sim.credit_delay", sim_config.credit_delay);
  key.field("sim.fault_fraction", sim_config.fault_fraction);
  key.field("sim.fault_seed", sim_config.fault_seed);
  key.field("sim.fault_at_cycle", sim_config.fault_at_cycle);
  // implicit_topology is deliberately NOT keyed: both backends produce
  // bitwise-identical results (tests/implicit_test.cpp pins it), so a
  // point computed on either backend answers for both.

  // Resolve the workload exactly as run_point will: the factory may
  // depend on the built network (clusterings need its address space).
  // Fingerprinting must not materialize the graph when run_point would
  // not — at 2M nodes that allocation is the whole point of the
  // implicit backend.
  const topology::OwnedNetView built =
      topology::build_net_view(spec.net, sim_config.implicit_topology);
  const traffic::WorkloadSpec workload = spec.workload(built.view, load);
  key.field("load", load);
  key.field("wl.pattern", static_cast<unsigned>(workload.pattern));
  key.field("wl.hotspot_extra", workload.hotspot_extra);
  key.field("wl.butterfly_index", workload.butterfly_index);
  key.field("wl.offered", workload.offered);
  key.field("wl.len.kind", static_cast<unsigned>(workload.length.kind));
  key.field("wl.len.min", workload.length.min);
  key.field("wl.len.max", workload.length.max);
  key.field("wl.len.long_min", workload.length.long_min);
  key.field("wl.len.long_max", workload.length.long_max);
  key.field("wl.len.short_fraction", workload.length.short_fraction);
  {
    std::ostringstream clusters;
    for (std::uint32_t c : workload.clustering.cluster_of) {
      clusters << c << ',';
    }
    key.field("wl.cluster_of", clusters.str());
  }
  {
    std::ostringstream weights;
    for (double w : workload.cluster_weights) {
      char buffer[40];
      std::snprintf(buffer, sizeof(buffer), "%.17g", w);
      weights << buffer << ',';
    }
    key.field("wl.cluster_weights", weights.str());
  }
  return key.str();
}

ResultCache::ResultCache(std::string directory)
    : directory_(std::move(directory)) {
  WORMSIM_CHECK_MSG(!directory_.empty(), "empty cache directory");
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  WORMSIM_CHECK_MSG(!ec, "cannot create cache directory");
}

std::string ResultCache::entry_path(const std::string& fingerprint) const {
  Fnv fnv;
  for (char c : fingerprint) fnv.byte(static_cast<std::uint8_t>(c));
  return directory_ + "/" + hex16(fnv.h) + ".json";
}

std::optional<SweepPoint> ResultCache::load(
    const std::string& fingerprint) const {
  const std::string path = entry_path(fingerprint);
  std::ifstream in(path);
  if (!in.good()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  // Everything below treats damage as a miss: a truncated write, a stale
  // schema, or a filename hash collision must trigger recomputation (and
  // an eventual overwrite), never a crash or a wrong result.
  std::string error;
  const telemetry::JsonValue document =
      telemetry::JsonValue::parse(buffer.str(), &error);
  const auto reject = [this]() -> std::optional<SweepPoint> {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };
  if (!error.empty() || !document.is_object()) return reject();
  using Type = telemetry::JsonValue::Type;
  const telemetry::JsonValue* schema =
      document.find("cache_schema_version");
  if (!is_type(schema, Type::kNumber) ||
      schema->as_number() != kCacheSchemaVersion) {
    return reject();
  }
  const telemetry::JsonValue* key = document.find("key");
  if (!is_type(key, Type::kString) || key->as_string() != fingerprint) {
    return reject();
  }
  const telemetry::JsonValue* point = document.find("point");
  if (point == nullptr || !valid_point_json(*point)) return reject();
  hits_.fetch_add(1, std::memory_order_relaxed);
  return sweep_point_from_json(*point);
}

void ResultCache::store(const std::string& fingerprint,
                        const SweepPoint& point) const {
  telemetry::JsonValue document = telemetry::JsonValue::object();
  document.set("cache_schema_version", kCacheSchemaVersion);
  document.set("engine_semantics", engine_semantics_version());
  document.set("key", fingerprint);
  document.set("point", sweep_point_to_json(point));

  telemetry::write_json_file(entry_path(fingerprint), document);
  stores_.fetch_add(1, std::memory_order_relaxed);
}

ResultCache::Stats ResultCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.stores = stores_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace wormsim::experiment
