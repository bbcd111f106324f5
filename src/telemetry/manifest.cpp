#include "telemetry/manifest.hpp"

#ifndef WORMSIM_GIT_REVISION
#define WORMSIM_GIT_REVISION "unknown"
#endif

namespace wormsim::telemetry {

const char* git_revision() { return WORMSIM_GIT_REVISION; }

JsonValue manifest_to_json(const RunManifest& manifest) {
  JsonValue json = JsonValue::object();
  json.set("schema_version", kResultSchemaVersion);
  json.set("tool", "wormsim");
  json.set("id", manifest.id);
  json.set("title", manifest.title);
  json.set("seed", manifest.seed);
  json.set("quick", manifest.quick);
  json.set("git_revision", std::string(git_revision()));
  json.set("simulated_cycles", manifest.simulated_cycles);
  json.set("wall_seconds", manifest.wall_seconds);
  json.set("cycles_per_second", manifest.cycles_per_second());
  json.set("peak_rss_mib", manifest.peak_rss_mib);
  if (manifest.pool_threads > 0) {
    JsonValue pool = JsonValue::object();
    pool.set("threads", static_cast<std::uint64_t>(manifest.pool_threads));
    pool.set("busy_seconds", manifest.pool_busy_seconds);
    pool.set("utilization", manifest.pool_utilization());
    pool.set("points_computed", manifest.points_computed);
    pool.set("points_cached", manifest.points_cached);
    pool.set("points_speculated", manifest.points_speculated);
    json.set("pool", std::move(pool));
  }
  if (manifest.profile.enabled) {
    JsonValue profile = JsonValue::object();
    JsonValue phases = JsonValue::object();
    for (std::size_t i = 0; i < kEnginePhaseCount; ++i) {
      phases.set(engine_phase_name(static_cast<EnginePhase>(i)),
                 manifest.profile.seconds[i]);
    }
    profile.set("phase_seconds", std::move(phases));
    profile.set("attributed_seconds", manifest.profile.attributed_seconds());
    profile.set("engine_wall_seconds", manifest.profile.total_seconds);
    profile.set("coverage", manifest.profile.coverage());
    json.set("profile", std::move(profile));
  }
  if (manifest.cache_used) {
    JsonValue cache = JsonValue::object();
    cache.set("hits", manifest.cache_hits);
    cache.set("misses", manifest.cache_misses);
    cache.set("rejected", manifest.cache_rejected);
    cache.set("stores", manifest.cache_stores);
    json.set("cache", std::move(cache));
  }
  return json;
}

}  // namespace wormsim::telemetry
