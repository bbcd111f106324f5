#include "telemetry/result_writer.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

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

std::optional<std::string> json_dir_from_env() {
  const char* dir = std::getenv("WORMSIM_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return std::nullopt;
  return std::string(dir);
}

ResultWriter::ResultWriter(std::string directory)
    : directory_(std::move(directory)) {
  WORMSIM_CHECK_MSG(!directory_.empty(), "empty result directory");
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  WORMSIM_CHECK_MSG(!ec, "cannot create result directory");
}

std::string ResultWriter::write(const std::string& name,
                                const JsonValue& document) const {
  const std::string path = directory_ + "/" + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  WORMSIM_CHECK_MSG(out.good(), "cannot open result file for writing");
  document.dump(out, 2);
  out << "\n";
  out.close();
  WORMSIM_CHECK_MSG(out.good(), "result file write failed");
  return path;
}

JsonValue read_json_file(const std::string& path) {
  std::ifstream in(path);
  WORMSIM_CHECK_MSG(in.good(), "cannot open JSON result file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  JsonValue document = JsonValue::parse(buffer.str(), &error);
  WORMSIM_CHECK_MSG(error.empty(), "JSON result file failed to parse");
  return document;
}

}  // namespace wormsim::telemetry
