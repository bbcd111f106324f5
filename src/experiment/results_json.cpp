#include "experiment/results_json.hpp"

#include <cmath>
#include <filesystem>
#include <limits>

#include "util/check.hpp"

namespace wormsim::experiment {

using telemetry::JsonValue;

JsonValue sweep_point_to_json(const SweepPoint& point) {
  JsonValue p = JsonValue::object();
  p.set("offered", point.offered_requested);
  p.set("offered_measured", point.offered_measured);
  p.set("throughput", point.throughput);
  p.set("latency_us", point.latency_us);
  // JSON has no +infinity: an overflowed p95 (saturated run, tail
  // beyond the histogram range) is written as null plus an explicit
  // flag so readers cannot mistake it for a finite latency.
  const bool p95_overflow = std::isinf(point.latency_p95_us);
  p.set("latency_p95_us",
        p95_overflow ? JsonValue() : JsonValue(point.latency_p95_us));
  p.set("latency_p95_overflow", p95_overflow);
  const bool p99_overflow = std::isinf(point.latency_p99_us);
  p.set("latency_p99_us",
        p99_overflow ? JsonValue() : JsonValue(point.latency_p99_us));
  p.set("latency_p99_overflow", p99_overflow);
  p.set("network_latency_us", point.network_latency_us);
  p.set("queueing_us", point.queueing_us);
  p.set("sustainable", point.sustainable);
  p.set("max_source_queue", point.max_source_queue);
  p.set("delivered_messages", point.delivered_messages);
  p.set("delivery_fraction", point.delivery_fraction);
  p.set("terminated_messages", point.terminated_messages);
  p.set("time_to_drain_us", point.time_to_drain_us);
  // Onset verdicts only exist when the point ran with heartbeats on
  // (DESIGN.md §15); emitted conditionally so heartbeat-free results —
  // including every committed figure — are byte-identical to before.
  if (point.saturation_onset_cycle != telemetry::kNoOnset) {
    p.set("saturation_onset_cycle", point.saturation_onset_cycle);
  }
  if (point.fault_onset_cycle != telemetry::kNoOnset) {
    p.set("fault_onset_cycle", point.fault_onset_cycle);
  }
  return p;
}

SweepPoint sweep_point_from_json(const JsonValue& p) {
  SweepPoint point;
  point.offered_requested = p.at("offered").as_number();
  point.offered_measured = p.at("offered_measured").as_number();
  point.throughput = p.at("throughput").as_number();
  point.latency_us = p.at("latency_us").as_number();
  const JsonValue* overflow = p.find("latency_p95_overflow");
  if (overflow != nullptr && overflow->as_bool()) {
    point.latency_p95_us = std::numeric_limits<double>::infinity();
  } else {
    point.latency_p95_us = p.at("latency_p95_us").as_number();
  }
  const JsonValue* p99_overflow = p.find("latency_p99_overflow");
  if (p99_overflow != nullptr && p99_overflow->as_bool()) {
    point.latency_p99_us = std::numeric_limits<double>::infinity();
  } else if (const JsonValue* p99 = p.find("latency_p99_us")) {
    point.latency_p99_us = p99->as_number();
  }
  point.network_latency_us = p.at("network_latency_us").as_number();
  point.queueing_us = p.at("queueing_us").as_number();
  point.sustainable = p.at("sustainable").as_bool();
  point.max_source_queue = p.at("max_source_queue").as_uint();
  point.delivered_messages = p.at("delivered_messages").as_uint();
  if (const JsonValue* v = p.find("delivery_fraction")) {
    point.delivery_fraction = v->as_number();
  }
  if (const JsonValue* v = p.find("terminated_messages")) {
    point.terminated_messages = v->as_uint();
  }
  if (const JsonValue* v = p.find("time_to_drain_us")) {
    point.time_to_drain_us = v->as_number();
  }
  if (const JsonValue* v = p.find("saturation_onset_cycle")) {
    point.saturation_onset_cycle = v->as_uint();
  }
  if (const JsonValue* v = p.find("fault_onset_cycle")) {
    point.fault_onset_cycle = v->as_uint();
  }
  return point;
}

JsonValue figure_to_json(const FigureResult& result,
                         const telemetry::RunManifest& manifest) {
  JsonValue document = manifest_to_json(manifest);
  JsonValue series_array = JsonValue::array();
  for (const Series& series : result.series) {
    JsonValue series_json = JsonValue::object();
    series_json.set("label", series.label);
    if (series.static_coverage >= 0.0) {
      series_json.set("static_coverage", series.static_coverage);
    }
    JsonValue points = JsonValue::array();
    for (const SweepPoint& point : series.points) {
      points.push_back(sweep_point_to_json(point));
    }
    series_json.set("points", std::move(points));
    series_array.push_back(std::move(series_json));
  }
  document.set("series", std::move(series_array));
  return document;
}

FigureResult figure_from_json(const JsonValue& document) {
  WORMSIM_CHECK_MSG(document.is_object(), "result document is not an object");
  WORMSIM_CHECK_MSG(
      document.at("schema_version").as_number() ==
          telemetry::kResultSchemaVersion,
      "unsupported result schema version");
  FigureResult result;
  result.id = document.at("id").as_string();
  result.title = document.at("title").as_string();
  for (const JsonValue& series_json : document.at("series").items()) {
    Series series;
    series.label = series_json.at("label").as_string();
    if (const JsonValue* coverage = series_json.find("static_coverage")) {
      series.static_coverage = coverage->as_number();
    }
    for (const JsonValue& p : series_json.at("points").items()) {
      series.points.push_back(sweep_point_from_json(p));
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

std::string write_figure_json(const FigureResult& result,
                              const telemetry::RunManifest& manifest,
                              const std::string& dir) {
  WORMSIM_CHECK_MSG(!dir.empty(), "empty result directory");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  WORMSIM_CHECK_MSG(!ec, "cannot create result directory");
  const std::string path = dir + "/" + result.id + ".json";
  telemetry::write_json_file(path, figure_to_json(result, manifest));
  return path;
}

}  // namespace wormsim::experiment
