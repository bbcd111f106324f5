// Versioned JSON emission for figure/ablation results.
//
// Bridges the experiment layer to telemetry's ResultWriter: a FigureResult
// plus a RunManifest becomes one schema-versioned JSON document with the
// run's provenance (seed, git revision, wall time, cycles/sec) and every
// (series, point) of the latency/throughput curves.  This is the producer
// behind figures_cli's --json-dir (WORMSIM_JSON_DIR).
#pragma once

#include <string>

#include "experiment/figures.hpp"
#include "telemetry/result_writer.hpp"

namespace wormsim::experiment {

/// One SweepPoint as a JSON object.  An overflowed p95 (+infinity) is
/// written as null plus a `latency_p95_overflow` flag; every other field
/// round-trips bitwise through sweep_point_from_json (the result cache
/// replays stored points in place of fresh computations and must not
/// perturb any figure output).
telemetry::JsonValue sweep_point_to_json(const SweepPoint& point);

/// Inverse of sweep_point_to_json.  Aborts on missing fields; callers that
/// must survive corrupt input (the cache) parse and type-check first.
SweepPoint sweep_point_from_json(const telemetry::JsonValue& json);

/// Full document: manifest fields at the top level (schema_version, seed,
/// git_revision, cycles_per_second, ...) plus a "series" array with one
/// entry per curve and one "points" element per sweep point.
telemetry::JsonValue figure_to_json(const FigureResult& result,
                                    const telemetry::RunManifest& manifest);

/// Parses a figure_to_json document back into a FigureResult (summary
/// fields only).  Aborts on schema mismatch; used by telemetry_report and
/// the round-trip tests.
FigureResult figure_from_json(const telemetry::JsonValue& document);

/// Writes `<dir>/<result.id>.json`; returns the path written.
std::string write_figure_json(const FigureResult& result,
                              const telemetry::RunManifest& manifest,
                              const std::string& dir);

}  // namespace wormsim::experiment
