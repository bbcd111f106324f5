// Post-run aggregation of flit counters into a per-stage channel heatmap.
//
// Channels are grouped by (connection level C_i, role) — the role split
// keeps a BMIN's forward and backward channels of the same level apart —
// and each group reports per-channel utilization (flit crossings per
// measured cycle; a physical channel carries at most one flit per cycle,
// so utilization is a true 0..1 fraction), min/mean/max over the group,
// and the hottest channel.  An ASCII renderer turns each stage into one
// row of intensity glyphs for terminal inspection.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/counters.hpp"
#include "topology/net_view.hpp"

namespace wormsim::telemetry {

struct ChannelCell {
  topology::ChannelId channel = topology::kInvalidId;
  std::uint64_t flits = 0;
  double utilization = 0.0;
};

struct StageRow {
  std::uint32_t conn_index = 0;
  topology::ChannelRole role = topology::ChannelRole::kForward;
  /// Cells ordered by channel address within the connection level.
  std::vector<ChannelCell> cells;
  std::uint64_t total_flits = 0;
  double min_utilization = 0.0;
  double mean_utilization = 0.0;
  double max_utilization = 0.0;
  topology::ChannelId hottest_channel = topology::kInvalidId;
};

struct ChannelHeatmap {
  /// Measured cycles the counters cover (the utilization denominator).
  std::uint64_t cycles = 0;
  /// Rows ordered by (conn_index, role).
  std::vector<StageRow> stages;
  std::uint64_t total_flits = 0;
  topology::ChannelId hottest_channel = topology::kInvalidId;
  double hottest_utilization = 0.0;
};

/// Aggregates lane counters into the per-stage heatmap.  `cycles` must be
/// the number of cycles the counters were collected over (the engine's
/// measurement window).
ChannelHeatmap build_heatmap(const topology::NetView& network,
                             const Counters& counters, std::uint64_t cycles);

/// Renders one glyph row per stage (intensity ramp " .:-=+*#%@") plus a
/// min/mean/max summary line and the hottest-channel report.
void print_heatmap(const ChannelHeatmap& heatmap, std::ostream& os);

/// Short label for a stage row, e.g. "C_1 fwd".
std::string stage_label(const StageRow& row);

}  // namespace wormsim::telemetry
