#include "telemetry/heatmap.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "util/check.hpp"
#include "util/table.hpp"

namespace wormsim::telemetry {

using topology::ChannelRole;
using topology::PhysChannel;

ChannelHeatmap build_heatmap(const topology::NetView& network,
                             const Counters& counters, std::uint64_t cycles) {
  WORMSIM_CHECK_MSG(counters.enabled(), "heatmap needs collected counters");
  ChannelHeatmap heatmap;
  heatmap.cycles = cycles;

  // Group channels by (connection level, role); map keeps rows ordered.
  std::map<std::pair<std::uint32_t, std::uint8_t>,
           std::vector<topology::ChannelId>>
      groups;
  network.for_each_channel([&groups](const PhysChannel& ch) {
    groups[{ch.conn_index, static_cast<std::uint8_t>(ch.role)}].push_back(
        ch.id);
  });

  for (auto& [key, channels] : groups) {
    StageRow row;
    row.conn_index = key.first;
    row.role = static_cast<ChannelRole>(key.second);
    std::sort(channels.begin(), channels.end(),
              [&network](topology::ChannelId a, topology::ChannelId b) {
                return network.channel(a).address < network.channel(b).address;
              });
    row.min_utilization = 1.0;
    for (topology::ChannelId id : channels) {
      ChannelCell cell;
      cell.channel = id;
      cell.flits = counters.channel_flits(network, id);
      cell.utilization =
          cycles > 0 ? static_cast<double>(cell.flits) /
                           static_cast<double>(cycles)
                     : 0.0;
      row.total_flits += cell.flits;
      row.min_utilization = std::min(row.min_utilization, cell.utilization);
      if (cell.utilization >= row.max_utilization) {
        row.max_utilization = cell.utilization;
        row.hottest_channel = id;
      }
      row.cells.push_back(cell);
    }
    if (row.cells.empty()) {
      row.min_utilization = 0.0;
    } else {
      double sum = 0.0;
      for (const ChannelCell& cell : row.cells) sum += cell.utilization;
      row.mean_utilization = sum / static_cast<double>(row.cells.size());
    }
    heatmap.total_flits += row.total_flits;
    if (row.max_utilization >= heatmap.hottest_utilization) {
      heatmap.hottest_utilization = row.max_utilization;
      heatmap.hottest_channel = row.hottest_channel;
    }
    heatmap.stages.push_back(std::move(row));
  }
  return heatmap;
}

std::string stage_label(const StageRow& row) {
  std::string label = "C_" + std::to_string(row.conn_index);
  switch (row.role) {
    case ChannelRole::kInjection: label += " inj"; break;
    case ChannelRole::kEjection:  label += " ej";  break;
    case ChannelRole::kForward:   label += " fwd"; break;
    case ChannelRole::kBackward:  label += " bwd"; break;
  }
  return label;
}

namespace {

char intensity_glyph(double utilization) {
  static constexpr char kRamp[] = " .:-=+*#%@";
  const int steps = static_cast<int>(sizeof(kRamp)) - 2;  // minus NUL, minus 1
  // Clamp in the double domain first: casting a value outside int's range
  // (an inf/huge utilization from corrupted counters) is undefined
  // behavior, and NaN compares false against everything, so it maps to
  // the cold end rather than through the cast.
  double scaled = utilization * steps + 0.5;
  if (!(scaled > 0.0)) scaled = 0.0;
  if (scaled > static_cast<double>(steps)) scaled = steps;
  const int index = std::clamp(static_cast<int>(scaled), 0, steps);
  return kRamp[index];
}

}  // namespace

void print_heatmap(const ChannelHeatmap& heatmap, std::ostream& os) {
  os << "channel heatmap over " << heatmap.cycles << " cycles ("
     << heatmap.total_flits << " flit crossings)\n";
  for (const StageRow& row : heatmap.stages) {
    std::string glyphs;
    glyphs.reserve(row.cells.size());
    for (const ChannelCell& cell : row.cells) {
      glyphs.push_back(intensity_glyph(cell.utilization));
    }
    os << "  " << stage_label(row);
    for (std::size_t pad = stage_label(row).size(); pad < 8; ++pad) os << ' ';
    os << "[" << glyphs << "]  min "
       << util::format_double(row.min_utilization * 100.0, 1) << "%  mean "
       << util::format_double(row.mean_utilization * 100.0, 1) << "%  max "
       << util::format_double(row.max_utilization * 100.0, 1) << "% (ch "
       << row.hottest_channel << ")\n";
  }
  os << "  hottest channel: " << heatmap.hottest_channel << " at "
     << util::format_double(heatmap.hottest_utilization * 100.0, 1) << "%\n";
}

}  // namespace wormsim::telemetry
