// Uniform read view over a materialized Network or an ImplicitTopology.
//
// Engines, routers, traffic generators, and validators consume network
// structure through this copyable value type, so the same code runs
// against the fully wired graph (anything, including random
// multibutterflies) or the O(stages) implicit backend (every
// deterministic Delta wiring, selected by SimConfig::implicit_topology).
// It converts implicitly from `const Network&`, keeping every existing
// call site source-compatible; the caller keeps the Network alive, just
// as with the old `const Network&` parameters.
//
// Record accessors return PhysChannel / Lane BY VALUE: on the implicit
// branch the record is recomputed on the spot and has no storage to
// reference.  `const PhysChannel& ch = view.lane_channel(l);` still works
// at call sites via const-ref lifetime extension.
//
// The per-call backend branch costs one predictable-branch test on
// cold/warm paths only; the engines' hot loops run entirely on their
// flattened SoA copies (DESIGN.md §12) and never touch this view.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "topology/implicit.hpp"
#include "topology/network.hpp"

namespace wormsim::topology {

class NetView {
 public:
  /// Intentionally non-explicit: every legacy `f(const Network&)` call
  /// site keeps compiling against `f(const NetView&)`.
  NetView(const Network& net) : net_(&net) {}  // NOLINT(runtime/explicit)
  explicit NetView(ImplicitTopologyPtr implicit)
      : implicit_(std::move(implicit)) {
    WORMSIM_CHECK(implicit_ != nullptr);
  }

  const ImplicitTopology* implicit() const { return implicit_.get(); }

  const NetworkConfig& config() const {
    return net_ != nullptr ? net_->config() : implicit_->config();
  }
  NetworkKind kind() const { return config().kind; }
  const TopologySpec& topology() const {
    return net_ != nullptr ? net_->topology() : implicit_->topology();
  }
  const util::RadixSpec& address_spec() const {
    return net_ != nullptr ? net_->address_spec() : implicit_->address_spec();
  }

  unsigned radix() const {
    return net_ != nullptr ? net_->radix() : implicit_->radix();
  }
  unsigned stages() const {
    return net_ != nullptr ? net_->stages() : implicit_->stages();
  }
  unsigned extra_stages() const {
    return net_ != nullptr ? net_->extra_stages()
                           : implicit_->extra_stages();
  }
  unsigned base_stages() const {
    return net_ != nullptr ? net_->base_stages() : implicit_->base_stages();
  }
  std::uint64_t node_count() const {
    return net_ != nullptr ? net_->node_count() : implicit_->node_count();
  }
  std::uint32_t switches_per_stage() const {
    return net_ != nullptr ? net_->switches_per_stage()
                           : implicit_->switches_per_stage();
  }
  bool bidirectional() const {
    return net_ != nullptr ? net_->bidirectional()
                           : implicit_->bidirectional();
  }

  std::size_t switch_count() const {
    return net_ != nullptr ? net_->switches().size()
                           : implicit_->switch_count();
  }
  std::size_t channel_count() const {
    return net_ != nullptr ? net_->channels().size()
                           : implicit_->channel_count();
  }
  std::size_t lane_count() const {
    return net_ != nullptr ? net_->lane_count() : implicit_->lane_count();
  }

  PhysChannel channel(ChannelId id) const {
    return net_ != nullptr ? net_->channel(id) : implicit_->channel(id);
  }
  Lane lane(LaneId id) const {
    return net_ != nullptr ? net_->lane(id) : implicit_->lane(id);
  }
  PhysChannel lane_channel(LaneId id) const {
    return net_ != nullptr ? net_->lane_channel(id)
                           : implicit_->lane_channel(id);
  }
  ChannelId injection_channel(NodeId node) const {
    return net_ != nullptr ? net_->injection_channel(node)
                           : implicit_->injection_channel(node);
  }
  ChannelId ejection_channel(NodeId node) const {
    return net_ != nullptr ? net_->ejection_channel(node)
                           : implicit_->ejection_channel(node);
  }

  SwitchId switch_at(unsigned stage, std::uint32_t index) const {
    return net_ != nullptr ? net_->switch_at(stage, index)
                           : implicit_->switch_at(stage, index);
  }
  std::uint32_t switch_stage(SwitchId sw) const {
    return net_ != nullptr ? net_->switch_ref(sw).stage
                           : implicit_->switch_stage(sw);
  }

  /// Out-lane enumeration in the materialized port-table order (pinned
  /// identical across backends by tests/implicit_test.cpp).  `Out` is any
  /// push_back container — routing::CandidateList, std::vector<LaneId>.
  template <typename Out>
  void append_right_out_lanes(SwitchId sw, unsigned port, Out& out) const {
    if (net_ != nullptr) {
      for (LaneId lane : net_->switch_ref(sw).right.out_lanes.at(port)) {
        out.push_back(lane);
      }
      return;
    }
    implicit_->append_right_out_lanes(sw, port, out);
  }
  template <typename Out>
  void append_left_out_lanes(SwitchId sw, unsigned port, Out& out) const {
    if (net_ != nullptr) {
      for (LaneId lane : net_->switch_ref(sw).left.out_lanes.at(port)) {
        out.push_back(lane);
      }
      return;
    }
    implicit_->append_left_out_lanes(sw, port, out);
  }
  template <typename Out>
  void append_all_right_out_lanes(SwitchId sw, Out& out) const {
    if (net_ != nullptr) {
      for (const auto& lanes : net_->switch_ref(sw).right.out_lanes) {
        for (LaneId lane : lanes) out.push_back(lane);
      }
      return;
    }
    implicit_->append_all_right_out_lanes(sw, out);
  }

  /// Largest candidate list any router query can return: sizes the
  /// engine's per-lane route memo.  Materialized networks are measured
  /// from the port tables (construction-time only, O(switches·ports));
  /// the implicit backend answers in closed form.
  std::uint32_t max_route_fanout() const {
    if (net_ == nullptr) return implicit_->max_route_fanout();
    std::uint32_t fanout = 1;
    // Adaptive queries (extra stages, BMIN below the turn) return a whole
    // right side; port-addressed queries return one port's lanes.
    const bool whole_right = bidirectional() || extra_stages() > 0;
    for (const Switch& sw : net_->switches()) {
      std::uint32_t right_total = 0;
      for (const auto& lanes : sw.right.out_lanes) {
        right_total += static_cast<std::uint32_t>(lanes.size());
        fanout = std::max(fanout, static_cast<std::uint32_t>(lanes.size()));
      }
      if (whole_right) fanout = std::max(fanout, right_total);
      for (const auto& lanes : sw.left.out_lanes) {
        fanout = std::max(fanout, static_cast<std::uint32_t>(lanes.size()));
      }
    }
    return fanout;
  }

  /// Visits every channel in ascending id order (the engines'
  /// construction scans).  On the implicit branch records are computed
  /// one at a time — nothing is materialized.
  template <typename Fn>
  void for_each_channel(Fn&& fn) const {
    if (net_ != nullptr) {
      for (const PhysChannel& ch : net_->channels()) fn(ch);
      return;
    }
    const std::size_t count = implicit_->channel_count();
    for (std::size_t id = 0; id < count; ++id) {
      fn(implicit_->channel(static_cast<ChannelId>(id)));
    }
  }

 private:
  const Network* net_ = nullptr;
  ImplicitTopologyPtr implicit_;
};

/// A view together with the graph it reads: `network` holds the
/// materialized graph, or is null on the implicit backend, whose view
/// owns its topology.  Moving it keeps `view` valid: the graph lives on
/// the heap.
struct OwnedNetView {
  std::unique_ptr<const Network> network;
  NetView view;
};

/// The one backend rule: the implicit backend when `implicit` asks for it
/// (SimConfig::implicit_topology) and it can express `config`, otherwise
/// the materialized graph (random multibutterfly wiring has no implicit
/// form).  Both give bitwise-identical simulations.
inline OwnedNetView build_net_view(const NetworkConfig& config,
                                   bool implicit) {
  if (implicit && ImplicitTopology::supports(config)) {
    return {nullptr, NetView(std::make_shared<const ImplicitTopology>(config))};
  }
  auto network = std::make_unique<const Network>(build_network(config));
  const NetView view(*network);
  return {std::move(network), view};
}

}  // namespace wormsim::topology
