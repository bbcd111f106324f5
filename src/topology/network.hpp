// Concrete network graph: switches, physical channels, and virtual lanes.
//
// A Network instance is a fully wired MIN ready for routing, analysis, and
// flit-level simulation.  It covers all four designs of the paper:
//
//   * TMIN  — unidirectional, one channel with one lane per switch port;
//   * DMIN  — unidirectional, d physical channels per switch port;
//   * VMIN  — unidirectional, one physical channel per port carrying m
//             virtual-channel lanes (flit-level multiplexed);
//   * BMIN  — bidirectional butterfly (fat tree) with a channel pair per
//             port and turnaround routing.
//
// Terminology (matches the paper): a *physical channel* is one set of
// wires moving at most one flit per cycle; a *lane* is a virtual channel
// with its own single-flit buffer at the downstream end.  Dilated channels
// are distinct physical channels; virtual channels are lanes sharing one
// physical channel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology_spec.hpp"
#include "util/check.hpp"

namespace wormsim::topology {

using NodeId = std::uint32_t;
using SwitchId = std::uint32_t;
using ChannelId = std::uint32_t;
using LaneId = std::uint32_t;

inline constexpr std::uint32_t kInvalidId = 0xffffffffu;
// RadixSpec rejects node counts >= kInvalidId, so node ids never meet it.
static_assert(kInvalidId == util::kAddressSpaceLimit);

enum class NetworkKind : std::uint8_t { kTMIN, kDMIN, kVMIN, kBMIN };

std::string to_string(NetworkKind kind);

/// Which of the switch's two faces a port belongs to.  Processor nodes sit
/// on the left of stage 0; higher stages are to the right.
enum class Side : std::uint8_t { kLeft = 0, kRight = 1 };

enum class ChannelRole : std::uint8_t {
  kInjection,  ///< node -> first-stage switch
  kEjection,   ///< switch -> node
  kForward,    ///< inter-stage, toward higher stages
  kBackward,   ///< inter-stage, toward lower stages (BMIN only)
};

/// "injection", "ejection", "forward" or "backward".
std::string role_name(ChannelRole role);

/// Channel bandwidth (Section 5): 20 flits/microsecond.  A channel moves
/// at most one flit per cycle, so one cycle is 0.05 us.
inline constexpr double kFlitsPerMicrosecond = 20.0;

struct Endpoint {
  enum class Kind : std::uint8_t { kNode, kSwitch };
  Kind kind = Kind::kNode;
  std::uint32_t id = kInvalidId;  ///< node id or switch id
  Side side = Side::kLeft;        ///< meaningful for switches only
  std::uint8_t port = 0;          ///< port index within the side

  bool is_switch() const { return kind == Kind::kSwitch; }
  bool is_node() const { return kind == Kind::kNode; }
};

/// One set of physical wires; transmits at most one flit per cycle.
struct PhysChannel {
  ChannelId id = kInvalidId;
  Endpoint src;
  Endpoint dst;
  ChannelRole role = ChannelRole::kForward;
  std::uint8_t num_lanes = 1;
  LaneId first_lane = kInvalidId;
  /// Index of the connection pattern C_i this channel realizes (injection
  /// channels belong to C_0, the channels entering stage G_i to C_i, and
  /// ejection channels of an n-stage unidirectional MIN to C_n).
  std::uint32_t conn_index = kInvalidId;
  /// The paper's channel address within connection C_i: the left-side port
  /// address it feeds (equivalently switch*k + port), used by the
  /// partitioning analysis.  For node links this is the node address.
  std::uint64_t address = 0;
};

/// A virtual-channel lane; owns a single-flit buffer at its dst end.
struct Lane {
  LaneId id = kInvalidId;
  ChannelId channel = kInvalidId;
  std::uint8_t lane_in_channel = 0;
};

/// Per-side port -> lane lists for one switch.
struct SwitchPorts {
  std::vector<std::vector<LaneId>> in_lanes;   ///< arriving lanes, per port
  std::vector<std::vector<LaneId>> out_lanes;  ///< departing lanes, per port
};

struct Switch {
  SwitchId id = kInvalidId;
  std::uint32_t stage = 0;
  std::uint32_t index = 0;  ///< position within its stage
  SwitchPorts left;
  SwitchPorts right;
};

/// Parameters selecting one of the paper's network designs.
struct NetworkConfig {
  NetworkKind kind = NetworkKind::kTMIN;
  /// Topology name for unidirectional MINs: cube, butterfly, omega,
  /// baseline, or flip.  BMINs are always butterfly-wired (Section 3).
  std::string topology = "cube";
  unsigned radix = 4;   ///< k, the switch degree
  unsigned stages = 3;  ///< n; the network has N = k^n nodes
  unsigned dilation = 2;  ///< channels per port (DMIN; others use 1)
  unsigned vcs = 2;       ///< lanes per channel (VMIN; others use 1)

  /// Model variant: also multiplex the node EJECTION channel into `vcs`
  /// virtual lanes (the switch's output port has VC buffers; the node
  /// interface demultiplexes interleaved worms).  The paper's one-port
  /// description ("the local processor must transmit (receive) packets in
  /// sequence") can be read either way; the default (false) serializes
  /// ejection.  See EXPERIMENTS.md for the effect on the VMIN-vs-BMIN
  /// ordering.  Injection stays single-lane: a one-port source transmits
  /// strictly in sequence regardless.
  bool vc_node_links = false;

  /// Extra-stage MIN (Section 6 future work): prepend this many adaptive
  /// stages wired with perfect shuffles ahead of the base topology.  A
  /// worm may leave an extra stage through ANY output port (a Delta
  /// network is self-routing from any entry channel), giving k^e disjoint
  /// route choices per pair for fault tolerance and hot-spot relief.
  /// Unidirectional kinds only.
  unsigned extra_stages = 0;

  /// Multibutterfly (Section 6 future work, ref [31]): when > 0, build a
  /// randomly-wired splitter network instead of a Delta MIN.  Each switch
  /// output port carries this many channels to *distinct random switches*
  /// of the correct splitter sub-block, so routing stays destination-tag
  /// (t_i = d_{n-1-i}) while every hop offers `splitter_dilation`
  /// alternatives wired for expansion.  Requires kind == kTMIN with
  /// dilation == vcs == 1 and no extra stages.
  unsigned splitter_dilation = 0;
  /// Seed for the random splitter wiring (deterministic per seed).
  std::uint64_t wiring_seed = 0x5eed;

  /// A short human-readable identifier, e.g. "DMIN(cube,k=4,n=3,d=2)".
  std::string describe() const;
};

/// A fully wired MIN.
class Network {
 public:
  Network(NetworkConfig config, TopologySpec spec);

  const NetworkConfig& config() const { return config_; }
  NetworkKind kind() const { return config_.kind; }
  const TopologySpec& topology() const { return spec_; }
  const util::RadixSpec& address_spec() const { return spec_.address_spec(); }

  unsigned radix() const { return spec_.radix(); }
  /// Physical stage count, including any adaptive extra stages.
  unsigned stages() const { return spec_.stages() + config_.extra_stages; }
  /// Leading adaptive stages (0 for the paper's four base designs).
  unsigned extra_stages() const { return config_.extra_stages; }
  /// Stages of the underlying Delta topology (the tag-routed part).
  unsigned base_stages() const { return spec_.stages(); }
  std::uint64_t node_count() const { return spec_.nodes(); }
  std::uint32_t switches_per_stage() const {
    return static_cast<std::uint32_t>(node_count() / radix());
  }

  bool bidirectional() const { return config_.kind == NetworkKind::kBMIN; }

  const std::vector<Switch>& switches() const { return switches_; }
  const std::vector<PhysChannel>& channels() const { return channels_; }
  const std::vector<Lane>& lanes() const { return lanes_; }

  const Switch& switch_ref(SwitchId id) const { return switches_.at(id); }
  const PhysChannel& channel(ChannelId id) const { return channels_.at(id); }
  const Lane& lane(LaneId id) const { return lanes_.at(id); }
  const PhysChannel& lane_channel(LaneId id) const {
    return channels_[lanes_.at(id).channel];
  }

  SwitchId switch_at(unsigned stage, std::uint32_t index) const {
    WORMSIM_DCHECK(stage < stages() && index < switches_per_stage());
    return static_cast<SwitchId>(stage) * switches_per_stage() + index;
  }

  ChannelId injection_channel(NodeId node) const {
    return injection_channel_.at(node);
  }
  ChannelId ejection_channel(NodeId node) const {
    return ejection_channel_.at(node);
  }

  /// Total lanes whose buffers sit at switches or nodes; the simulator
  /// sizes its state arrays from this.
  std::size_t lane_count() const { return lanes_.size(); }

  /// -- Mutators used only by builders ------------------------------------
  /// Adds a physical channel with `lanes` virtual lanes and registers its
  /// lanes with the endpoint switches' port tables.  Returns its id.
  ChannelId add_channel(Endpoint src, Endpoint dst, ChannelRole role,
                        unsigned lanes, std::uint32_t conn_index,
                        std::uint64_t address);

  void set_injection_channel(NodeId node, ChannelId ch);
  void set_ejection_channel(NodeId node, ChannelId ch);

  /// Internal consistency check; aborts on violation.  Builders call this
  /// once construction finishes.
  void validate() const;

 private:
  NetworkConfig config_;
  TopologySpec spec_;
  std::vector<Switch> switches_;
  std::vector<PhysChannel> channels_;
  std::vector<Lane> lanes_;
  std::vector<ChannelId> injection_channel_;
  std::vector<ChannelId> ejection_channel_;
};

/// Builds any of the four network designs from its config.
Network build_network(const NetworkConfig& config);

/// Resolves a topology name ("cube", "butterfly", "omega", "baseline",
/// "flip") to its TopologySpec.
TopologySpec topology_by_name(const std::string& name, unsigned radix,
                              unsigned stages);

}  // namespace wormsim::topology
