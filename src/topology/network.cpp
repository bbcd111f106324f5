#include "topology/network.hpp"

#include <sstream>

#include "util/rng.hpp"

namespace wormsim::topology {

std::string to_string(NetworkKind kind) {
  switch (kind) {
    case NetworkKind::kTMIN:
      return "TMIN";
    case NetworkKind::kDMIN:
      return "DMIN";
    case NetworkKind::kVMIN:
      return "VMIN";
    case NetworkKind::kBMIN:
      return "BMIN";
  }
  return "?";
}

std::string role_name(ChannelRole role) {
  switch (role) {
    case ChannelRole::kInjection:
      return "injection";
    case ChannelRole::kEjection:
      return "ejection";
    case ChannelRole::kForward:
      return "forward";
    case ChannelRole::kBackward:
      return "backward";
  }
  return "?";
}

std::string NetworkConfig::describe() const {
  std::ostringstream os;
  if (splitter_dilation > 0) {
    os << "MBMIN(k=" << radix << ",n=" << stages << ",d=" << splitter_dilation
       << ")";
    return os.str();
  }
  os << to_string(kind) << "(";
  os << (kind == NetworkKind::kBMIN ? "butterfly" : topology);
  os << ",k=" << radix << ",n=" << stages;
  if (extra_stages > 0) os << ",x=" << extra_stages;
  if (kind == NetworkKind::kDMIN) os << ",d=" << dilation;
  if (kind == NetworkKind::kVMIN || (kind == NetworkKind::kBMIN && vcs > 1)) {
    os << ",m=" << vcs;
  }
  if (vc_node_links) os << ",evc";
  os << ")";
  return os.str();
}

Network::Network(NetworkConfig config, TopologySpec spec)
    : config_(std::move(config)), spec_(std::move(spec)) {
  const unsigned k = spec_.radix();
  const std::uint32_t per_stage = switches_per_stage();
  switches_.resize(static_cast<std::size_t>(stages()) * per_stage);
  for (unsigned stage = 0; stage < stages(); ++stage) {
    for (std::uint32_t index = 0; index < per_stage; ++index) {
      Switch& sw = switches_[switch_at(stage, index)];
      sw.id = switch_at(stage, index);
      sw.stage = stage;
      sw.index = index;
      for (SwitchPorts* ports : {&sw.left, &sw.right}) {
        ports->in_lanes.resize(k);
        ports->out_lanes.resize(k);
      }
    }
  }
  injection_channel_.assign(node_count(), kInvalidId);
  ejection_channel_.assign(node_count(), kInvalidId);
}

ChannelId Network::add_channel(Endpoint src, Endpoint dst, ChannelRole role,
                               unsigned lanes, std::uint32_t conn_index,
                               std::uint64_t address) {
  WORMSIM_CHECK(lanes >= 1 && lanes <= 255);
  const auto id = static_cast<ChannelId>(channels_.size());
  PhysChannel ch;
  ch.id = id;
  ch.src = src;
  ch.dst = dst;
  ch.role = role;
  ch.num_lanes = static_cast<std::uint8_t>(lanes);
  ch.first_lane = static_cast<LaneId>(lanes_.size());
  ch.conn_index = conn_index;
  ch.address = address;
  channels_.push_back(ch);

  for (unsigned v = 0; v < lanes; ++v) {
    Lane lane;
    lane.id = static_cast<LaneId>(lanes_.size());
    lane.channel = id;
    lane.lane_in_channel = static_cast<std::uint8_t>(v);
    lanes_.push_back(lane);
    if (dst.is_switch()) {
      Switch& sw = switches_.at(dst.id);
      SwitchPorts& ports = dst.side == Side::kLeft ? sw.left : sw.right;
      ports.in_lanes.at(dst.port).push_back(lane.id);
    }
    if (src.is_switch()) {
      Switch& sw = switches_.at(src.id);
      SwitchPorts& ports = src.side == Side::kLeft ? sw.left : sw.right;
      ports.out_lanes.at(src.port).push_back(lane.id);
    }
  }
  return id;
}

void Network::set_injection_channel(NodeId node, ChannelId ch) {
  WORMSIM_CHECK(injection_channel_.at(node) == kInvalidId);
  injection_channel_[node] = ch;
}

void Network::set_ejection_channel(NodeId node, ChannelId ch) {
  WORMSIM_CHECK(ejection_channel_.at(node) == kInvalidId);
  ejection_channel_[node] = ch;
}

void Network::validate() const {
  for (NodeId node = 0; node < node_count(); ++node) {
    WORMSIM_CHECK_MSG(injection_channel_[node] != kInvalidId,
                      "node missing injection channel");
    WORMSIM_CHECK_MSG(ejection_channel_[node] != kInvalidId,
                      "node missing ejection channel");
    const PhysChannel& inj = channel(injection_channel_[node]);
    WORMSIM_CHECK(inj.src.is_node() && inj.src.id == node);
    WORMSIM_CHECK(inj.role == ChannelRole::kInjection);
    const PhysChannel& ej = channel(ejection_channel_[node]);
    WORMSIM_CHECK(ej.dst.is_node() && ej.dst.id == node);
    WORMSIM_CHECK(ej.role == ChannelRole::kEjection);
  }
  // Every lane appears exactly once in its dst switch's in table and once
  // in its src switch's out table (node endpoints excepted).
  std::vector<unsigned> seen_in(lanes_.size(), 0), seen_out(lanes_.size(), 0);
  for (const Switch& sw : switches_) {
    for (const SwitchPorts* ports : {&sw.left, &sw.right}) {
      for (const auto& list : ports->in_lanes) {
        for (LaneId lane : list) ++seen_in.at(lane);
      }
      for (const auto& list : ports->out_lanes) {
        for (LaneId lane : list) ++seen_out.at(lane);
      }
    }
  }
  for (const Lane& lane : lanes_) {
    const PhysChannel& ch = channels_[lane.channel];
    WORMSIM_CHECK(seen_in[lane.id] == (ch.dst.is_switch() ? 1u : 0u));
    WORMSIM_CHECK(seen_out[lane.id] == (ch.src.is_switch() ? 1u : 0u));
  }
}

namespace {

Endpoint node_endpoint(NodeId node) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kNode;
  ep.id = node;
  return ep;
}

Endpoint switch_endpoint(SwitchId sw, Side side, unsigned port) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kSwitch;
  ep.id = sw;
  ep.side = side;
  ep.port = static_cast<std::uint8_t>(port);
  return ep;
}

Network build_unidirectional(const NetworkConfig& config, TopologySpec spec) {
  const unsigned k = spec.radix();
  const unsigned n = spec.stages();
  const unsigned extra = config.extra_stages;
  const unsigned total = n + extra;
  const std::uint64_t N = spec.nodes();
  const unsigned dilation =
      config.kind == NetworkKind::kDMIN ? config.dilation : 1;
  const unsigned vcs = config.kind == NetworkKind::kVMIN ? config.vcs : 1;
  const util::RadixSpec& addr = spec.address_spec();
  const DigitPerm sigma = DigitPerm::shuffle(n);

  Network net(config, spec);

  // The connection entering physical stage i: extra stages are wired with
  // perfect shuffles; the base topology's C_j enters physical stage
  // extra + j.
  auto connection_into = [&](unsigned stage) -> const DigitPerm& {
    return stage < extra ? sigma : spec.connection(stage - extra);
  };

  // Entry connection: node s -> left port of physical stage 0.  One
  // channel per node (the one-port architecture; in a DMIN the other d-1
  // first-stage channels exist in hardware but are unconnected, so we do
  // not model them).
  for (NodeId s = 0; s < N; ++s) {
    const std::uint64_t a = connection_into(0).apply(addr, s);
    const SwitchId sw = net.switch_at(0, static_cast<std::uint32_t>(a / k));
    const ChannelId ch = net.add_channel(
        node_endpoint(s), switch_endpoint(sw, Side::kLeft, a % k),
        ChannelRole::kInjection, 1, 0, a);
    net.set_injection_channel(s, ch);
  }

  // Inter-stage connections: right-side address `a` of stage i-1 connects
  // to left-side address C(a) of stage i.
  for (unsigned i = 1; i < total; ++i) {
    for (std::uint64_t a = 0; a < N; ++a) {
      const std::uint64_t b = connection_into(i).apply(addr, a);
      const SwitchId src =
          net.switch_at(i - 1, static_cast<std::uint32_t>(a / k));
      const SwitchId dst = net.switch_at(i, static_cast<std::uint32_t>(b / k));
      for (unsigned d = 0; d < dilation; ++d) {
        net.add_channel(switch_endpoint(src, Side::kRight, a % k),
                        switch_endpoint(dst, Side::kLeft, b % k),
                        ChannelRole::kForward, vcs, i, b);
      }
    }
  }

  // Exit connection C_n: right-side address `a` of the last stage
  // connects to node C_n(a).
  const unsigned ejection_lanes = config.vc_node_links ? vcs : 1;
  for (std::uint64_t a = 0; a < N; ++a) {
    const std::uint64_t d = spec.connection(n).apply(addr, a);
    const SwitchId src =
        net.switch_at(total - 1, static_cast<std::uint32_t>(a / k));
    const ChannelId ch = net.add_channel(
        switch_endpoint(src, Side::kRight, a % k),
        node_endpoint(static_cast<NodeId>(d)), ChannelRole::kEjection,
        ejection_lanes, total, d);
    net.set_ejection_channel(static_cast<NodeId>(d), ch);
  }

  net.validate();
  return net;
}

Network build_bmin(const NetworkConfig& config) {
  TopologySpec spec = butterfly_topology(config.radix, config.stages);
  const unsigned k = spec.radix();
  const unsigned n = spec.stages();
  const std::uint64_t N = spec.nodes();
  const unsigned vcs = config.vcs;
  const util::RadixSpec& addr = spec.address_spec();

  Network net(config, spec);

  // Node links (C_0 is the identity in a butterfly BMIN): node s attaches
  // to left port s mod k of switch s div k at stage G_0, with one channel
  // in each direction.
  for (NodeId s = 0; s < N; ++s) {
    const SwitchId sw = net.switch_at(0, s / k);
    const ChannelId up = net.add_channel(
        node_endpoint(s), switch_endpoint(sw, Side::kLeft, s % k),
        ChannelRole::kInjection, 1, 0, s);
    net.set_injection_channel(s, up);
    const ChannelId down = net.add_channel(
        switch_endpoint(sw, Side::kLeft, s % k), node_endpoint(s),
        ChannelRole::kEjection, 1, 0, s);
    net.set_ejection_channel(s, down);
  }

  // Inter-stage pairs: forward (up) channel along C_i = beta_i, plus the
  // opposite backward (down) channel.
  for (unsigned i = 1; i < n; ++i) {
    for (std::uint64_t a = 0; a < N; ++a) {
      const std::uint64_t b = spec.connection(i).apply(addr, a);
      const SwitchId lower =
          net.switch_at(i - 1, static_cast<std::uint32_t>(a / k));
      const SwitchId upper =
          net.switch_at(i, static_cast<std::uint32_t>(b / k));
      net.add_channel(switch_endpoint(lower, Side::kRight, a % k),
                      switch_endpoint(upper, Side::kLeft, b % k),
                      ChannelRole::kForward, vcs, i, b);
      net.add_channel(switch_endpoint(upper, Side::kLeft, b % k),
                      switch_endpoint(lower, Side::kRight, a % k),
                      ChannelRole::kBackward, vcs, i, b);
    }
  }

  net.validate();
  return net;
}

/// Randomly wired splitter network (multibutterfly).  Switch blocks halve
/// (k-th) recursively: stage i holds k^i blocks of k^{n-1-i} switches;
/// output port v of a block-b switch leads to sub-block b*k + v with
/// `mbd` channels to distinct random member switches (balanced so every
/// receiving switch has identical in-degree).
Network build_multibutterfly(const NetworkConfig& config) {
  const unsigned k = config.radix;
  const unsigned n = config.stages;
  const unsigned mbd = config.splitter_dilation;
  // The logical routing spec: destination-tag order t_i = d_{n-1-i}, like
  // the omega/cube networks.  Its connection patterns describe the
  // *deterministic* relative of this network, not the random wiring; the
  // partition analyses do not apply to multibutterflies.
  TopologySpec spec = omega_topology(k, n);
  const std::uint64_t N = spec.nodes();
  const std::uint32_t per_stage = static_cast<std::uint32_t>(N / k);

  Network net(config, spec);
  util::Rng rng(config.wiring_seed);

  // Node links: identity attachment on both sides.
  for (NodeId s = 0; s < N; ++s) {
    const SwitchId sw0 = net.switch_at(0, s / k);
    const ChannelId inj = net.add_channel(
        node_endpoint(s), switch_endpoint(sw0, Side::kLeft, s % k),
        ChannelRole::kInjection, 1, 0, s);
    net.set_injection_channel(s, inj);
  }

  // Block arithmetic below runs in std::uint64_t: the products (b*k+v) *
  // sub_size, b * block_size, and s * mbd are all bounded by per_stage
  // (or per_stage * mbd) for valid configs, but per_stage itself
  // approaches 2^32 for the largest radix-2 networks the config
  // validator admits, and a silent u32 wraparound here would produce a
  // structurally broken (and wrong-looking, not crashing) wiring.
  for (unsigned i = 0; i + 1 < n; ++i) {
    const std::uint64_t blocks = util::ipow(k, i);
    const std::uint64_t block_size = per_stage / blocks;
    const std::uint64_t sub_size = block_size / k;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      for (unsigned v = 0; v < k; ++v) {
        // Senders: the block's switches; receivers: sub-block b*k + v.
        const std::uint64_t recv_base = (b * k + v) * sub_size;
        // `rounds[r][s]` = receiver offset for sender s in wiring round r,
        // balanced so each receiver appears exactly k times per round.
        // Re-draw until each sender's receivers are distinct (possible
        // iff sub_size >= mbd; otherwise duplicates are allowed and the
        // port degenerates into plain dilation).
        const bool want_distinct = sub_size >= mbd;
        std::vector<std::vector<std::uint32_t>> rounds;
        for (int attempt = 0; attempt < 1000; ++attempt) {
          rounds.assign(mbd, {});
          for (unsigned r = 0; r < mbd; ++r) {
            std::vector<std::uint32_t> order(block_size);
            for (std::uint32_t s = 0; s < block_size; ++s) order[s] = s;
            rng.shuffle(order);
            rounds[r].resize(block_size);
            for (std::uint32_t pos = 0; pos < block_size; ++pos) {
              rounds[r][order[pos]] = pos / k;  // receiver offset
            }
          }
          if (!want_distinct) break;
          bool ok = true;
          for (std::uint32_t s = 0; s < block_size && ok; ++s) {
            for (unsigned r = 1; r < mbd && ok; ++r) {
              for (unsigned q = 0; q < r; ++q) {
                if (rounds[r][s] == rounds[q][s]) ok = false;
              }
            }
          }
          if (ok) break;
        }
        for (std::uint64_t s = 0; s < block_size; ++s) {
          const SwitchId src = net.switch_at(
              i, static_cast<std::uint32_t>(b * block_size + s));
          for (unsigned r = 0; r < mbd; ++r) {
            const std::uint64_t recv = recv_base + rounds[r][s];
            const SwitchId dst =
                net.switch_at(i + 1, static_cast<std::uint32_t>(recv));
            // Spread incoming channels across the receiver's input ports.
            const unsigned in_port =
                static_cast<unsigned>((s * mbd + r) % k);
            net.add_channel(
                switch_endpoint(src, Side::kRight, v),
                switch_endpoint(dst, Side::kLeft, in_port),
                ChannelRole::kForward, 1, i + 1, recv * k + in_port);
          }
        }
      }
    }
  }

  // Ejection: stage n-1 switch x, port v -> node x*k + v.
  for (std::uint64_t d = 0; d < N; ++d) {
    const SwitchId src = net.switch_at(n - 1, static_cast<std::uint32_t>(d / k));
    const ChannelId ej = net.add_channel(
        switch_endpoint(src, Side::kRight, d % k),
        node_endpoint(static_cast<NodeId>(d)), ChannelRole::kEjection, 1, n,
        d);
    net.set_ejection_channel(static_cast<NodeId>(d), ej);
  }

  net.validate();
  return net;
}

}  // namespace

TopologySpec topology_by_name(const std::string& name, unsigned radix,
                              unsigned stages) {
  if (name == "cube") return cube_topology(radix, stages);
  if (name == "butterfly") return butterfly_topology(radix, stages);
  if (name == "omega") return omega_topology(radix, stages);
  if (name == "baseline") return baseline_topology(radix, stages);
  if (name == "flip") return flip_topology(radix, stages);
  WORMSIM_CHECK_MSG(false, "unknown topology name");
}

Network build_network(const NetworkConfig& config) {
  WORMSIM_CHECK_MSG(config.radix >= 2, "switch degree must be >= 2");
  WORMSIM_CHECK_MSG(config.stages >= 1, "need at least one stage");
  if (config.kind == NetworkKind::kBMIN) {
    WORMSIM_CHECK_MSG(config.extra_stages == 0,
                      "extra stages apply to unidirectional MINs only");
    WORMSIM_CHECK_MSG(config.splitter_dilation == 0,
                      "multibutterflies are unidirectional");
    return build_bmin(config);
  }
  if (config.splitter_dilation > 0) {
    WORMSIM_CHECK_MSG(config.kind == NetworkKind::kTMIN &&
                          config.extra_stages == 0,
                      "multibutterfly wiring requires a plain TMIN base");
    return build_multibutterfly(config);
  }
  if (config.kind == NetworkKind::kDMIN) {
    WORMSIM_CHECK_MSG(config.dilation >= 1, "dilation must be >= 1");
  }
  if (config.kind == NetworkKind::kVMIN) {
    WORMSIM_CHECK_MSG(config.vcs >= 1, "vc count must be >= 1");
  }
  return build_unidirectional(
      config, topology_by_name(config.topology, config.radix, config.stages));
}

}  // namespace wormsim::topology
