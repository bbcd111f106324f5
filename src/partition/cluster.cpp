#include "partition/cluster.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace wormsim::partition {

using util::RadixSpec;

CubeCluster::CubeCluster(RadixSpec spec, std::vector<unsigned> fixed)
    : spec_(std::move(spec)), fixed_(std::move(fixed)), free_count_(0) {
  WORMSIM_CHECK(fixed_.size() == spec_.digits());
  for (unsigned v : fixed_) {
    if (v == kFree) {
      ++free_count_;
    } else {
      WORMSIM_CHECK_MSG(v < spec_.radix(), "fixed digit out of range");
    }
  }
}

CubeCluster CubeCluster::parse(const RadixSpec& spec,
                               const std::string& pattern) {
  WORMSIM_CHECK_MSG(pattern.size() == spec.digits(),
                    "pattern length != digit count");
  WORMSIM_CHECK_MSG(spec.radix() <= 10, "parse() supports radix <= 10");
  std::vector<unsigned> fixed(spec.digits(), kFree);
  // pattern[0] is the most significant digit.
  for (unsigned i = 0; i < spec.digits(); ++i) {
    const char c = pattern[spec.digits() - 1 - i];
    if (c == 'X' || c == 'x' || c == '*') continue;
    WORMSIM_CHECK_MSG(c >= '0' && c < static_cast<char>('0' + spec.radix()),
                      "bad digit in cube pattern");
    fixed[i] = static_cast<unsigned>(c - '0');
  }
  return CubeCluster(spec, std::move(fixed));
}

std::uint64_t CubeCluster::size() const {
  return util::ipow(spec_.radix(), free_count_);
}

bool CubeCluster::contains(std::uint64_t node) const {
  for (unsigned p = 0; p < spec_.digits(); ++p) {
    if (fixed_[p] != kFree && spec_.digit(node, p) != fixed_[p]) return false;
  }
  return true;
}

bool CubeCluster::is_base_cube() const {
  for (unsigned p = 0; p < free_count_; ++p) {
    if (fixed_[p] != kFree) return false;
  }
  return true;
}

std::vector<topology::NodeId> CubeCluster::members() const {
  std::vector<topology::NodeId> out;
  out.reserve(size());
  for (std::uint64_t node = 0; node < spec_.size(); ++node) {
    if (contains(node)) out.push_back(static_cast<topology::NodeId>(node));
  }
  return out;
}

std::string CubeCluster::describe() const {
  std::string out;
  for (unsigned p = spec_.digits(); p-- > 0;) {
    if (fixed_[p] == kFree) {
      out.push_back('X');
    } else if (fixed_[p] < 10) {
      out.push_back(static_cast<char>('0' + fixed_[p]));
    } else {
      out += '[';
      out += std::to_string(fixed_[p]);
      out += ']';
    }
  }
  return out;
}

bool CubeCluster::disjoint_with(const CubeCluster& other) const {
  WORMSIM_CHECK(spec_ == other.spec_);
  // Disjoint iff some position is fixed to different values in both.
  for (unsigned p = 0; p < spec_.digits(); ++p) {
    if (fixed_[p] != kFree && other.fixed_[p] != kFree &&
        fixed_[p] != other.fixed_[p]) {
      return true;
    }
  }
  return false;
}

BinaryCubeCluster::BinaryCubeCluster(RadixSpec spec, std::uint64_t mask,
                                     std::uint64_t value)
    : spec_(std::move(spec)), mask_(mask), value_(value) {
  WORMSIM_CHECK_MSG(util::is_power_of_two(spec_.radix()),
                    "binary cubes require a power-of-two radix");
  bits_ = util::log2_exact(spec_.radix()) * spec_.digits();
  WORMSIM_CHECK(bits_ < 64);
  WORMSIM_CHECK_MSG((mask_ >> bits_) == 0, "mask beyond address bits");
  WORMSIM_CHECK_MSG((value_ & ~mask_) == 0, "value bits outside mask");
}

BinaryCubeCluster BinaryCubeCluster::parse(const RadixSpec& spec,
                                           const std::string& bit_pattern) {
  const unsigned bits = util::log2_exact(spec.radix()) * spec.digits();
  WORMSIM_CHECK_MSG(bit_pattern.size() == bits,
                    "bit pattern length != address bit count");
  std::uint64_t mask = 0;
  std::uint64_t value = 0;
  for (unsigned b = 0; b < bits; ++b) {
    const char c = bit_pattern[bits - 1 - b];
    if (c == 'X' || c == 'x' || c == '*') continue;
    WORMSIM_CHECK_MSG(c == '0' || c == '1', "bad bit in binary cube pattern");
    mask |= std::uint64_t{1} << b;
    if (c == '1') value |= std::uint64_t{1} << b;
  }
  return BinaryCubeCluster(spec, mask, value);
}

std::uint64_t BinaryCubeCluster::size() const {
  unsigned free = 0;
  for (unsigned b = 0; b < bits_; ++b) {
    if ((mask_ & (std::uint64_t{1} << b)) == 0) ++free;
  }
  return std::uint64_t{1} << free;
}

std::vector<topology::NodeId> BinaryCubeCluster::members() const {
  std::vector<topology::NodeId> out;
  out.reserve(size());
  for (std::uint64_t node = 0; node < spec_.size(); ++node) {
    if (contains(node)) out.push_back(static_cast<topology::NodeId>(node));
  }
  return out;
}

bool BinaryCubeCluster::disjoint_with(const BinaryCubeCluster& other) const {
  const std::uint64_t common = mask_ & other.mask_;
  return (value_ & common) != (other.value_ & common);
}

std::string BinaryCubeCluster::describe() const {
  std::string out;
  for (unsigned b = bits_; b-- > 0;) {
    if ((mask_ & (std::uint64_t{1} << b)) == 0) {
      out.push_back('X');
    } else {
      out.push_back((value_ >> b) & 1 ? '1' : '0');
    }
  }
  return out;
}

Clustering Clustering::global(std::uint64_t node_count) {
  Clustering c;
  c.clusters.emplace_back();
  c.clusters[0].reserve(node_count);
  for (std::uint64_t node = 0; node < node_count; ++node) {
    c.clusters[0].push_back(static_cast<topology::NodeId>(node));
  }
  c.cluster_of.assign(node_count, 0);
  return c;
}

Clustering Clustering::by_top_digits(const RadixSpec& spec,
                                     unsigned fixed_digits) {
  WORMSIM_CHECK(fixed_digits <= spec.digits());
  const std::uint64_t cluster_count = util::ipow(spec.radix(), fixed_digits);
  const std::uint64_t cluster_size = spec.size() / cluster_count;
  Clustering c;
  c.clusters.resize(cluster_count);
  c.cluster_of.resize(spec.size());
  for (std::uint64_t node = 0; node < spec.size(); ++node) {
    // Top digits are the high-order part of the address.
    const std::uint64_t cluster = node / cluster_size;
    c.clusters[cluster].push_back(static_cast<topology::NodeId>(node));
    c.cluster_of[node] = static_cast<std::uint32_t>(cluster);
  }
  return c;
}

Clustering Clustering::by_low_digits(const RadixSpec& spec,
                                     unsigned fixed_digits) {
  WORMSIM_CHECK(fixed_digits <= spec.digits());
  const std::uint64_t cluster_count = util::ipow(spec.radix(), fixed_digits);
  Clustering c;
  c.clusters.resize(cluster_count);
  c.cluster_of.resize(spec.size());
  for (std::uint64_t node = 0; node < spec.size(); ++node) {
    const std::uint64_t cluster = node % cluster_count;
    c.clusters[cluster].push_back(static_cast<topology::NodeId>(node));
    c.cluster_of[node] = static_cast<std::uint32_t>(cluster);
  }
  return c;
}

Clustering Clustering::contiguous(std::uint64_t node_count,
                                  std::uint64_t count) {
  WORMSIM_CHECK(count >= 1 && node_count % count == 0);
  const std::uint64_t block = node_count / count;
  Clustering c;
  c.clusters.resize(count);
  c.cluster_of.resize(node_count);
  for (std::uint64_t node = 0; node < node_count; ++node) {
    const std::uint64_t cluster = node / block;
    c.clusters[cluster].push_back(static_cast<topology::NodeId>(node));
    c.cluster_of[node] = static_cast<std::uint32_t>(cluster);
  }
  return c;
}

Clustering Clustering::from_cubes(const std::vector<CubeCluster>& cubes) {
  WORMSIM_CHECK(!cubes.empty());
  const std::uint64_t node_count = cubes.front().spec().size();
  Clustering c;
  c.clusters.resize(cubes.size());
  c.cluster_of.assign(node_count, ~std::uint32_t{0});
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    for (topology::NodeId node : cubes[i].members()) {
      WORMSIM_CHECK_MSG(c.cluster_of[node] == ~std::uint32_t{0},
                        "cube clusters overlap");
      c.cluster_of[node] = static_cast<std::uint32_t>(i);
      c.clusters[i].push_back(node);
    }
  }
  c.validate(node_count);
  return c;
}

void Clustering::validate(std::uint64_t node_count) const {
  WORMSIM_CHECK(cluster_of.size() == node_count);
  std::vector<std::uint64_t> seen(node_count, 0);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    for (topology::NodeId node : clusters[i]) {
      WORMSIM_CHECK(node < node_count);
      WORMSIM_CHECK(cluster_of[node] == i);
      ++seen[node];
    }
  }
  for (std::uint64_t node = 0; node < node_count; ++node) {
    WORMSIM_CHECK_MSG(seen[node] == 1, "node missing from clustering");
  }
}

}  // namespace wormsim::partition
