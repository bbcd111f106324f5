// Processor clusters: k-ary m-cubes, binary cubes, and base cubes
// (Definitions 5 and 6 of the paper), plus whole-system clusterings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/network.hpp"
#include "util/radix.hpp"

namespace wormsim::partition {

/// A cube cluster described at digit granularity: every digit position is
/// either fixed to a value or free ("X").  The paper writes these like
/// "21**" or "0XX".
class CubeCluster {
 public:
  /// Parses a most-significant-digit-first pattern such as "0XX" or "1X0".
  /// '*' and 'X'/'x' denote free digits; other characters are digit values
  /// (radix <= 10 only; use the vector constructor beyond that).
  static CubeCluster parse(const util::RadixSpec& spec,
                           const std::string& pattern);

  /// `fixed[p]` gives digit position p's value, or kFree.
  static constexpr unsigned kFree = ~0u;
  CubeCluster(util::RadixSpec spec, std::vector<unsigned> fixed);

  const util::RadixSpec& spec() const { return spec_; }

  /// The cluster population k^m, m the number of free digit positions.
  std::uint64_t size() const;

  bool contains(std::uint64_t node) const;

  /// Base cube (Definition 6): the free digits are exactly the least
  /// significant m positions.
  bool is_base_cube() const;

  /// All member node addresses, ascending.
  std::vector<topology::NodeId> members() const;

  std::string describe() const;

  /// Disjointness per Definition 5: different fixed variables and neither
  /// is a subset of the other.  Equivalent to having no common member.
  bool disjoint_with(const CubeCluster& other) const;

 private:
  util::RadixSpec spec_;
  std::vector<unsigned> fixed_;  // per digit position; kFree when free
  unsigned free_count_;
};

/// A cluster described at *bit* granularity (binary cube, Theorem 2):
/// requires the radix to be a power of two.  Patterns like "1X0" over the
/// address bits.
class BinaryCubeCluster {
 public:
  static BinaryCubeCluster parse(const util::RadixSpec& spec,
                                 const std::string& bit_pattern);

  BinaryCubeCluster(util::RadixSpec spec, std::uint64_t mask,
                    std::uint64_t value);

  const util::RadixSpec& spec() const { return spec_; }
  std::uint64_t mask() const { return mask_; }    ///< 1 bits are fixed
  std::uint64_t value() const { return value_; }  ///< fixed-bit values

  std::uint64_t size() const;
  bool contains(std::uint64_t node) const {
    return (node & mask_) == value_;
  }
  std::vector<topology::NodeId> members() const;
  bool disjoint_with(const BinaryCubeCluster& other) const;
  std::string describe() const;

 private:
  util::RadixSpec spec_;
  unsigned bits_;
  std::uint64_t mask_;
  std::uint64_t value_;
};

/// A total partition of the machine's nodes used by traffic generation and
/// the usage analysis.  Clusters need not be cubes (but the paper's are).
struct Clustering {
  std::vector<std::vector<topology::NodeId>> clusters;
  std::vector<std::uint32_t> cluster_of;  ///< per node

  std::size_t cluster_count() const { return clusters.size(); }

  /// Single cluster containing every node ("global" in the paper).
  static Clustering global(std::uint64_t node_count);

  /// k^f clusters fixing the top `fixed_digits` digits — base cubes such
  /// as 0XX, 1XX, 2XX, 3XX (the paper's cube-network and channel-reduced
  /// butterfly clusterings).
  static Clustering by_top_digits(const util::RadixSpec& spec,
                                  unsigned fixed_digits);

  /// k^f clusters fixing the low `fixed_digits` digits — XX0..XX3 (the
  /// paper's channel-shared butterfly clustering).
  static Clustering by_low_digits(const util::RadixSpec& spec,
                                  unsigned fixed_digits);

  /// `count` equal contiguous blocks of node ids — fixing the top address
  /// bits (binary cubes, Theorem 2) when count is a power of two.  Used
  /// for the paper's cluster-32 experiments, where a radix-4 digit cannot
  /// express a 2-way split.
  static Clustering contiguous(std::uint64_t node_count, std::uint64_t count);

  /// Builds a clustering from explicit cube clusters; they must tile the
  /// whole machine.
  static Clustering from_cubes(const std::vector<CubeCluster>& cubes);

  /// Sanity check: every node belongs to exactly one cluster.
  void validate(std::uint64_t node_count) const;
};

}  // namespace wormsim::partition
