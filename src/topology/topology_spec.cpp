#include "topology/topology_spec.hpp"

#include <sstream>

#include "util/check.hpp"

namespace wormsim::topology {

std::string Symbol::describe() const {
  std::string out = kind == Kind::kSource ? "s" : "t";
  out += std::to_string(index);
  return out;
}

std::string SymbolicTrace::describe(unsigned stages) const {
  std::ostringstream os;
  auto line = [&os](const std::string& label, const std::vector<Symbol>& sym) {
    os << label << ": ";
    for (unsigned p = static_cast<unsigned>(sym.size()); p-- > 0;) {
      os << sym[p].describe();
      if (p > 0) os << " ";
    }
    os << "\n";
  };
  for (unsigned i = 0; i < stages; ++i) {
    line("enter G" + std::to_string(i), entries[i]);
    line("exit  G" + std::to_string(i), exits[i]);
  }
  line("final", final);
  return os.str();
}

TopologySpec::TopologySpec(std::string name, unsigned radix,
                           std::vector<DigitPerm> connections)
    : name_(std::move(name)),
      spec_(radix, static_cast<unsigned>(connections.size()) - 1),
      connections_(std::move(connections)) {
  WORMSIM_CHECK_MSG(connections_.size() >= 2,
                    "need at least one stage (two connection patterns)");
  for (const DigitPerm& c : connections_) {
    WORMSIM_CHECK_MSG(c.digits() == stages(),
                      "connection pattern digit count != stage count");
  }
  derive_tags();
}

void TopologySpec::derive_tags() {
  const unsigned n = stages();
  // Push a fully symbolic source address through the network.  At each
  // stage the port digit (position 0) is overwritten by the tag symbol t_i;
  // for a self-routing Delta network every source symbol must have been
  // overwritten by the time the address reaches the destination side.
  std::vector<Symbol> addr(n);
  for (unsigned p = 0; p < n; ++p) {
    addr[p] = Symbol{Symbol::Kind::kSource, p};
  }
  trace_.entries.resize(n);
  trace_.exits.resize(n);
  addr = connections_[0].apply_digits(addr);
  for (unsigned i = 0; i < n; ++i) {
    trace_.entries[i] = addr;
    addr[0] = Symbol{Symbol::Kind::kTag, i};
    trace_.exits[i] = addr;
    addr = connections_[i + 1].apply_digits(addr);
  }
  trace_.final = addr;

  tag_digit_.assign(n, 0);
  std::vector<bool> seen(n, false);
  for (unsigned p = 0; p < n; ++p) {
    const Symbol& sym = trace_.final[p];
    WORMSIM_CHECK_MSG(sym.kind == Symbol::Kind::kTag,
                      "not a self-routing Delta network: a source digit "
                      "survives to the destination side");
    WORMSIM_CHECK_MSG(!seen[sym.index], "tag digit appears twice");
    seen[sym.index] = true;
    // Final position p holds t_{sym.index}; the destination's digit p is
    // therefore produced by tag t_{sym.index}, i.e. t_{sym.index} = d_p.
    tag_digit_[sym.index] = p;
  }
}

namespace {

std::uint64_t materialize(const util::RadixSpec& spec,
                          const std::vector<Symbol>& layout, std::uint64_t src,
                          std::uint64_t dst,
                          const std::vector<unsigned>& tag_digit) {
  std::uint64_t value = 0;
  std::uint64_t weight = 1;
  for (unsigned p = 0; p < layout.size(); ++p) {
    const Symbol& sym = layout[p];
    const unsigned digit = sym.kind == Symbol::Kind::kSource
                               ? spec.digit(src, sym.index)
                               : spec.digit(dst, tag_digit[sym.index]);
    value += static_cast<std::uint64_t>(digit) * weight;
    weight *= spec.radix();
  }
  return value;
}

}  // namespace

std::uint64_t TopologySpec::entry_channel_address(unsigned stage,
                                                  std::uint64_t src,
                                                  std::uint64_t dst) const {
  return materialize(spec_, trace_.entries.at(stage), src, dst, tag_digit_);
}

std::uint64_t TopologySpec::exit_channel_address(unsigned stage,
                                                 std::uint64_t src,
                                                 std::uint64_t dst) const {
  return materialize(spec_, trace_.exits.at(stage), src, dst, tag_digit_);
}

TopologySpec cube_topology(unsigned radix, unsigned stages) {
  std::vector<DigitPerm> conns;
  conns.push_back(DigitPerm::shuffle(stages));
  for (unsigned i = 1; i <= stages; ++i) {
    conns.push_back(DigitPerm::butterfly(stages, stages - i));
  }
  return TopologySpec("cube", radix, std::move(conns));
}

TopologySpec butterfly_topology(unsigned radix, unsigned stages) {
  std::vector<DigitPerm> conns;
  conns.push_back(DigitPerm::identity(stages));
  for (unsigned i = 1; i <= stages - 1; ++i) {
    conns.push_back(DigitPerm::butterfly(stages, i));
  }
  conns.push_back(DigitPerm::identity(stages));  // C_n = beta_0
  return TopologySpec("butterfly", radix, std::move(conns));
}

TopologySpec omega_topology(unsigned radix, unsigned stages) {
  std::vector<DigitPerm> conns;
  for (unsigned i = 0; i < stages; ++i) {
    conns.push_back(DigitPerm::shuffle(stages));
  }
  conns.push_back(DigitPerm::identity(stages));
  return TopologySpec("omega", radix, std::move(conns));
}

TopologySpec baseline_topology(unsigned radix, unsigned stages) {
  std::vector<DigitPerm> conns;
  conns.push_back(DigitPerm::identity(stages));
  for (unsigned i = 1; i <= stages - 1; ++i) {
    conns.push_back(DigitPerm::inverse_subshuffle(stages, stages - i + 1));
  }
  conns.push_back(DigitPerm::identity(stages));
  return TopologySpec("baseline", radix, std::move(conns));
}

TopologySpec flip_topology(unsigned radix, unsigned stages) {
  std::vector<DigitPerm> conns;
  for (unsigned i = 0; i < stages; ++i) {
    conns.push_back(DigitPerm::inverse_shuffle(stages));
  }
  conns.push_back(DigitPerm::identity(stages));
  return TopologySpec("flip", radix, std::move(conns));
}

}  // namespace wormsim::topology
