#include "util/radix.hpp"

namespace wormsim::util {

std::vector<unsigned> RadixSpec::to_digits(std::uint64_t value) const {
  WORMSIM_DCHECK(value < size_);
  std::vector<unsigned> digits(digits_);
  for (unsigned i = 0; i < digits_; ++i) {
    digits[i] = static_cast<unsigned>(value % radix_);
    value /= radix_;
  }
  return digits;
}

std::uint64_t RadixSpec::from_digits(const std::vector<unsigned>& digits) const {
  WORMSIM_CHECK(digits.size() == digits_);
  std::uint64_t value = 0;
  for (unsigned i = digits_; i-- > 0;) {
    WORMSIM_DCHECK(digits[i] < radix_);
    value = value * radix_ + digits[i];
  }
  return value;
}

std::string RadixSpec::format(std::uint64_t value) const {
  std::string out;
  for (unsigned i = digits_; i-- > 0;) {
    const unsigned d = digit(value, i);
    if (d < 10) {
      out.push_back(static_cast<char>('0' + d));
    } else {
      out += '[';
      out += std::to_string(d);
      out += ']';
    }
  }
  return out;
}

unsigned first_difference(const RadixSpec& spec, std::uint64_t s,
                          std::uint64_t d) {
  WORMSIM_CHECK_MSG(s != d, "FirstDifference requires distinct addresses");
  for (unsigned i = spec.digits(); i-- > 0;) {
    if (spec.digit(s, i) != spec.digit(d, i)) return i;
  }
  WORMSIM_CHECK_MSG(false, "unreachable: addresses compared equal");
}

}  // namespace wormsim::util
