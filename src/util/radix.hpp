// k-ary (radix-k) address arithmetic.
//
// MIN node and channel addresses in this project are n-digit radix-k
// numbers, with digit 0 the least significant (matching the paper's
// x_{n-1} ... x_1 x_0 notation).  These helpers keep digit manipulation in
// one audited place.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace wormsim::util {

/// True iff value is a power of two (and nonzero).
constexpr bool is_power_of_two(std::uint64_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

/// Integral log base 2 of a power of two.
constexpr unsigned log2_exact(std::uint64_t value) {
  WORMSIM_DCHECK(is_power_of_two(value));
  unsigned result = 0;
  while (value > 1) {
    value >>= 1;
    ++result;
  }
  return result;
}

/// radix^exponent.  The overflow check is debug-only: address spaces are
/// bounded once, always on, by RadixSpec's constructor.
constexpr std::uint64_t ipow(std::uint64_t radix, unsigned exponent) {
  std::uint64_t result = 1;
  for (unsigned i = 0; i < exponent; ++i) {
    WORMSIM_DCHECK(result <= (~std::uint64_t{0}) / radix);
    result *= radix;
  }
  return result;
}

/// Exclusive bound on an address space's size: every address must fit a
/// 32-bit id below the all-ones sentinel (topology::kInvalidId).
inline constexpr std::uint64_t kAddressSpaceLimit = 0xffffffffu;

/// Describes an n-digit radix-k address space (N = k^n addresses).
class RadixSpec {
 public:
  /// Aborts, in every build type, unless N < kAddressSpaceLimit: this is
  /// the one place a network's size is checked before any builder
  /// allocates for it.
  RadixSpec(unsigned radix, unsigned digits)
      : radix_(radix), digits_(digits) {
    WORMSIM_CHECK_MSG(radix >= 2, "radix must be at least 2");
    WORMSIM_CHECK_MSG(digits >= 1, "need at least one digit");
    for (unsigned i = 0; i < digits; ++i) {
      WORMSIM_CHECK_MSG(size_ <= (kAddressSpaceLimit - 1) / radix,
                        "address space exceeds the 32-bit id space");
      size_ *= radix;
    }
  }

  unsigned radix() const { return radix_; }
  unsigned digits() const { return digits_; }
  std::uint64_t size() const { return size_; }

  /// Digit at `position` (0 = least significant).
  unsigned digit(std::uint64_t value, unsigned position) const {
    WORMSIM_DCHECK(position < digits_);
    return static_cast<unsigned>(value / ipow(radix_, position) % radix_);
  }

  /// Returns `value` with the digit at `position` replaced.
  std::uint64_t with_digit(std::uint64_t value, unsigned position,
                           unsigned digit_value) const {
    WORMSIM_DCHECK(position < digits_);
    WORMSIM_DCHECK(digit_value < radix_);
    const std::uint64_t weight = ipow(radix_, position);
    const unsigned old = digit(value, position);
    return value + (static_cast<std::uint64_t>(digit_value) - old) * weight;
  }

  /// Swaps the digits at the two positions.
  std::uint64_t swap_digits(std::uint64_t value, unsigned a,
                            unsigned b) const {
    const unsigned da = digit(value, a);
    const unsigned db = digit(value, b);
    return with_digit(with_digit(value, a, db), b, da);
  }

  /// Explodes `value` into digits, index 0 = least significant.
  std::vector<unsigned> to_digits(std::uint64_t value) const;

  /// Reassembles digits (index 0 = least significant) into a value.
  std::uint64_t from_digits(const std::vector<unsigned>& digits) const;

  /// Renders most-significant-first, e.g. "2103" for radix 4.  Digits ≥ 10
  /// are rendered in brackets, e.g. "[12]".
  std::string format(std::uint64_t value) const;

  bool operator==(const RadixSpec& other) const = default;

 private:
  unsigned radix_;
  unsigned digits_;
  std::uint64_t size_ = 1;
};

/// FirstDifference(S, D) from Definition 3 of the paper: the most
/// significant digit position where S and D differ.  Requires S != D.
unsigned first_difference(const RadixSpec& spec, std::uint64_t s,
                          std::uint64_t d);

}  // namespace wormsim::util
