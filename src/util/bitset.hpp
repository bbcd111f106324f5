// Dense bitset tuned for the engine's active sets.
//
// The event-driven hot loop keeps three per-channel worklists (the seed
// frontier, the current fixpoint pass, the next pass) and the unrouted
// header set.  All of them share two requirements the standard containers
// fight against:
//
//   * membership insert must be O(1) and idempotent (the old sorted
//     vectors paid a per-pass std::sort plus an epoch-stamp array purely
//     for dedup — together the hottest lines of the whole simulator);
//   * iteration must visit members in strictly ascending id order, and
//     must tolerate inserts *ahead* of the cursor mid-iteration (a move
//     at channel c may re-arm a channel u > c within the same pass).
//
// A word array with a count-trailing-zeros scan gives both: setting a bit
// is idempotent dedup, and `consume()` re-reads the current word after
// every callback, so a bit set ahead of the cursor — in the same word or
// a later one — is picked up in exactly the position the old sorted
// insert would have given it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace wormsim::util {

class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(std::size_t bits) { resize(bits); }

  /// Resizes to `bits` bits, all cleared.
  void resize(std::size_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, 0);
  }

  std::size_t size() const { return bits_; }

  void set(std::size_t i) {
    WORMSIM_DCHECK(i < bits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear(std::size_t i) {
    WORMSIM_DCHECK(i < bits_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  bool test(std::size_t i) const {
    WORMSIM_DCHECK(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// True when any bit is set (O(words)).
  bool any() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Number of set bits (O(words)).
  std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) n += std::popcount(w);
    return n;
  }

  /// Clears every bit, keeping the size.
  void reset() { std::fill(words_.begin(), words_.end(), 0); }

  /// Swaps contents with another bitset of the same size (O(1)).
  void swap(DenseBitset& other) {
    words_.swap(other.words_);
    std::swap(bits_, other.bits_);
  }

  /// Visits every set bit in ascending order, clearing each before its
  /// callback runs.  The current word is re-read after every callback, so
  /// `fn` may set bits at positions greater than the one it was called
  /// with (same word or later) and they are visited in this same sweep —
  /// the in-pass re-arm the engine's fixpoint loop relies on.  Bits set
  /// at or below the cursor survive for the next sweep only if `fn` put
  /// them in a different set.
  template <typename Fn>
  void consume(Fn&& fn) {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      while (std::uint64_t w = words_[wi]) {
        const int b = std::countr_zero(w);
        words_[wi] &= ~(std::uint64_t{1} << b);
        fn(static_cast<std::uint32_t>((wi << 6) | static_cast<unsigned>(b)));
      }
    }
  }

  /// Visits every set bit in [first, last) in ascending order without
  /// clearing.  Each word is read once, when the walk reaches it, so
  /// bits `fn` changes in the current word do not affect this walk while
  /// changes to later words do.
  template <typename Fn>
  void for_each_in(std::size_t first, std::size_t last, Fn&& fn) const {
    if (first >= last) return;
    for (std::size_t wi = first >> 6; wi <= (last - 1) >> 6; ++wi) {
      std::uint64_t w = word_in(wi, first, last);
      while (w != 0) {
        const int b = std::countr_zero(w);
        w &= w - 1;
        fn(static_cast<std::uint32_t>((wi << 6) | static_cast<unsigned>(b)));
      }
    }
  }

  /// for_each_in over the bits of *this that are clear in `skip` (a
  /// bitset of the same size).  Each word of *this is read once, as in
  /// for_each_in, but `skip`'s word is re-read after every callback, so a
  /// bit `fn` clears in `skip` ahead of the cursor is visited in this same
  /// walk.  Routing's rotated header scan skips sleeping headers with it.
  template <typename Fn>
  void for_each_in_except(std::size_t first, std::size_t last,
                          const DenseBitset& skip, Fn&& fn) const {
    WORMSIM_DCHECK(skip.bits_ == bits_);
    if (first >= last) return;
    for (std::size_t wi = first >> 6; wi <= (last - 1) >> 6; ++wi) {
      std::uint64_t w = word_in(wi, first, last);
      while (const std::uint64_t live = w & ~skip.words_[wi]) {
        const int b = std::countr_zero(live);
        w &= (~std::uint64_t{0} << b) << 1;  // drop b and everything below
        fn(static_cast<std::uint32_t>((wi << 6) | static_cast<unsigned>(b)));
      }
    }
  }

  /// Visits every set bit in ascending order without clearing.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_in(0, bits_, fn);
  }

 private:
  /// Word `wi` with the bits outside [first, last) cleared.
  std::uint64_t word_in(std::size_t wi, std::size_t first,
                        std::size_t last) const {
    std::uint64_t w = words_[wi];
    if (wi == first >> 6) w &= ~std::uint64_t{0} << (first & 63);
    if (wi == (last - 1) >> 6 && (last & 63) != 0) {
      w &= (std::uint64_t{1} << (last & 63)) - 1;
    }
    return w;
  }

  std::vector<std::uint64_t> words_;
  std::size_t bits_ = 0;
};

}  // namespace wormsim::util
