// Unit tests for src/util: rng, radix arithmetic, statistics, containers,
// table rendering, and CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "util/bitset.hpp"
#include "util/cli.hpp"
#include "util/inline_vector.hpp"
#include "util/radix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace wormsim::util {
namespace {

// ---- Rng -----------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.below(kBuckets)];
  }
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.08);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  const double mean = 250.0;
  double sum = 0.0;
  constexpr int kSamples = 200'000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.exponential(mean);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kSamples, mean, mean * 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, MixSeedSpreads) {
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
  EXPECT_NE(mix_seed(0, 0), mix_seed(0, 1));
}

// ---- Radix ---------------------------------------------------------------

TEST(Radix, PowersOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(12));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(8), 3u);
  EXPECT_EQ(log2_exact(1024), 10u);
}

TEST(Radix, Ipow) {
  EXPECT_EQ(ipow(2, 0), 1u);
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(4, 3), 64u);
  EXPECT_EQ(ipow(8, 2), 64u);
}

TEST(Radix, DigitExtraction) {
  const RadixSpec spec(4, 3);  // 64 addresses
  EXPECT_EQ(spec.size(), 64u);
  // 39 = 213 base 4.
  EXPECT_EQ(spec.digit(39, 0), 3u);
  EXPECT_EQ(spec.digit(39, 1), 1u);
  EXPECT_EQ(spec.digit(39, 2), 2u);
}

TEST(Radix, WithDigitAndSwap) {
  const RadixSpec spec(4, 3);
  EXPECT_EQ(spec.with_digit(39, 0, 0), 36u);  // 213 -> 210
  EXPECT_EQ(spec.with_digit(39, 2, 0), 7u);   // 213 -> 013
  EXPECT_EQ(spec.swap_digits(39, 0, 2), 39u - 2 * 16 - 3 + 3 * 16 + 2);
  // swap digits of 213 -> 312 = 3*16+1*4+2 = 54
  EXPECT_EQ(spec.swap_digits(39, 0, 2), 54u);
}

TEST(Radix, RoundTripDigits) {
  const RadixSpec spec(8, 2);
  for (std::uint64_t v = 0; v < spec.size(); ++v) {
    EXPECT_EQ(spec.from_digits(spec.to_digits(v)), v);
  }
}

TEST(Radix, Format) {
  const RadixSpec spec(4, 3);
  EXPECT_EQ(spec.format(39), "213");
  EXPECT_EQ(spec.format(0), "000");
  const RadixSpec hex(16, 2);
  EXPECT_EQ(hex.format(0xAB), "[10][11]");
}

TEST(Radix, FirstDifferenceMatchesPaperExample) {
  // Section 3.1: FirstDifference(001, 101) = 2 (binary, n = 3).
  const RadixSpec spec(2, 3);
  EXPECT_EQ(first_difference(spec, 0b001, 0b101), 2u);
  // Fig. 9b: FirstDifference = 1 example, e.g. 000 vs 010.
  EXPECT_EQ(first_difference(spec, 0b000, 0b010), 1u);
  EXPECT_EQ(first_difference(spec, 0b000, 0b001), 0u);
}

TEST(Radix, FirstDifferenceRadix4) {
  const RadixSpec spec(4, 3);
  EXPECT_EQ(first_difference(spec, 0, 63), 2u);
  EXPECT_EQ(first_difference(spec, 16, 20), 1u);  // 100 vs 110 base 4
  EXPECT_EQ(first_difference(spec, 5, 6), 0u);    // 011 vs 012
}

// Release builds compile ipow's overflow check out, so RadixSpec bounds
// the size itself: 8^21 = 2^63 fits 64 bits but no 32-bit id, and 8^22
// wraps to 0.
TEST(RadixDeath, AddressSpaceBeyond32BitIdsAborts) {
  EXPECT_EQ(RadixSpec(8, 10).size(), std::uint64_t{1} << 30);
  EXPECT_DEATH(RadixSpec(8, 11), "32-bit id space");
  EXPECT_DEATH(RadixSpec(8, 21), "32-bit id space");
  EXPECT_DEATH(RadixSpec(8, 22), "32-bit id space");
}

// ---- Stats ---------------------------------------------------------------

TEST(OnlineStats, BasicMoments) {
  OnlineStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(OnlineStats, EmptyIsZero) {
  const OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats all, left, right;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  a.add(3.0);
  OnlineStats b;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, QuantilesAndOverflow) {
  Histogram h(1.0, 10);
  for (int i = 0; i < 100; ++i) h.add(i < 90 ? 0.5 : 100.0);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  // A quantile landing in the overflow bin has no finite upper edge:
  // report +infinity instead of masking saturation with the top edge.
  EXPECT_TRUE(std::isinf(h.quantile(0.95)));
  EXPECT_TRUE(h.quantile_in_overflow(0.95));
  EXPECT_FALSE(h.quantile_in_overflow(0.5));
  EXPECT_EQ(h.overflow(), 10u);
}

TEST(Histogram, NegativeClampsToFirstBin) {
  Histogram h(2.0, 4);
  h.add(-5.0);
  EXPECT_EQ(h.bin(0), 1u);
}

// ---- InlineVector ----------------------------------------------------------

TEST(InlineVector, PushAndIterate) {
  InlineVector<int, 8> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 5; ++i) v.push_back(i * i);
  EXPECT_EQ(v.size(), 5u);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 0 + 1 + 4 + 9 + 16);
  EXPECT_TRUE(v.contains(9));
  EXPECT_FALSE(v.contains(3));
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(InlineVector, InitializerList) {
  const InlineVector<int, 4> v{1, 2, 3};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 3);
}

// ---- Table ---------------------------------------------------------------

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.row().cell(std::string("alpha")).cell(std::int64_t{42});
  t.row().cell(std::string("b")).cell(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.row().cell(std::uint64_t{1}).cell(std::uint64_t{2});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

// ---- CliParser --------------------------------------------------------------

TEST(CliParser, ParsesAllKinds) {
  std::string name = "default";
  std::int64_t count = 1;
  double rate = 0.5;
  bool flag = false;
  CliParser cli("test");
  cli.add_flag("name", &name, "a string");
  cli.add_flag("count", &count, "an int");
  cli.add_flag("rate", &rate, "a double");
  cli.add_flag("flag", &flag, "a bool");

  const char* argv[] = {"prog", "--name=xyz", "--count", "7",
                        "--rate=0.25", "--flag"};
  EXPECT_EQ(cli.parse(6, const_cast<char**>(argv)), CliParser::Status::kOk);
  EXPECT_EQ(name, "xyz");
  EXPECT_EQ(count, 7);
  EXPECT_DOUBLE_EQ(rate, 0.25);
  EXPECT_TRUE(flag);
}

TEST(CliParser, RejectsUnknownFlag) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_EQ(cli.parse(2, const_cast<char**>(argv)),
            CliParser::Status::kError);
}

TEST(CliParser, RejectsBadValue) {
  std::int64_t count = 0;
  CliParser cli("test");
  cli.add_flag("count", &count, "an int");
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_EQ(cli.parse(2, const_cast<char**>(argv)),
            CliParser::Status::kError);
}

TEST(CliParser, HelpIsDistinctFromError) {
  CliParser cli("test");
  ::testing::internal::CaptureStdout();
  const char* argv[] = {"prog", "--help"};
  EXPECT_EQ(cli.parse(2, const_cast<char**>(argv)),
            CliParser::Status::kHelp);
  const std::string usage = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(usage.find("flags:"), std::string::npos);
}

TEST(CliParser, UsageListsFlags) {
  std::int64_t count = 3;
  CliParser cli("my tool");
  cli.add_flag("count", &count, "how many");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("my tool"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("default 3"), std::string::npos);
}

TEST(CliParserDeath, DuplicateFlagAborts) {
  // A second registration under the same name could never be reached by
  // parse(); it must fail at registration, not go silently dead.
  std::int64_t first = 0;
  bool second = false;
  CliParser cli("test");
  cli.add_flag("seed", &first, "an int");
  EXPECT_DEATH(cli.add_flag("seed", &second, "a bool"),
               "flag --seed registered twice");
}

TEST(ParseShard, AcceptsWellFormedShards) {
  unsigned index = 99;
  unsigned count = 99;
  ASSERT_TRUE(parse_shard("0/1", &index, &count));
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(count, 1u);
  ASSERT_TRUE(parse_shard("2/4", &index, &count));
  EXPECT_EQ(index, 2u);
  EXPECT_EQ(count, 4u);
  ASSERT_TRUE(parse_shard("15/16", &index, &count));
  EXPECT_EQ(index, 15u);
  EXPECT_EQ(count, 16u);
}

TEST(DenseBitset, SetTestClearCountAcrossWords) {
  DenseBitset bits(200);  // 4 words, last one partial
  EXPECT_EQ(bits.size(), 200u);
  EXPECT_FALSE(bits.any());
  for (std::size_t i : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                        std::size_t{127}, std::size_t{128},
                        std::size_t{199}}) {
    bits.set(i);
    bits.set(i);  // idempotent
    EXPECT_TRUE(bits.test(i));
  }
  EXPECT_EQ(bits.count(), 6u);
  bits.clear(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.count(), 5u);
  bits.reset();
  EXPECT_FALSE(bits.any());
  EXPECT_EQ(bits.size(), 200u);
}

TEST(DenseBitset, ConsumeVisitsAscendingAndClears) {
  DenseBitset bits(130);
  const std::vector<std::uint32_t> members = {3, 62, 63, 64, 65, 127, 129};
  for (std::uint32_t m : members) bits.set(m);
  std::vector<std::uint32_t> seen;
  bits.consume([&](std::uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, members);
  EXPECT_FALSE(bits.any());
}

TEST(DenseBitset, ConsumeSeesInPassInsertAheadOfCursor) {
  // The engine's fixpoint re-arm: a callback at channel c may set a bit
  // u > c (same word or a later one) and it must be visited in this same
  // sweep, in ascending position — exactly where a sorted insert would
  // have put it.
  DenseBitset bits(192);
  bits.set(10);
  std::vector<std::uint32_t> seen;
  bits.consume([&](std::uint32_t i) {
    seen.push_back(i);
    if (i == 10) {
      bits.set(11);   // same word, just ahead of the cursor
      bits.set(70);   // next word
      bits.set(190);  // last word
    }
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{10, 11, 70, 190}));
  EXPECT_FALSE(bits.any());
}

TEST(DenseBitset, ConsumeReReadsCurrentWordButNotEarlierWords) {
  // The word re-read means a bit set at or below the cursor *within the
  // current word* is picked up again this sweep (ascending within the
  // re-read), while a bit set in an already-finished word survives to the
  // next sweep.  The engine never relies on the same-word case — its
  // re-arms go to next_pass_ when u <= c — but the contract is pinned
  // here so a rewrite cannot silently change it.
  DenseBitset bits(128);
  bits.set(20);
  bits.set(70);
  bool reinserted = false;
  std::vector<std::uint32_t> first_sweep;
  bits.consume([&](std::uint32_t i) {
    first_sweep.push_back(i);
    if (!reinserted) {
      reinserted = true;
      bits.set(5);   // current word, below cursor: revisited this sweep
      bits.set(20);  // current word, at cursor: revisited this sweep
    }
    if (i == 70) bits.set(3);  // earlier word: NOT revisited this sweep
  });
  EXPECT_EQ(first_sweep, (std::vector<std::uint32_t>{20, 5, 20, 70}));
  EXPECT_TRUE(bits.test(3));
  EXPECT_EQ(bits.count(), 1u);
}

TEST(DenseBitset, ForEachInMasksPartialBoundaryWords) {
  DenseBitset bits(256);
  for (std::size_t i = 0; i < 256; ++i) bits.set(i);
  const auto collect = [&](std::size_t first, std::size_t last) {
    std::vector<std::uint32_t> seen;
    bits.for_each_in(first, last, [&](std::uint32_t i) { seen.push_back(i); });
    return seen;
  };
  // Empty and degenerate ranges.
  EXPECT_TRUE(collect(10, 10).empty());
  EXPECT_TRUE(collect(10, 5).empty());
  // Within one word, word-straddling, and word-aligned ranges all visit
  // exactly [first, last).
  for (const auto& [first, last] :
       std::vector<std::pair<std::size_t, std::size_t>>{{5, 9},
                                                        {60, 70},
                                                        {0, 64},
                                                        {64, 128},
                                                        {63, 65},
                                                        {0, 256},
                                                        {191, 256},
                                                        {255, 256}}) {
    SCOPED_TRACE(testing::Message() << first << ".." << last);
    const std::vector<std::uint32_t> seen = collect(first, last);
    ASSERT_EQ(seen.size(), last - first);
    for (std::size_t k = 0; k < seen.size(); ++k) {
      EXPECT_EQ(seen[k], first + k);
    }
    EXPECT_EQ(bits.count(), 256u);  // non-destructive
  }
}

TEST(DenseBitset, ForEachInExceptSkipsLiveMask) {
  DenseBitset bits(192);
  DenseBitset skip(192);
  for (const std::size_t i : {3, 10, 40, 63, 64, 100, 130, 191}) bits.set(i);
  for (const std::size_t i : {10, 40, 63, 100, 130}) skip.set(i);
  std::vector<std::uint32_t> seen;
  bits.for_each_in_except(5, 192, skip, [&](std::uint32_t i) {
    seen.push_back(i);
    // Unmasking a bit ahead of the cursor, in this word or a later one,
    // gets it visited; unmasking one behind it does not.
    if (i == 64) {
      skip.clear(100);
      skip.clear(10);
    }
    if (i == 191) skip.clear(130);
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{64, 100, 191}));
  seen.clear();
  // Range bounds apply as in for_each_in; the walk clears nothing.
  bits.for_each_in_except(0, 64, skip,
                          [&](std::uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{3, 10}));
  EXPECT_EQ(bits.count(), 8u);
}

TEST(DenseBitset, ForEachInSparseAndDomainDecomposition) {
  // Adjacent ranges must tile the full scan (routing walks [offset, n)
  // then [0, offset)): concatenating the per-range walks equals for_each.
  DenseBitset bits(320);
  const std::vector<std::uint32_t> members = {0, 1, 63, 64, 100, 191, 192,
                                              255, 256, 319};
  for (std::uint32_t m : members) bits.set(m);
  std::vector<std::uint32_t> tiled;
  for (std::size_t begin = 0; begin < 320; begin += 64) {
    bits.for_each_in(begin, begin + 64,
                     [&](std::uint32_t i) { tiled.push_back(i); });
  }
  EXPECT_EQ(tiled, members);
  std::vector<std::uint32_t> whole;
  bits.for_each([&](std::uint32_t i) { whole.push_back(i); });
  EXPECT_EQ(whole, members);
}

TEST(DenseBitset, SwapIsConstantTimeContentExchange) {
  DenseBitset a(128);
  DenseBitset b(128);
  a.set(7);
  b.set(100);
  a.swap(b);
  EXPECT_TRUE(a.test(100));
  EXPECT_FALSE(a.test(7));
  EXPECT_TRUE(b.test(7));
  EXPECT_FALSE(b.test(100));
}

TEST(ParseShard, RejectsMalformedInput) {
  unsigned index = 7;
  unsigned count = 7;
  for (const char* bad :
       {"", "/", "1/", "/4", "4", "a/4", "1/b", "1.0/4", "-1/4", "+1/4",
        " 1/4", "1/4 ", "1//4", "1/4/2",
        // out-of-range: index must be strictly below count, count nonzero
        "4/4", "5/4", "0/0"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_shard(bad, &index, &count));
    // Outputs untouched on failure.
    EXPECT_EQ(index, 7u);
    EXPECT_EQ(count, 7u);
  }
}

// Regression: the shard fields went through bare strtoul with no endptr
// or ERANGE check, so "4x/8" parsed as 4/8 and an overflowing index
// silently truncated (on LP64, ULONG_MAX -> unsigned wraps to
// 0xffffffff).  Both must now be hard rejects.
TEST(ParseShard, RejectsTrailingJunkAndOverflow) {
  unsigned index = 7;
  unsigned count = 7;
  for (const char* bad :
       {"4x/8", "1/8x", "0x1/8",
        // > UINT32_MAX and > UINT64_MAX: reject, never truncate.
        "4294967296/4294967297", "99999999999999999999/4",
        "1/18446744073709551616"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_shard(bad, &index, &count));
    EXPECT_EQ(index, 7u);
    EXPECT_EQ(count, 7u);
  }
}

TEST(ParseUnsigned, AcceptsDecimalDigitsOnly) {
  std::uint64_t u64 = 0;
  ASSERT_TRUE(parse_u64("0", &u64));
  EXPECT_EQ(u64, 0u);
  ASSERT_TRUE(parse_u64("18446744073709551615", &u64));  // UINT64_MAX
  EXPECT_EQ(u64, std::numeric_limits<std::uint64_t>::max());
  std::uint32_t u32 = 0;
  ASSERT_TRUE(parse_u32("4294967295", &u32));  // UINT32_MAX
  EXPECT_EQ(u32, std::numeric_limits<std::uint32_t>::max());
  ASSERT_TRUE(parse_u32("007", &u32));  // leading zeros are still decimal
  EXPECT_EQ(u32, 7u);
}

TEST(ParseUnsigned, RejectsJunkSignsWhitespaceAndOverflow) {
  std::uint64_t u64 = 42;
  std::uint32_t u32 = 42;
  for (const char* bad :
       {"", "4x", "x4", "1 ", " 1", "+1", "-1", "1.0", "1e3", "0x10",
        "18446744073709551616" /* UINT64_MAX + 1 */}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_u64(bad, &u64));
    EXPECT_FALSE(parse_u32(bad, &u32));
    EXPECT_EQ(u64, 42u);  // outputs untouched on failure
    EXPECT_EQ(u32, 42u);
  }
  // Fits in 64 bits but not 32.
  EXPECT_FALSE(parse_u32("4294967296", &u32));
  EXPECT_TRUE(parse_u64("4294967296", &u64));
}

TEST(EnvKnobs, FallbackWhenUnsetOrEmpty) {
  unsetenv("WORMSIM_TEST_KNOB");
  EXPECT_EQ(env_u64_or("WORMSIM_TEST_KNOB", 9u), 9u);
  setenv("WORMSIM_TEST_KNOB", "", 1);
  EXPECT_EQ(env_u64_or("WORMSIM_TEST_KNOB", 9u), 9u);
  setenv("WORMSIM_TEST_KNOB", "123", 1);
  EXPECT_EQ(env_u64_or("WORMSIM_TEST_KNOB", 9u), 123u);
  unsetenv("WORMSIM_TEST_KNOB");
}

// Regression: garbage env values ("4x", overflow) used to be silently
// accepted via bare strtoul; they must now abort with a diagnostic that
// names the variable, not limp on with a half-parsed number.
TEST(EnvKnobsDeath, GarbageValueDiesWithDiagnostic) {
  setenv("WORMSIM_TEST_KNOB", "4x", 1);
  EXPECT_DEATH(env_u64_or("WORMSIM_TEST_KNOB", 1u),
               "WORMSIM_TEST_KNOB.*non-negative decimal integer.*4x");
  setenv("WORMSIM_TEST_KNOB", "18446744073709551616", 1);
  EXPECT_DEATH(env_u64_or("WORMSIM_TEST_KNOB", 1u),
               "non-negative decimal integer");
  unsetenv("WORMSIM_TEST_KNOB");
}

// Switches read the binder's spelling: 0/1/true/false, nothing else.
// Regression: the engines' own readers took any value but "0" — "false"
// included — as on.
TEST(EnvKnobs, SwitchTakesBinderSpelling) {
  unsetenv("WORMSIM_TEST_KNOB");
  EXPECT_TRUE(env_bool_or("WORMSIM_TEST_KNOB", true));
  setenv("WORMSIM_TEST_KNOB", "", 1);
  EXPECT_FALSE(env_bool_or("WORMSIM_TEST_KNOB", false));
  setenv("WORMSIM_TEST_KNOB", "false", 1);
  EXPECT_FALSE(env_bool_or("WORMSIM_TEST_KNOB", true));
  setenv("WORMSIM_TEST_KNOB", "1", 1);
  EXPECT_TRUE(env_bool_or("WORMSIM_TEST_KNOB", false));
  setenv("WORMSIM_TEST_KNOB", "yes", 1);
  EXPECT_DEATH(env_bool_or("WORMSIM_TEST_KNOB", false),
               "WORMSIM_TEST_KNOB.*0, 1, true or false.*yes");
  unsetenv("WORMSIM_TEST_KNOB");
}

}  // namespace
}  // namespace wormsim::util
