// Unit tests for src/util: hashing, RNG, arithmetic, permutations,
// statistics, tables, CLI parsing and the chunked record container.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/chunked_vector.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"
#include "util/permutation.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace anoncoord {
namespace {

// ---------------------------------------------------------------------------
// chunked_vector.hpp
// ---------------------------------------------------------------------------

/// Append n values i * 7 + 1 (as T) and check every element both indexed
/// and by iteration, and the allocation bound: element bytes plus one chunk.
template <class T>
void fill_and_check(chunked_vector<T>& v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<T>(i * 7 + 1));
  ASSERT_EQ(v.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(v[i], static_cast<T>(i * 7 + 1)) << "index " << i;
  std::size_t i = 0;
  for (const T x : v) {
    ASSERT_EQ(x, static_cast<T>(i * 7 + 1)) << "iterated " << i;
    ++i;
  }
  EXPECT_EQ(i, n);
  EXPECT_LE(v.allocated_bytes(),
            n * sizeof(T) + chunked_vector<T>::kChunkSize * sizeof(T));
  EXPECT_GE(v.allocated_bytes(), n * sizeof(T));
}

TEST(ChunkedVectorTest, PushAndReadAcrossTheFirstChunkBoundary) {
  constexpr std::size_t k = chunked_vector<std::uint32_t>::kChunkSize;
  ASSERT_EQ(k, std::size_t{65536});
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, k - 1, k, k + 1,
                              2 * k, 2 * k + 3}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    chunked_vector<std::uint32_t> words;
    fill_and_check(words, n);
    chunked_vector<std::uint8_t> bytes;
    fill_and_check(bytes, n);
  }
}

TEST(ChunkedVectorTest, ClearFreesAndRefills) {
  constexpr std::size_t k = chunked_vector<int>::kChunkSize;
  chunked_vector<int> v;
  fill_and_check(v, 2 * k + 5);
  EXPECT_EQ(v.allocated_bytes(), 3 * k * sizeof(int));
  v.clear();
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.allocated_bytes(), 0u);
  EXPECT_TRUE(v.begin() == v.end());
  fill_and_check(v, k + 1);
  EXPECT_EQ(v.allocated_bytes(), 2 * k * sizeof(int));
  v.clear();
  fill_and_check(v, 10);
}

// ---------------------------------------------------------------------------
// check.hpp
// ---------------------------------------------------------------------------

TEST(CheckTest, RequireThrowsPreconditionError) {
  EXPECT_THROW(ANONCOORD_REQUIRE(false, "boom"), precondition_error);
  EXPECT_NO_THROW(ANONCOORD_REQUIRE(true, "fine"));
}

TEST(CheckTest, AssertThrowsInvariantError) {
  EXPECT_THROW(ANONCOORD_ASSERT(false, "boom"), invariant_error);
  EXPECT_NO_THROW(ANONCOORD_ASSERT(true, "fine"));
}

TEST(CheckTest, MessageIncludesExpressionAndHint) {
  try {
    ANONCOORD_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const precondition_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("one is not two"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// hash.hpp
// ---------------------------------------------------------------------------

TEST(HashTest, Mix64Avalanches) {
  EXPECT_NE(mix64(0), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  // Single-bit difference flips many output bits.
  const auto d = mix64(42) ^ mix64(43);
  EXPECT_GT(__builtin_popcountll(d), 10);
}

TEST(HashTest, HashCombineIsOrderSensitive) {
  std::size_t a = 0, b = 0;
  hash_combine(a, 1);
  hash_combine(a, 2);
  hash_combine(b, 2);
  hash_combine(b, 1);
  EXPECT_NE(a, b);
}

TEST(HashTest, HashVectorDistinguishesContents) {
  EXPECT_NE(hash_vector<int>({1, 2, 3}), hash_vector<int>({1, 2, 4}));
  EXPECT_NE(hash_vector<int>({1, 2, 3}), hash_vector<int>({1, 2}));
  EXPECT_EQ(hash_vector<int>({1, 2, 3}), hash_vector<int>({1, 2, 3}));
}

// ---------------------------------------------------------------------------
// rng.hpp
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  xoshiro256 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowStaysInRange) {
  xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, BelowCoversRange) {
  xoshiro256 rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BelowZeroBoundThrows) {
  xoshiro256 rng(1);
  EXPECT_THROW(rng.below(0), precondition_error);
}

TEST(RngTest, RangeInclusive) {
  xoshiro256 rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ChanceExtremes) {
  xoshiro256 rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  xoshiro256 rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

// ---------------------------------------------------------------------------
// math.hpp
// ---------------------------------------------------------------------------

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(4, 2), 2);
  EXPECT_EQ(ceil_div(5, 2), 3);
  EXPECT_EQ(ceil_div(1, 3), 1);
  EXPECT_EQ(ceil_div(6, 3), 2);
}

TEST(MathTest, MajorityThresholdMatchesPaper) {
  // ceil(m/2): the Fig. 1 give-up threshold.
  EXPECT_EQ(majority_threshold(3), 2);
  EXPECT_EQ(majority_threshold(4), 2);
  EXPECT_EQ(majority_threshold(5), 3);
  EXPECT_EQ(majority_threshold(7), 4);
}

TEST(MathTest, RelativelyPrimeBasics) {
  EXPECT_TRUE(relatively_prime(3, 2));
  EXPECT_FALSE(relatively_prime(4, 2));
  EXPECT_TRUE(relatively_prime(9, 4));
  // The paper's convention: a number is not relatively prime to itself.
  EXPECT_FALSE(relatively_prime(5, 5));
  EXPECT_TRUE(relatively_prime(1, 1));
}

TEST(MathTest, MutexSpaceAdmissibleTwoProcesses) {
  // Theorem 3.1: for n = 2, admissible iff m is odd.
  for (int m = 2; m <= 15; ++m) {
    EXPECT_EQ(mutex_space_admissible(m, 2), m % 2 == 1) << "m=" << m;
  }
}

TEST(MathTest, MutexSpaceAdmissibleGeneral) {
  // Theorem 3.4: m relatively prime to every 2 <= l <= n.
  EXPECT_TRUE(mutex_space_admissible(5, 4));   // 5 coprime to 2,3,4
  EXPECT_FALSE(mutex_space_admissible(6, 3));  // gcd(6,2)=2
  EXPECT_FALSE(mutex_space_admissible(9, 3));  // gcd(9,3)=3
  EXPECT_TRUE(mutex_space_admissible(7, 6));
  EXPECT_FALSE(mutex_space_admissible(7, 7));  // gcd(7,7)=7
  EXPECT_TRUE(mutex_space_admissible(11, 10));
}

TEST(MathTest, ViolationWitness) {
  EXPECT_EQ(mutex_space_violation_witness(6, 3), 2);
  EXPECT_EQ(mutex_space_violation_witness(9, 3), 3);
  EXPECT_EQ(mutex_space_violation_witness(5, 4), 0);
}

// ---------------------------------------------------------------------------
// permutation.hpp
// ---------------------------------------------------------------------------

TEST(PermutationTest, Identity) {
  EXPECT_EQ(identity_permutation(4), (permutation{0, 1, 2, 3}));
  EXPECT_TRUE(identity_permutation(0).empty());
}

TEST(PermutationTest, Rotation) {
  EXPECT_EQ(rotation_permutation(4, 1), (permutation{1, 2, 3, 0}));
  EXPECT_EQ(rotation_permutation(4, 0), identity_permutation(4));
  EXPECT_EQ(rotation_permutation(4, 4), identity_permutation(4));
  EXPECT_EQ(rotation_permutation(4, -1), (permutation{3, 0, 1, 2}));
}

TEST(PermutationTest, RandomIsValidAndSeedStable) {
  xoshiro256 r1(5), r2(5);
  const auto p1 = random_permutation(8, r1);
  const auto p2 = random_permutation(8, r2);
  EXPECT_EQ(p1, p2);
  EXPECT_TRUE(is_permutation_of_iota(p1));
}

TEST(PermutationTest, ValidityCheck) {
  EXPECT_TRUE(is_permutation_of_iota({2, 0, 1}));
  EXPECT_FALSE(is_permutation_of_iota({0, 0, 1}));
  EXPECT_FALSE(is_permutation_of_iota({0, 3, 1}));
}

TEST(PermutationTest, InverseRoundTrips) {
  xoshiro256 rng(9);
  const auto p = random_permutation(10, rng);
  const auto inv = inverse_permutation(p);
  for (int j = 0; j < 10; ++j) {
    EXPECT_EQ(inv[static_cast<std::size_t>(p[static_cast<std::size_t>(j)])], j);
  }
  EXPECT_EQ(compose_permutations(inv, p), identity_permutation(10));
}

TEST(PermutationTest, ComposeAppliesRightFirst) {
  const permutation a{1, 2, 0};
  const permutation b{2, 0, 1};
  const auto c = compose_permutations(a, b);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_EQ(c[j], a[static_cast<std::size_t>(b[j])]);
}

TEST(PermutationTest, AllPermutationsCountsFactorial) {
  EXPECT_EQ(all_permutations(3).size(), 6u);
  EXPECT_EQ(all_permutations(4).size(), 24u);
  // All distinct.
  auto perms = all_permutations(4);
  std::set<permutation> unique(perms.begin(), perms.end());
  EXPECT_EQ(unique.size(), perms.size());
}

TEST(PermutationTest, AllRotations) {
  const auto rots = all_rotations(5);
  ASSERT_EQ(rots.size(), 5u);
  EXPECT_EQ(rots[0], identity_permutation(5));
  for (const auto& r : rots) EXPECT_TRUE(is_permutation_of_iota(r));
}

// ---------------------------------------------------------------------------
// stats.hpp
// ---------------------------------------------------------------------------

TEST(StatsTest, BasicMoments) {
  summary_stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(StatsTest, Percentiles) {
  summary_stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(StatsTest, EmptyStatsThrow) {
  summary_stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), precondition_error);
  EXPECT_THROW(s.percentile(50), precondition_error);
  EXPECT_EQ(s.to_string(), "(no samples)");
}

TEST(StatsTest, SingleSample) {
  summary_stats s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
}

TEST(HistogramTest, BucketsAndSaturation) {
  histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bucket 0
  h.add(9.9);   // bucket 4
  h.add(-3.0);  // clamps to bucket 0
  h.add(42.0);  // clamps to bucket 4
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[4], 2u);
  EXPECT_EQ(h.buckets()[2], 0u);
  EXPECT_DOUBLE_EQ(h.bucket_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_high(1), 4.0);
  EXPECT_FALSE(h.render().empty());
}

TEST(HistogramTest, InvalidConstructionThrows) {
  EXPECT_THROW(histogram(1.0, 1.0, 4), precondition_error);
  EXPECT_THROW(histogram(0.0, 1.0, 0), precondition_error);
}

// ---------------------------------------------------------------------------
// table.hpp
// ---------------------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  ascii_table t({"m", "verdict"});
  t.add(3, "OK");
  t.add(4, "DEADLOCK");
  const std::string out = t.render();
  EXPECT_NE(out.find("| m | verdict  |"), std::string::npos);
  EXPECT_NE(out.find("| 3 | OK       |"), std::string::npos);
  EXPECT_NE(out.find("| 4 | DEADLOCK |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, FormatsBoolAndDouble) {
  ascii_table t({"a", "b"});
  t.add(true, 1.5);
  const std::string out = t.render();
  EXPECT_NE(out.find("yes"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  ascii_table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), precondition_error);
}

// ---------------------------------------------------------------------------
// cli.hpp
// ---------------------------------------------------------------------------

TEST(CliTest, ParsesEqualsAndSpaceForms) {
  cli_args args;
  args.define("m", "3", "registers");
  args.define("seed", "42", "rng seed");
  const char* argv[] = {"prog", "--m=7", "--seed", "9"};
  ASSERT_TRUE(args.parse(4, argv));
  EXPECT_EQ(args.get_int("m"), 7);
  EXPECT_EQ(args.get_int("seed"), 9);
}

TEST(CliTest, DefaultsApply) {
  cli_args args;
  args.define("iters", "100", "iterations");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.parse(1, argv));
  EXPECT_EQ(args.get_int("iters"), 100);
}

TEST(CliTest, BooleanFlag) {
  cli_args args;
  args.define("verbose", "false", "chatty");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(args.parse(2, argv));
  EXPECT_TRUE(args.get_bool("verbose"));
}

TEST(CliTest, UnknownFlagThrows) {
  cli_args args;
  args.define("m", "3", "registers");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(args.parse(2, argv), precondition_error);
}

TEST(CliTest, HelpReturnsFalse) {
  cli_args args;
  args.define("m", "3", "registers");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(args.parse(2, argv));
  EXPECT_NE(args.help("prog").find("--m"), std::string::npos);
}

}  // namespace
}  // namespace anoncoord
