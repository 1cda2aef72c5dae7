// Tests for the common utilities: PRNG determinism, Zipf distribution
// properties, NURand bounds, column masks, the spin lock, and the trading
// stream cipher.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/cipher.h"
#include "common/column_mask.h"
#include "common/flags.h"
#include "common/nurand.h"
#include "common/random.h"
#include "common/spinlock.h"
#include "common/zipf.h"

namespace mv3c {
namespace {

TEST(XoshiroTest, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.Next(), b.Next());
}

TEST(XoshiroTest, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.UniformInt(-5, 5);
    ASSERT_GE(v, -5);
    ASSERT_LE(v, 5);
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(XoshiroTest, RoughlyUniform) {
  Xoshiro256 rng(99);
  int buckets[10] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.NextBounded(10)];
  for (int b : buckets) {
    EXPECT_NEAR(b, kDraws / 10, kDraws / 10 * 0.1);
  }
}

class ZipfAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfAlphaTest, RankFrequenciesDecreaseAndMatchTheory) {
  const double alpha = GetParam();
  constexpr uint64_t kN = 1000;
  ZipfGenerator zipf(kN, alpha);
  Xoshiro256 rng(5);
  std::vector<uint64_t> counts(kN, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, kN);
    ++counts[v];
  }
  // Frequency of rank 0 matches 1 / (1^a * H(n,a)) within sampling noise.
  double h = 0;
  for (uint64_t i = 1; i <= kN; ++i) h += 1.0 / std::pow(i, alpha);
  const double expected0 = kDraws / h;
  EXPECT_NEAR(counts[0], expected0, expected0 * 0.1 + 50);
  // Top ranks dominate tail ranks for alpha > 0.
  if (alpha > 0.5) {
    EXPECT_GT(counts[0], counts[kN / 2] * 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.4, 2.0));

TEST(ZipfTest, AlphaZeroIsUniform) {
  ZipfGenerator zipf(100, 0.0);
  Xoshiro256 rng(3);
  std::vector<uint64_t> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next(rng)];
  for (uint64_t c : counts) EXPECT_NEAR(c, 1000, 250);
}

TEST(NuRandTest, StaysInRangeAndIsNonUniform) {
  NuRand nurand(77);
  Xoshiro256 rng(1);
  std::vector<uint64_t> counts(3000, 0);
  for (int i = 0; i < 300000; ++i) {
    const uint64_t v = nurand.Next(rng, 1023, 1, 3000);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 3000u);
    ++counts[v - 1];
  }
  const uint64_t max_c = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(max_c, 300000 / 3000 * 2);  // clearly non-uniform
}

TEST(NuRandTest, TatpAConstantScales) {
  EXPECT_EQ(TatpAConstant(1000000), 65535u);
  EXPECT_EQ(TatpAConstant(100000), 65535u);
  EXPECT_LT(TatpAConstant(1000), 1000u);
  EXPECT_EQ(TatpAConstant(1000), 511u);  // largest 2^k - 1 below 1000
}

TEST(ColumnMaskTest, Operations) {
  constexpr ColumnMask a = ColumnMask::Of(0);
  constexpr ColumnMask b = ColumnMask::Of(5);
  constexpr ColumnMask ab = a | b;
  EXPECT_TRUE(ab.Contains(0));
  EXPECT_TRUE(ab.Contains(5));
  EXPECT_FALSE(ab.Contains(1));
  EXPECT_TRUE(ab.Intersects(a));
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_TRUE(ColumnMask::All().Intersects(b));
  EXPECT_TRUE(ColumnMask().Empty());
  EXPECT_EQ(a | b, ab);
}

TEST(FlagsTest, MatchNeedsNameAndEquals) {
  std::string v;
  EXPECT_TRUE(flags::Match("--port=7433", "--port", &v));
  EXPECT_EQ(v, "7433");
  EXPECT_TRUE(flags::Match("--port=", "--port", &v));
  EXPECT_EQ(v, "");
  EXPECT_FALSE(flags::Match("--port", "--port", &v));
  EXPECT_FALSE(flags::Match("--ports=1", "--port", &v));
}

TEST(FlagsTest, ParseUintAcceptsOnlyWholeInRangeNumbers) {
  uint64_t v = 7;
  EXPECT_TRUE(flags::ParseUint("0", 0, 10, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(flags::ParseUint("65535", 0, 65535, &v));
  EXPECT_EQ(v, 65535u);
  EXPECT_TRUE(flags::ParseUint("18446744073709551615", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 7;
  for (const char* bad : {"", "abc", "12abc", "1.5", "-1", "+1", " 1", "1 ",
                          "0x10", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(flags::ParseUint(bad, 0, UINT64_MAX, &v)) << bad;
  }
  EXPECT_FALSE(flags::ParseUint("70000", 0, 65535, &v));
  EXPECT_FALSE(flags::ParseUint("0", 1, 1024, &v));
  EXPECT_FALSE(flags::ParseUint("1025", 1, 1024, &v));
  EXPECT_EQ(v, 7u);  // failures leave the output alone
}

TEST(FlagsTest, ParseDoubleAcceptsOnlyWholeFiniteInRangeNumbers) {
  double v = 7;
  EXPECT_TRUE(flags::ParseDouble("0.8", 0, 1e3, &v));
  EXPECT_DOUBLE_EQ(v, 0.8);
  EXPECT_TRUE(flags::ParseDouble("1e3", 0, 1e3, &v));
  EXPECT_DOUBLE_EQ(v, 1e3);
  v = 7;
  for (const char* bad : {"", "abc", "1.5x", "nan", "inf", "1e999", "-1",
                          "1001"}) {
    EXPECT_FALSE(flags::ParseDouble(bad, 0, 1e3, &v)) << bad;
  }
  EXPECT_DOUBLE_EQ(v, 7);
}

TEST(FlagsTest, BadValueExitsWithStatusTwo) {
  EXPECT_EXIT(flags::UintOrExit("--workers", "abc", 1, 1024),
              ::testing::ExitedWithCode(2), "--workers: invalid value 'abc'");
  EXPECT_EXIT(flags::DoubleOrExit("--rate", "1e999", 0, 1e9),
              ::testing::ExitedWithCode(2), "--rate: invalid value");
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50000; ++i) {
        // Tests deliberately keep one std::lock_guard use: SpinLock must
        // stay BasicLockable (the src/-only lint rule forbids this inside
        // the library, where acquisitions must be analysis-visible).
        std::lock_guard<SpinLock> g(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 4 * 50000);
}

TEST(SpinLockTest, GuardMutualExclusion) {
  // Same contract through the annotated guard (the in-library idiom).
  SpinLock lock;
  int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50000; ++i) {
        SpinLockGuard g(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 4 * 50000);
}

TEST(SpinLockTest, GuardReleasesOnScopeExit) {
  SpinLock lock;
  {
    SpinLockGuard g(lock);
    EXPECT_FALSE(lock.try_lock());
  }
  ASSERT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SpinLockTest, TryLock) {
  SpinLock lock;
  ASSERT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(StreamCipherTest, IsAnInvolution) {
  StreamCipher cipher(0xABCDEF);
  uint8_t data[64];
  for (size_t i = 0; i < sizeof(data); ++i) data[i] = static_cast<uint8_t>(i);
  uint8_t original[64];
  std::memcpy(original, data, sizeof(data));
  cipher.Apply(data, sizeof(data));
  EXPECT_NE(0, std::memcmp(data, original, sizeof(data)));
  cipher.Apply(data, sizeof(data));
  EXPECT_EQ(0, std::memcmp(data, original, sizeof(data)));
}

TEST(StreamCipherTest, DifferentKeysDifferentStreams) {
  uint8_t a[32] = {}, b[32] = {};
  StreamCipher(1).Apply(a, sizeof(a));
  StreamCipher(2).Apply(b, sizeof(b));
  EXPECT_NE(0, std::memcmp(a, b, sizeof(a)));
}

TEST(StreamCipherTest, HandlesUnalignedLengths) {
  for (size_t len : {1, 3, 7, 9, 63}) {
    std::vector<uint8_t> buf(len, 0x5A);
    const std::vector<uint8_t> orig = buf;
    StreamCipher cipher(42);
    cipher.Apply(buf.data(), len);
    cipher.Apply(buf.data(), len);
    EXPECT_EQ(buf, orig) << len;
  }
}

}  // namespace
}  // namespace mv3c
