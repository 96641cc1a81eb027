// Unit tests for src/common: RNG determinism and distribution sanity,
// math utilities, the expectation macros and the crash-safe file writer.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/expect.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"

namespace ones {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(Rng, GammaMomentsMatch) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gamma(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 6.0, 0.15);           // shape * scale
  EXPECT_NEAR(stats.variance(), 12.0, 0.8);       // shape * scale^2
}

TEST(Rng, GammaSmallShape) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const double g = rng.gamma(0.5, 1.0);
    ASSERT_GT(g, 0.0);
    stats.add(g);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.05);
}

TEST(Rng, BetaMeanMatches) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const double b = rng.beta(2.0, 6.0);
    ASSERT_GT(b, 0.0);
    ASSERT_LT(b, 1.0);
    stats.add(b);
  }
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(29);
  RunningStats small, large;
  for (int i = 0; i < 20000; ++i) small.add(static_cast<double>(rng.poisson(3.0)));
  for (int i = 0; i < 20000; ++i) large.add(static_cast<double>(rng.poisson(100.0)));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 0.5);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(31);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) counts[rng.weighted_index({1.0, 2.0, 7.0})]++;
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(37);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.weighted_index({0.0, 0.0, 0.0}));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, WeightedIndexRejectsNegative) {
  Rng rng(41);
  EXPECT_THROW(rng.weighted_index({1.0, -0.5}), std::logic_error);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(47);
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

TEST(MathUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(2), 2);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(1000), 1024);
}

TEST(MathUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(-4));
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(MathUtil, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(MathUtil, QuantileInterpolates) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
}

TEST(MathUtil, MeanOf) {
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0, 6.0}), 4.0);
}

TEST(Expect, ThrowsWithMessage) {
  try {
    ONES_EXPECT_MSG(false, "specific detail");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("specific detail"), std::string::npos);
  }
}

TEST(Expect, PassesOnTrue) {
  EXPECT_NO_THROW(ONES_EXPECT(1 + 1 == 2));
}

namespace fs = std::filesystem;

/// A fresh, empty directory for one test.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ones_common_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::string> entries(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) names.push_back(e.path().filename());
  return names;
}

TEST(AtomicFile, ConcurrentWritersToOnePathLeaveOneCompleteFile) {
  const fs::path dir = fresh_dir("concurrent");
  const std::string path = (dir / "out.json").string();
  // Each writer's bytes identify it and are long enough to interleave if two
  // writers ever shared a temp file.
  const auto content = [](int writer) {
    return std::string(64 * 1024, static_cast<char>('a' + writer)) + "\n";
  };
  constexpr int kWriters = 6;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < 10; ++round) {
        common::write_file_atomically(path, [&](std::ostream& out) { out << content(w); });
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(entries(dir), std::vector<std::string>{"out.json"});  // no .tmp* left
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  bool matches_one_writer = false;
  for (int w = 0; w < kWriters; ++w) matches_one_writer |= bytes == content(w);
  EXPECT_TRUE(matches_one_writer);
  fs::remove_all(dir);
}

TEST(AtomicFile, UncommittedOrFailedWritesLeaveNothing) {
  const fs::path dir = fresh_dir("uncommitted");
  const std::string path = (dir / "out.txt").string();
  {
    common::AtomicFile file(path);
    file.out() << "partial";
  }
  EXPECT_THROW(common::write_file_atomically(path,
                                             [](std::ostream& out) {
                                               out << "partial";
                                               throw std::runtime_error("writer failed");
                                             }),
               std::runtime_error);
  EXPECT_TRUE(entries(dir).empty());
  EXPECT_THROW(common::AtomicFile((dir / "missing" / "out.txt").string()), std::runtime_error);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ones
