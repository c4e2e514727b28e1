// Unit tests for src/common: RNG determinism and distributions, alias-table
// sampling, histogram accounting, table rendering, SI formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/alias_table.hpp"
#include "common/histogram.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace gnnie {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const std::uint64_t first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng r(3);
  EXPECT_THROW(r.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng r(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng r(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng r(17);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = r.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, PowerLawStaysInSupport) {
  Rng r(19);
  for (int i = 0; i < 10000; ++i) {
    const auto x = r.next_power_law(2, 1000, 2.1);
    EXPECT_GE(x, 2u);
    EXPECT_LE(x, 1000u);
  }
}

TEST(Rng, PowerLawIsHeavyTailedTowardLowValues) {
  Rng r(23);
  int low = 0, high = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto x = r.next_power_law(1, 1000, 2.5);
    if (x <= 3) ++low;
    if (x >= 100) ++high;
  }
  EXPECT_GT(low, high * 10);
  EXPECT_GT(high, 0);  // but the tail is populated
}

TEST(Rng, PowerLawRejectsBadParameters) {
  Rng r(1);
  EXPECT_THROW(r.next_power_law(0, 10, 2.0), std::invalid_argument);
  EXPECT_THROW(r.next_power_law(5, 4, 2.0), std::invalid_argument);
  EXPECT_THROW(r.next_power_law(1, 10, 1.0), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng r(29);
  for (std::uint32_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto s = r.sample_without_replacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<std::uint32_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (auto x : s) EXPECT_LT(x, 100u);
  }
}

TEST(Rng, SampleWholePopulation) {
  Rng r(31);
  auto s = r.sample_without_replacement(10, 10);
  std::sort(s.begin(), s.end());
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng r(1);
  EXPECT_THROW(r.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(AliasTable, MatchesWeightsStatistically) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  AliasTable t(w);
  Rng r(41);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[t.sample(r)];
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, w[i] / 10.0, 0.01) << "bucket " << i;
  }
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  const std::vector<double> w{0.0, 1.0, 0.0, 1.0};
  AliasTable t(w);
  Rng r(43);
  for (int i = 0; i < 10000; ++i) {
    const auto s = t.sample(r);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTable, SingleBucket) {
  const std::vector<double> w{5.0};
  AliasTable t(w);
  Rng r(47);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(t.sample(r), 0u);
}

TEST(AliasTable, RejectsInvalidWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -1.0}), std::invalid_argument);
}

TEST(Histogram, CountsAndTotal) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(0.7);
  h.add(9.9);
  h.add_count(5.0, 3);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_EQ(h.bin(5), 3u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(4), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, PeakAndMaxEdge) {
  Histogram h(0.0, 100.0, 10);
  h.add_count(5.0, 7);
  h.add_count(55.0, 2);
  EXPECT_EQ(h.peak(), 7u);
  EXPECT_DOUBLE_EQ(h.max_nonempty_edge(), 60.0);
}

TEST(Histogram, MeanTracksInputs) {
  Histogram h(0.0, 10.0, 10);
  h.add(2.0);
  h.add(4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Histogram, EmptyHistogram) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.peak(), 0u);
  EXPECT_DOUBLE_EQ(h.max_nonempty_edge(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0.0, 2.0, 2);
  h.add_count(0.5, 4);
  const std::string s = h.render(10);
  EXPECT_NE(s.find("4"), std::string::npos);
  EXPECT_NE(s.find("####"), std::string::npos);
}

TEST(Histogram, RejectsInvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  // Separator row present.
  EXPECT_NE(s.find("|--"), std::string::npos);
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Units, CyclesToSeconds) {
  EXPECT_DOUBLE_EQ(cycles_to_seconds(1'300'000'000ull), 1.0);
}

TEST(Require, MacrosThrowWithContext) {
  try {
    GNNIE_REQUIRE(false, "custom message");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("custom message"), std::string::npos);
  }
  EXPECT_THROW(GNNIE_ASSERT(1 == 2, "no"), std::logic_error);
}

}  // namespace
}  // namespace gnnie
