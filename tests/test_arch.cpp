// Tests for src/arch: design-point MAC counts (the paper's Designs A–E),
// row-group extraction for FM binning, and the LUT exp's accuracy — the
// attention softmax depends on it.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/pe_array.hpp"
#include "arch/sfu.hpp"

namespace gnnie {
namespace {

TEST(ArrayConfig, DesignMacTotalsMatchPaper) {
  EXPECT_EQ(ArrayConfig::design_a().total_macs(), 1024u);
  EXPECT_EQ(ArrayConfig::design_b().total_macs(), 1280u);
  EXPECT_EQ(ArrayConfig::design_c().total_macs(), 1536u);
  EXPECT_EQ(ArrayConfig::design_d().total_macs(), 1792u);
  EXPECT_EQ(ArrayConfig::design_e().total_macs(), 1216u);
}

TEST(ArrayConfig, DesignNames) {
  EXPECT_EQ(ArrayConfig::design_a().name(), "A");
  EXPECT_EQ(ArrayConfig::design_e().name(), "E");
  ArrayConfig c = ArrayConfig::uniform(3);
  EXPECT_EQ(c.name(), "custom");
}

TEST(ArrayConfig, DesignEGroupStructure) {
  ArrayConfig e = ArrayConfig::design_e();
  auto groups = e.row_groups();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].size(), 8u);  // rows 1–8: 4 MACs
  EXPECT_EQ(groups[1].size(), 4u);  // rows 9–12: 5 MACs
  EXPECT_EQ(groups[2].size(), 4u);  // rows 13–16: 6 MACs
  EXPECT_EQ(e.macs_in_row(groups[0][0]), 4u);
  EXPECT_EQ(e.macs_in_row(groups[1][0]), 5u);
  EXPECT_EQ(e.macs_in_row(groups[2][0]), 6u);
}

TEST(ArrayConfig, UniformDesignHasOneGroup) {
  EXPECT_EQ(ArrayConfig::design_a().row_groups().size(), 1u);
}

TEST(ArrayConfig, SixteenBySixteen) {
  ArrayConfig e = ArrayConfig::design_e();
  EXPECT_EQ(e.rows, 16u);
  EXPECT_EQ(e.cols, 16u);
  EXPECT_EQ(e.total_cpes(), 256u);
}

TEST(ArrayConfig, ValidateRejectsDecreasingMacs) {
  ArrayConfig c = ArrayConfig::design_e();
  std::swap(c.macs_per_row.front(), c.macs_per_row.back());
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ArrayConfig, ValidateRejectsZeroMacRow) {
  ArrayConfig c = ArrayConfig::design_a();
  c.macs_per_row[0] = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ArrayConfig, ValidateRejectsWrongRowVectorSize) {
  ArrayConfig c = ArrayConfig::design_a();
  c.macs_per_row.pop_back();
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ArrayConfig, MacsInRowBoundsChecked) {
  ArrayConfig c = ArrayConfig::design_a();
  EXPECT_THROW(c.macs_in_row(16), std::invalid_argument);
}

TEST(Sfu, ExpMatchesStdExpTightly) {
  SfuExpLut sfu;
  // GAT attention scores land in a modest range after LeakyReLU.
  EXPECT_LT(sfu.max_relative_error(-20.0f, 10.0f), 2e-3);
}

TEST(Sfu, ExpExactAtZero) {
  SfuExpLut sfu;
  EXPECT_NEAR(sfu.exp(0.0f), 1.0f, 1e-5f);
}

TEST(Sfu, ExpJustBelowAnIntegerStaysInTheTable) {
  // x·log2(e) = −1.4e-8: the fraction above floor = −1 rounds to 1.0f.
  SfuExpLut sfu;
  EXPECT_NEAR(sfu.exp(-1e-8f), 1.0f, 1e-6f);
}

TEST(Sfu, ExpMonotonic) {
  SfuExpLut sfu;
  float prev = sfu.exp(-30.0f);
  for (float x = -29.5f; x < 30.0f; x += 0.5f) {
    const float cur = sfu.exp(x);
    EXPECT_GE(cur, prev) << "at x=" << x;
    prev = cur;
  }
}

TEST(Sfu, ExpSaturatesInsteadOfOverflowing) {
  SfuExpLut sfu;
  EXPECT_TRUE(std::isfinite(sfu.exp(1000.0f)));
  EXPECT_GT(sfu.exp(1000.0f), 1e30f);
  EXPECT_GE(sfu.exp(-1000.0f), 0.0f);
  EXPECT_LT(sfu.exp(-1000.0f), 1e-30f);
}

TEST(Sfu, LeakyRelu) {
  SfuExpLut sfu;
  EXPECT_FLOAT_EQ(sfu.leaky_relu(3.0f, 0.2f), 3.0f);
  EXPECT_FLOAT_EQ(sfu.leaky_relu(-3.0f, 0.2f), -0.6f);
  EXPECT_FLOAT_EQ(sfu.leaky_relu(0.0f, 0.2f), 0.0f);
}

class SfuAccuracySweep : public ::testing::TestWithParam<float> {};

TEST_P(SfuAccuracySweep, RelativeErrorBoundedAcrossDecades) {
  SfuExpLut sfu;
  const float center = GetParam();
  EXPECT_LT(sfu.max_relative_error(center - 1.0f, center + 1.0f, 512), 2e-3) << center;
}

INSTANTIATE_TEST_SUITE_P(Centers, SfuAccuracySweep,
                         ::testing::Values(-40.0f, -10.0f, -1.0f, 0.0f, 1.0f, 10.0f, 40.0f));

}  // namespace
}  // namespace gnnie
