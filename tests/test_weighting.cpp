// Tests for the Weighting engine (§IV): functional equivalence to dense
// matmul, zero-skipping, FM binning's imbalance reduction, LR's further
// smoothing, stall behaviour, and pass/memory accounting.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/weighting.hpp"
#include "datasets/synthetic.hpp"
#include "nn/model.hpp"
#include "nn/reference.hpp"

namespace gnnie {
namespace {

EngineConfig config_with(bool zero_skip, bool binning, bool lr,
                         ArrayConfig array = ArrayConfig::design_e()) {
  EngineConfig c = EngineConfig::paper_default(false);
  c.array = std::move(array);
  c.opts.zero_skip = zero_skip;
  c.opts.workload_binning = binning;
  c.opts.load_redistribution = lr;
  return c;
}

Matrix random_dense(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (float& x : m.data()) x = static_cast<float>(rng.next_double(-1.0, 1.0));
  return m;
}

SparseMatrix small_sparse(std::uint64_t seed = 3) {
  DatasetSpec spec = spec_of(DatasetId::kCora).scaled(0.08);
  return generate_features(spec, seed);
}

TEST(Weighting, SparseFunctionalMatchesDenseMatmul) {
  SparseMatrix h = small_sparse();
  Matrix w = random_dense(h.col_count(), 32, 7);
  EngineConfig cfg = config_with(true, true, true);
  HbmModel hbm;
  WeightingEngine eng(cfg, &hbm);
  Matrix got = eng.run(h, w);
  Matrix want = matmul(to_matrix(h), w);
  EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-4f);
}

TEST(Weighting, DenseFunctionalMatchesMatmul) {
  Matrix h = random_dense(60, 48, 5);
  Matrix w = random_dense(48, 16, 6);
  EngineConfig cfg = config_with(true, true, true);
  HbmModel hbm;
  WeightingEngine eng(cfg, &hbm);
  Matrix got = eng.run(h, w);
  EXPECT_LT(Matrix::max_abs_diff(got, matmul(h, w)), 1e-4f);
}

TEST(Weighting, FunctionalResultIndependentOfFlags) {
  SparseMatrix h = small_sparse();
  Matrix w = random_dense(h.col_count(), 24, 9);
  HbmModel hbm;
  Matrix base;
  bool first = true;
  for (bool zs : {false, true}) {
    for (bool bin : {false, true}) {
      for (bool lr : {false, true}) {
        EngineConfig cfg = config_with(zs, bin, lr);
        WeightingEngine eng(cfg, &hbm);
        Matrix got = eng.run(h, w);
        if (first) {
          base = got;
          first = false;
        } else {
          EXPECT_EQ(Matrix::max_abs_diff(got, base), 0.0f);
        }
      }
    }
  }
}

TEST(Weighting, ReportBasics) {
  SparseMatrix h = small_sparse();
  Matrix w = random_dense(h.col_count(), 128, 2);
  EngineConfig cfg = config_with(true, true, false);
  HbmModel hbm;
  WeightingEngine eng(cfg, &hbm);
  WeightingReport rep;
  eng.run(h, w, &rep);
  EXPECT_EQ(rep.passes, 8u);  // 128 outputs / 16 columns
  EXPECT_EQ(rep.row_cycles.size(), 16u);
  EXPECT_GT(rep.compute_cycles, 0u);
  EXPECT_GT(rep.total_cycles, 0u);
  EXPECT_GE(rep.total_cycles, rep.memory_cycles / rep.passes);
  EXPECT_EQ(rep.macs, h.total_nnz() * 128);
  EXPECT_EQ(rep.blocks_total, h.row_count() * 16);
}

TEST(Weighting, ZeroSkipReducesCycles) {
  SparseMatrix h = small_sparse();
  Matrix w = random_dense(h.col_count(), 64, 2);
  HbmModel hbm;
  WeightingReport skip, noskip;
  {
    EngineConfig cfg = config_with(true, false, false);
    WeightingEngine(cfg, &hbm).run(h, w, &skip);
  }
  {
    EngineConfig cfg = config_with(false, false, false);
    WeightingEngine(cfg, &hbm).run(h, w, &noskip);
  }
  EXPECT_LT(skip.compute_cycles, noskip.compute_cycles / 4);  // 98%+ sparse input
  EXPECT_GT(skip.blocks_skipped, 0u);
  EXPECT_EQ(noskip.blocks_skipped, 0u);
}

TEST(Weighting, FmBinningReducesImbalance) {
  SparseMatrix h = small_sparse();
  Matrix w = random_dense(h.col_count(), 128, 2);
  HbmModel hbm;
  WeightingReport base, fm;
  {
    EngineConfig cfg = config_with(true, false, false, ArrayConfig::design_e());
    WeightingEngine(cfg, &hbm).run(h, w, &base);
  }
  {
    EngineConfig cfg = config_with(true, true, false, ArrayConfig::design_e());
    WeightingEngine(cfg, &hbm).run(h, w, &fm);
  }
  EXPECT_LT(fm.row_imbalance(), base.row_imbalance());
  EXPECT_LT(fm.compute_cycles, base.compute_cycles);
}

TEST(Weighting, LrFurtherSmoothsAfterFm) {
  SparseMatrix h = small_sparse();
  Matrix w = random_dense(h.col_count(), 128, 2);
  HbmModel hbm;
  WeightingReport fm, fmlr;
  {
    EngineConfig cfg = config_with(true, true, false);
    WeightingEngine(cfg, &hbm).run(h, w, &fm);
  }
  {
    EngineConfig cfg = config_with(true, true, true);
    WeightingEngine(cfg, &hbm).run(h, w, &fmlr);
  }
  EXPECT_LE(fmlr.row_spread(), fm.row_spread());
  EXPECT_LE(fmlr.compute_cycles, fm.compute_cycles);
  EXPECT_GT(fmlr.lr_moved_blocks, 0u);
}

TEST(Weighting, MoreMacsNeverSlower) {
  SparseMatrix h = small_sparse();
  Matrix w = random_dense(h.col_count(), 64, 2);
  HbmModel hbm;
  Cycles prev = ~0ull;
  for (auto arr : {ArrayConfig::design_a(), ArrayConfig::design_b(), ArrayConfig::design_c(),
                   ArrayConfig::design_d()}) {
    EngineConfig cfg = config_with(true, false, false, arr);
    WeightingReport rep;
    WeightingEngine(cfg, &hbm).run(h, w, &rep);
    EXPECT_LE(rep.compute_cycles, prev);
    prev = rep.compute_cycles;
  }
}

TEST(Weighting, StallsShrinkWithBalancedRows) {
  SparseMatrix h = small_sparse();
  Matrix w = random_dense(h.col_count(), 64, 2);
  HbmModel hbm;
  WeightingReport base, fm;
  EngineConfig cfg_base = config_with(true, false, false);
  cfg_base.array.psum_slots_per_mpe = 4;  // tight psum budget
  WeightingEngine(cfg_base, &hbm).run(h, w, &base);
  EngineConfig cfg_fm = config_with(true, true, true);
  cfg_fm.array.psum_slots_per_mpe = 4;
  WeightingEngine(cfg_fm, &hbm).run(h, w, &fm);
  EXPECT_LE(fm.stall_cycles, base.stall_cycles);
}

TEST(Weighting, MemoryCyclesScaleWithPasses) {
  SparseMatrix h = small_sparse();
  HbmModel hbm;
  EngineConfig cfg = config_with(true, true, true);
  WeightingReport rep64, rep128;
  WeightingEngine(cfg, &hbm).run(h, random_dense(h.col_count(), 64, 2), &rep64);
  WeightingEngine(cfg, &hbm).run(h, random_dense(h.col_count(), 128, 2), &rep128);
  EXPECT_EQ(rep64.passes, 4u);
  EXPECT_EQ(rep128.passes, 8u);
  EXPECT_GT(rep128.memory_cycles, rep64.memory_cycles);
}

TEST(Weighting, RejectsShapeMismatch) {
  SparseMatrix h = small_sparse();
  Matrix w = random_dense(h.col_count() + 1, 16, 2);
  EngineConfig cfg = config_with(true, true, true);
  HbmModel hbm;
  WeightingEngine eng(cfg, &hbm);
  EXPECT_THROW(eng.run(h, w), std::invalid_argument);
  EXPECT_THROW(WeightingEngine(cfg, nullptr), std::invalid_argument);
}

TEST(Weighting, TinyFeatureDimUsesFewerRows) {
  // F_in = 5 on a 16-row array: k = 1, 5 blocks per vertex.
  Matrix h = random_dense(10, 5, 3);
  Matrix w = random_dense(5, 8, 4);
  EngineConfig cfg = config_with(true, false, false);
  HbmModel hbm;
  WeightingEngine eng(cfg, &hbm);
  WeightingReport rep;
  Matrix got = eng.run(h, w, &rep);
  EXPECT_LT(Matrix::max_abs_diff(got, matmul(h, w)), 1e-5f);
  // Rows 5..15 idle in the base mapping.
  for (std::size_t r = 5; r < 16; ++r) EXPECT_EQ(rep.row_cycles[r], 0u);
}

TEST(Weighting, SingleVertexWorks) {
  Matrix h = random_dense(1, 40, 3);
  Matrix w = random_dense(40, 16, 4);
  EngineConfig cfg = config_with(true, true, true);
  HbmModel hbm;
  WeightingEngine eng(cfg, &hbm);
  Matrix got = eng.run(h, w);
  EXPECT_LT(Matrix::max_abs_diff(got, matmul(h, w)), 1e-5f);
}

class WeightingDesignSweep : public ::testing::TestWithParam<int> {};

TEST_P(WeightingDesignSweep, AllDesignsComputeTheSameFunction) {
  ArrayConfig arr = GetParam() == 0   ? ArrayConfig::design_a()
                    : GetParam() == 1 ? ArrayConfig::design_b()
                    : GetParam() == 2 ? ArrayConfig::design_c()
                    : GetParam() == 3 ? ArrayConfig::design_d()
                                      : ArrayConfig::design_e();
  SparseMatrix h = small_sparse();
  Matrix w = random_dense(h.col_count(), 32, 11);
  EngineConfig cfg = config_with(true, true, true, arr);
  HbmModel hbm;
  WeightingEngine eng(cfg, &hbm);
  WeightingReport rep;
  Matrix got = eng.run(h, w, &rep);
  EXPECT_LT(Matrix::max_abs_diff(got, matmul(to_matrix(h), w)), 1e-4f);
  EXPECT_GT(rep.compute_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Designs, WeightingDesignSweep, ::testing::Range(0, 5));

}  // namespace
}  // namespace gnnie
