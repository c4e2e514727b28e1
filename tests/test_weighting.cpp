// Tests for the Weighting engine (§IV): functional equivalence to dense
// matmul, zero-skipping, FM binning's imbalance reduction, LR's further
// smoothing, stall behaviour, pass/memory accounting, and a pin of every
// report counter to recorded values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/weighting.hpp"
#include "datasets/synthetic.hpp"
#include "engine_test_util.hpp"
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

// Every WeightingReport counter and the DRAM stats, in a fixed order.
std::vector<std::uint64_t> counters_of(const WeightingReport& r, const HbmStats& s) {
  const Cycles row_sum = std::accumulate(r.row_cycles.begin(), r.row_cycles.end(), Cycles{0});
  const Cycles row_max =
      r.row_cycles.empty() ? 0 : *std::max_element(r.row_cycles.begin(), r.row_cycles.end());
  return {r.compute_cycles,
          r.memory_cycles,
          r.total_cycles,
          r.stall_cycles,
          r.passes,
          r.macs,
          r.blocks_total,
          r.blocks_skipped,
          r.lr_moved_blocks,
          r.lr_overhead_cycles,
          r.weight_stream_bytes,
          r.dram_stream_bytes,
          r.row_cycles.size(),
          row_sum,
          row_max,
          s.bytes_read,
          s.bytes_written,
          s.bursts,
          s.row_hits,
          s.row_misses,
          s.client_bytes[0],
          s.client_bytes[1],
          s.client_bytes[2],
          s.accesses};
}

// Pins the modeled output of the weighting engine — the sparse (RLC) and
// dense paths on designs A and E under the switches fig16–fig18 ablate,
// plus a tight psum budget and small buffers — to values recorded from the
// engine, so a change to the schedule, stall, residency or stream
// accounting must keep every number.
TEST(Weighting, ReportsMatchRecordedValues) {
  const SparseMatrix sparse = small_sparse();
  Matrix dense = random_dense(300, 48, 5);
  for (float& x : dense.data()) x = std::max(x, 0.0f);  // a ReLU'd later layer
  const Matrix w_sparse = random_dense(sparse.col_count(), 40, 7);
  const Matrix w_dense = random_dense(dense.cols(), 40, 8);

  const EngineConfig e_all = config_with(true, true, true);
  const EngineConfig e_fm = config_with(true, true, false);
  const EngineConfig a_base = config_with(true, false, false, ArrayConfig::design_a());
  const EngineConfig a_lr = config_with(true, false, true, ArrayConfig::design_a());
  const EngineConfig e_no_skip = config_with(false, true, true);
  EngineConfig a_tight = a_base;
  a_tight.array.psum_slots_per_mpe = 4;
  EngineConfig e_small = e_all;
  e_small.buffers.input = 4u << 10;
  e_small.buffers.output = 8u << 10;

  struct Case {
    const char* name;
    bool sparse_input;
    const EngineConfig& config;
    std::vector<std::uint64_t> want;
  };
  const Case cases[] = {
      {"sparse E fm+lr", true, e_all,
       {399, 811, 811, 0, 3, 160520, 3472, 1378, 18, 9, 68784, 136533, 16, 2115, 133, 95040, 41664,
        2136, 2048, 88, 26112, 41664, 68928, 7}},
      {"sparse E fm", true, e_fm,
       {402, 811, 811, 0, 3, 160520, 3472, 1378, 0, 0, 68784, 136533, 16, 2101, 134, 95040, 41664,
        2136, 2048, 88, 26112, 41664, 68928, 7}},
      {"sparse A base", true, a_base,
       {492, 1134, 1134, 45, 3, 160520, 3472, 1378, 0, 0, 68784, 184647, 16, 2194, 149, 119232,
        65856, 2892, 2764, 128, 26112, 90048, 68928, 13}},
      {"sparse A lr", true, a_lr,
       {429, 811, 811, 0, 3, 160520, 3472, 1378, 44, 22, 68784, 136533, 16, 2218, 143, 95040,
        41664, 2136, 2048, 88, 26112, 41664, 68928, 7}},
      {"sparse E no zero-skip", true, e_no_skip,
       {15300, 811, 15300, 0, 3, 160520, 3472, 0, 1736, 868, 68784, 136533, 16, 80728, 5100, 95040,
        41664, 2136, 2048, 88, 26112, 41664, 68928, 7}},
      {"sparse A tight psum", true, a_tight,
       {516, 1267, 1267, 69, 3, 160520, 3472, 1378, 0, 0, 68784, 211053, 16, 2194, 149, 132480,
        79104, 3306, 3178, 128, 26112, 116544, 68928, 13}},
      {"sparse E small buffers", true, e_small,
       {399, 1091, 1091, 0, 3, 160520, 3472, 1378, 18, 9, 68784, 180511, 16, 2115, 133, 139072,
        41664, 2824, 2688, 136, 70144, 41664, 68928, 9}},
      {"dense E fm+lr", false, e_all,
       {1518, 1222, 1683, 390, 3, 290360, 4800, 594, 1524, 762, 2304, 217278, 16, 4971, 377,
        109824, 107520, 3396, 3308, 88, 57600, 157440, 2304, 13}},
      {"dense E fm", false, e_fm,
       {2652, 1268, 2652, 1290, 3, 290360, 4800, 594, 0, 0, 2304, 226560, 16, 4206, 454, 114432,
        112128, 3540, 3452, 88, 57600, 166656, 2304, 13}},
      {"dense A base", false, a_base,
       {822, 798, 1076, 6, 3, 290360, 4800, 594, 0, 0, 2304, 134400, 16, 4206, 272, 68352, 66048,
        2100, 2020, 80, 57600, 74496, 2304, 13}},
      {"dense E no zero-skip", false, e_no_skip,
       {1728, 1207, 1818, 378, 3, 290360, 4800, 0, 2400, 1200, 2304, 214272, 16, 6000, 450, 108288,
        105984, 3348, 3260, 88, 57600, 154368, 2304, 13}},
      {"dense E small buffers", false, e_small,
       {1518, 1786, 1786, 390, 3, 290360, 4800, 594, 1524, 762, 2304, 307902, 16, 4971, 377,
        200448, 107520, 4812, 4660, 152, 148224, 157440, 2304, 15}},
  };

  std::uint64_t skipped = 0, moved = 0, stalls = 0;
  for (const Case& c : cases) {
    HbmModel hbm;
    WeightingReport rep;
    WeightingEngine eng(c.config, &hbm);
    if (c.sparse_input) {
      eng.run(sparse, w_sparse, &rep);
    } else {
      eng.run(dense, w_dense, &rep);
    }
    const std::vector<std::uint64_t> got = counters_of(rep, hbm.stats());
    EXPECT_EQ(got, c.want) << c.name << " now reports " << test::brace_list(got);
    skipped += rep.blocks_skipped;
    moved += rep.lr_moved_blocks;
    stalls += rep.stall_cycles;
  }
  // The table must keep reaching every branch it exists to pin.
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(moved, 0u);
  EXPECT_GT(stalls, 0u);
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
