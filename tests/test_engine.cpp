// End-to-end tests for the Engine compile → plan → run path: functional
// equivalence against the reference forward pass for all five GNNs, report
// sanity, determinism, and configuration effects on inference time.
#include <gtest/gtest.h>

#include <memory>

#include "engine_test_util.hpp"
#include "nn/reference.hpp"

namespace gnnie {
namespace {

using test::ModelFixture;

/// Runs the fixture under `cfg` and `policy` (null = degree-aware) and
/// returns the max deviation from the reference forward pass.
float run_and_compare(const ModelFixture& f, const EngineConfig& cfg,
                      InferenceReport* report = nullptr,
                      std::shared_ptr<const CachePolicy> policy = nullptr) {
  InferenceResult res = f.run(Engine(cfg, std::move(policy)));
  Matrix want =
      reference_forward(f.model, f.weights, f.data.graph, f.data.features, f.sampled);
  if (report != nullptr) *report = res.report;
  return Matrix::max_abs_diff(res.output, want);
}

/// The §VIII-E baseline's cache behavior: the subgraph machinery over a
/// plain vertex-ID layout (no CP).
std::shared_ptr<const CachePolicy> id_order() {
  return CachePolicy::make(CachePolicyKind::kIdOrder);
}

class EngineEquivalence : public ::testing::TestWithParam<GnnKind> {};

TEST_P(EngineEquivalence, MatchesReferenceForward) {
  ModelFixture f(GetParam());
  EngineConfig cfg = EngineConfig::paper_default(false);
  InferenceReport rep;
  EXPECT_LT(run_and_compare(f, cfg, &rep), 2e-3f);
  EXPECT_GT(rep.total_cycles, 0u);
  EXPECT_GT(rep.total_macs, 0u);
  EXPECT_GT(rep.runtime_seconds(), 0.0);
}

TEST_P(EngineEquivalence, MatchesReferenceWithTinyCache) {
  ModelFixture f(GetParam());
  EngineConfig cfg = EngineConfig::paper_default(false);
  cfg.buffers.input = 16u << 10;  // force heavy eviction traffic
  EXPECT_LT(run_and_compare(f, cfg), 2e-3f);
}

TEST_P(EngineEquivalence, MatchesReferenceWithAllOptimizationsOff) {
  ModelFixture f(GetParam());
  EngineConfig cfg = EngineConfig::paper_default(false);
  cfg.array = ArrayConfig::design_a();
  cfg.opts = OptimizationFlags::all_off();
  EXPECT_LT(run_and_compare(f, cfg, nullptr, id_order()), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(AllGnns, EngineEquivalence,
                         ::testing::Values(GnnKind::kGcn, GnnKind::kGraphSage, GnnKind::kGat,
                                           GnnKind::kGinConv, GnnKind::kDiffPool),
                         [](const auto& info) { return to_string(info.param); });

TEST(Engine, PeakTopsMatchesPaper) {
  Engine e(EngineConfig::paper_default(true));
  // 1216 MACs × 2 ops × 1.3 GHz = 3.16 TOPS (Table IV reports 3.17).
  EXPECT_NEAR(e.peak_tops(), 3.16, 0.03);
}

TEST(Engine, DeterministicAcrossRuns) {
  ModelFixture f(GnnKind::kGcn);
  EngineConfig cfg = EngineConfig::paper_default(false);
  InferenceResult r1 = f.run(Engine(cfg));
  InferenceResult r2 = f.run(Engine(cfg));
  EXPECT_EQ(r1.report.total_cycles, r2.report.total_cycles);
  EXPECT_EQ(Matrix::max_abs_diff(r1.output, r2.output), 0.0f);
}

TEST(Engine, BackToBackRunsOnOneEngineReportIdenticalStats) {
  // Regression: the engine used to share one accumulating HbmModel across
  // runs, so a second run's InferenceReport.dram included the first run's
  // traffic. Runs are stateless now — identical requests, identical stats.
  ModelFixture f(GnnKind::kGcn);
  const CompiledModel compiled =
      Engine(EngineConfig::paper_default(false)).compile(f.model, f.weights);
  const RunRequest request{compiled.plan(f.data.graph), &f.data.features};
  InferenceResult r1 = compiled.run(request);
  InferenceResult r2 = compiled.run(request);
  EXPECT_EQ(r1.report.dram.bytes_read, r2.report.dram.bytes_read);
  EXPECT_EQ(r1.report.dram.bytes_written, r2.report.dram.bytes_written);
  EXPECT_EQ(r1.report.dram.accesses, r2.report.dram.accesses);
  EXPECT_EQ(r1.report.dram_energy, r2.report.dram_energy);
  EXPECT_EQ(r1.report.total_cycles, r2.report.total_cycles);
  EXPECT_EQ(Matrix::max_abs_diff(r1.output, r2.output), 0.0f);
}

TEST(Engine, LayerReportsAreComplete) {
  ModelFixture f(GnnKind::kGat);
  InferenceResult res = f.run(Engine(EngineConfig::paper_default(false)));
  ASSERT_EQ(res.report.layers.size(), 2u);
  for (const LayerReport& lr : res.report.layers) {
    EXPECT_GT(lr.weighting.total_cycles, 0u);
    ASSERT_TRUE(lr.attention.has_value());
    EXPECT_GT(lr.attention->total_cycles, 0u);
    EXPECT_GT(lr.aggregation.total_cycles, 0u);
    EXPECT_GT(lr.total_cycles, 0u);
  }
}

TEST(Engine, GinGetsSecondLinearReport) {
  ModelFixture f(GnnKind::kGinConv);
  InferenceResult res = f.run(Engine(EngineConfig::paper_default(false)));
  for (const LayerReport& lr : res.report.layers) {
    ASSERT_TRUE(lr.mlp2.has_value());
    EXPECT_GT(lr.mlp2->total_cycles, 0u);
  }
}

TEST(Engine, DiffPoolReportsEmbedPoolAndCoarsen) {
  ModelFixture f(GnnKind::kDiffPool);
  InferenceResult res = f.run(Engine(EngineConfig::paper_default(false)));
  // 2 embed + 2 pool + 1 coarsen.
  EXPECT_EQ(res.report.layers.size(), 5u);
  EXPECT_EQ(res.output.rows(), f.model.pool_clusters);
}

// total_macs counts each aggregation at the width it ran: DiffPool's last
// pool layer and its coarsening pass aggregate pool_clusters-wide rows,
// narrower than the 128-wide output.
TEST(Engine, DiffPoolCountsEachAggregationAtItsOwnWidth) {
  const Dataset d = generate_dataset(DatasetId::kCora, 1.0, 1);
  ModelConfig model;
  model.kind = GnnKind::kDiffPool;
  model.input_dim = d.spec.feature_length;
  model.pool_clusters = 32;
  const InferenceReport rep =
      test::run_once(Engine(EngineConfig::paper_default(false)), model,
                     init_weights(model, 42), d.graph, d.features)
          .report;
  // 2 embed + 2 pool + 1 coarsen; the last two aggregate 32 wide.
  const std::uint64_t widths[] = {128, 128, 128, 32, 32};
  ASSERT_EQ(rep.layers.size(), std::size(widths));
  std::uint64_t stages = 0;
  for (std::size_t l = 0; l < rep.layers.size(); ++l) {
    const LayerReport& lr = rep.layers[l];
    stages += lr.weighting.macs + (lr.mlp2 ? lr.mlp2->macs : 0) +
              lr.aggregation.accum_ops * widths[l];
  }
  EXPECT_EQ(rep.total_macs, stages);
  EXPECT_EQ(rep.total_macs, 58'829'984u);
}

TEST(Engine, OptimizationsReduceInferenceCycles) {
  ModelFixture f(GnnKind::kGcn, 0.15, 64);
  EngineConfig all_on = EngineConfig::paper_default(false);
  all_on.buffers.input = 32u << 10;
  EngineConfig all_off = all_on;
  all_off.array = ArrayConfig::design_a();
  all_off.opts = OptimizationFlags::all_off();
  all_off.opts.zero_skip = true;  // zero-skip is baseline behaviour in §VIII-E

  InferenceReport rep_on, rep_off;
  run_and_compare(f, all_on, &rep_on);
  run_and_compare(f, all_off, &rep_off, id_order());
  EXPECT_LT(rep_on.total_cycles, rep_off.total_cycles);
}

TEST(Engine, GatCostsMoreThanGcn) {
  ModelFixture gcn(GnnKind::kGcn);
  ModelFixture gat(GnnKind::kGat);
  EngineConfig cfg = EngineConfig::paper_default(false);
  InferenceReport rep_gcn, rep_gat;
  run_and_compare(gcn, cfg, &rep_gcn);
  run_and_compare(gat, cfg, &rep_gat);
  EXPECT_GT(rep_gat.total_cycles, rep_gcn.total_cycles);
}

TEST(Engine, DramStatsPopulated) {
  ModelFixture f(GnnKind::kGcn);
  EngineConfig cfg = EngineConfig::paper_default(false);
  InferenceReport rep;
  run_and_compare(f, cfg, &rep);
  EXPECT_GT(rep.dram.bytes_read, 0u);
  EXPECT_GT(rep.dram.bytes_written, 0u);
  EXPECT_GT(rep.dram_energy, 0.0);
  EXPECT_GT(rep.dram.row_hit_rate(), 0.5);  // policy-mode traffic is streaming
}

TEST(Engine, EffectiveTopsBelowPeak) {
  ModelFixture f(GnnKind::kGcn, 0.2, 128);
  Engine engine(EngineConfig::paper_default(false));
  InferenceResult res = f.run(engine);
  EXPECT_GT(res.report.effective_tops(), 0.0);
  EXPECT_LT(res.report.effective_tops(), engine.peak_tops() * 1.001);
}

TEST(Engine, RejectsMismatchedInputs) {
  ModelFixture f(GnnKind::kGcn);
  Engine engine(EngineConfig::paper_default(false));
  ModelConfig bad = f.model;
  bad.input_dim += 1;
  EXPECT_THROW(test::run_once(engine, bad, f.weights, f.data.graph, f.data.features),
               std::invalid_argument);
  ModelFixture sage(GnnKind::kGraphSage);
  EXPECT_THROW(test::run_once(engine, sage.model, sage.weights, sage.data.graph,
                              sage.data.features),
               std::invalid_argument);
}

}  // namespace
}  // namespace gnnie
