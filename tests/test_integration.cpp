// Cross-module integration tests: full pipelines from dataset generation
// through engine inference to energy accounting, serialization round trips
// feeding the engine, the cycle model's independence from weight values,
// and cross-dataset property sweeps.
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/hygcn.hpp"
#include "baselines/sw_platform.hpp"
#include "datasets/synthetic.hpp"
#include "energy/energy_model.hpp"
#include "engine_test_util.hpp"
#include "graph/io.hpp"
#include "nn/layers.hpp"
#include "nn/reference.hpp"

namespace gnnie {
namespace {

class DatasetSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetSweep, FullPipelineProducesConsistentReports) {
  const DatasetSpec spec = spec_by_short_name(GetParam()).scaled(0.02);
  Dataset d = generate_dataset(spec, 11);
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.input_dim = spec.feature_length;
  model.hidden_dim = 32;
  GnnWeights w = init_weights(model, 5);

  InferenceResult res =
      test::run_once(Engine(EngineConfig::paper_default(true)), model, w, d.graph, d.features);

  // Functional correctness.
  Matrix ref = reference_forward(model, w, d.graph, d.features);
  EXPECT_LT(Matrix::max_abs_diff(res.output, ref), 2e-3f);

  // Report consistency: layer cycles sum to the total; DRAM stats nonzero;
  // energy positive and decomposable.
  Cycles layer_sum = 0;
  for (const LayerReport& lr : res.report.layers) layer_sum += lr.total_cycles;
  EXPECT_EQ(layer_sum, res.report.total_cycles);
  EXPECT_GT(res.report.dram.bytes_read, 0u);
  EnergyBreakdown e = compute_energy(res.report);
  EXPECT_GT(e.total(), 0.0);
  EXPECT_GT(inferences_per_kilojoule(e), 0.0);

  // The software baseline should be slower than the accelerator.
  SoftwareBaseline cpu(SoftwarePlatformConfig::pyg_cpu());
  EXPECT_GT(cpu.predict_runtime(model, d.graph, d.features),
            res.report.runtime_seconds());
}

INSTANTIATE_TEST_SUITE_P(Table2, DatasetSweep,
                         ::testing::Values("CR", "CS", "PB", "PPI", "RD"));

TEST(Integration, SerializedDatasetRunsIdenticallyOnEngine) {
  Dataset d = generate_dataset(spec_of(DatasetId::kCora).scaled(0.08), 3);
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(s, d.graph, d.features);
  Csr g2;
  SparseMatrix f2;
  read_binary(s, g2, f2);

  ModelConfig model;
  model.kind = GnnKind::kGat;
  model.input_dim = d.spec.feature_length;
  model.hidden_dim = 16;
  GnnWeights w = init_weights(model, 9);

  const Engine engine(EngineConfig::paper_default(false));
  InferenceResult r1 = test::run_once(engine, model, w, d.graph, d.features);
  InferenceResult r2 = test::run_once(engine, model, w, g2, f2);
  EXPECT_EQ(r1.report.total_cycles, r2.report.total_cycles);
  EXPECT_EQ(Matrix::max_abs_diff(r1.output, r2.output), 0.0f);
}

TEST(Integration, EdgeListImportFeedsEngine) {
  std::istringstream edges("0 1\n1 2\n2 3\n3 0\n0 2\n");
  EdgeListOptions opt;
  Csr g = read_edge_list(edges, opt);

  // Features for 4 vertices, 6-wide.
  std::vector<SparseRow> rows;
  for (int v = 0; v < 4; ++v) {
    rows.push_back(SparseRow::from_dense(
        std::vector<float>{0.0f, 1.0f + v, 0.0f, 0.5f, 0.0f, 0.0f}));
  }
  SparseMatrix features(std::move(rows), 6);

  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.input_dim = 6;
  model.hidden_dim = 8;
  GnnWeights w = init_weights(model, 2);
  InferenceResult res =
      test::run_once(Engine(EngineConfig::paper_default(false)), model, w, g, features);
  Matrix ref = reference_forward(model, w, g, features);
  EXPECT_LT(Matrix::max_abs_diff(res.output, ref), 1e-4f);
}

// The cycle and traffic model reads operand shapes and zero patterns, never
// weight values. Halving every weight is exact in binary floating point, so
// each ReLU keeps its zero pattern and the output scales by exactly 1/4 over
// two layers, while cycles and DRAM stats stay the same.
TEST(Integration, CyclesDoNotDependOnWeightValues) {
  Dataset d = generate_dataset(spec_of(DatasetId::kCiteseer).scaled(0.05), 7);
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.input_dim = d.spec.feature_length;
  model.hidden_dim = 24;
  const GnnWeights w = init_weights(model, 13);
  GnnWeights halved = w;
  for (LayerWeights& lw : halved.layers) {
    for (float& x : lw.w.data()) x *= 0.5f;
  }

  const Engine engine(EngineConfig::paper_default(false));
  const InferenceResult res = test::run_once(engine, model, w, d.graph, d.features);
  const InferenceResult half = test::run_once(engine, model, halved, d.graph, d.features);

  Matrix quarter = res.output;
  for (float& x : quarter.data()) x *= 0.25f;
  EXPECT_EQ(Matrix::max_abs_diff(quarter, half.output), 0.0f);
  EXPECT_EQ(res.report.total_cycles, half.report.total_cycles);
  const HbmStats& a = res.report.dram;
  const HbmStats& b = half.report.dram;
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.bursts, b.bursts);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.client_bytes, b.client_bytes);
  EXPECT_EQ(a.accesses, b.accesses);
}

TEST(Integration, HygcnAndEngineAgreeOnWorkloadScaling) {
  // Both models should rank datasets identically by runtime for GCN.
  HygcnModel hygcn;
  std::vector<double> gnnie_times, hygcn_times;
  for (const char* name : {"CR", "PB"}) {
    Dataset d = generate_dataset(spec_by_short_name(name).scaled(0.05), 1);
    ModelConfig model;
    model.kind = GnnKind::kGcn;
    model.input_dim = d.spec.feature_length;
    GnnWeights w = init_weights(model, 5);
    const Engine engine(EngineConfig::paper_default(true));
    gnnie_times.push_back(
        test::run_once(engine, model, w, d.graph, d.features).report.runtime_seconds());
    hygcn_times.push_back(hygcn.run(model, d.graph, d.features).runtime_seconds);
  }
  EXPECT_LT(gnnie_times[0], gnnie_times[1]);
  EXPECT_LT(hygcn_times[0], hygcn_times[1]);
}

TEST(Integration, ScaledDatasetsPreserveEngineBehaviourQualitatively) {
  // Bigger scale → more cycles, more DRAM traffic, same functional match.
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.hidden_dim = 16;
  Cycles prev_cycles = 0;
  for (double scale : {0.02, 0.06, 0.12}) {
    Dataset d = generate_dataset(spec_of(DatasetId::kPubmed).scaled(scale), 3);
    model.input_dim = d.spec.feature_length;
    GnnWeights w = init_weights(model, 5);
    InferenceResult res =
        test::run_once(Engine(EngineConfig::paper_default(true)), model, w, d.graph, d.features);
    EXPECT_GT(res.report.total_cycles, prev_cycles);
    prev_cycles = res.report.total_cycles;
  }
}

}  // namespace
}  // namespace gnnie
