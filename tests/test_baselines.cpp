// Tests for the baseline models (PyG-CPU/GPU, HyGCN, AWB-GCN): capability
// gates (§VII), monotonicity in work, and the structural orderings the
// paper's comparisons rest on.
#include <gtest/gtest.h>

#include "baselines/awb_gcn.hpp"
#include "baselines/hygcn.hpp"
#include "baselines/sw_platform.hpp"
#include "datasets/synthetic.hpp"

namespace gnnie {
namespace {

struct Bench {
  Dataset data = generate_dataset(spec_of(DatasetId::kCora).scaled(0.2), 1);
  ModelConfig model_for(GnnKind kind) const {
    ModelConfig m;
    m.kind = kind;
    m.input_dim = data.spec.feature_length;
    return m;
  }
};

TEST(SwBaseline, CpuSlowerThanGpu) {
  Bench b;
  SoftwareBaseline cpu(SoftwarePlatformConfig::pyg_cpu());
  SoftwareBaseline gpu(SoftwarePlatformConfig::pyg_gpu());
  for (GnnKind kind : all_gnn_kinds()) {
    const ModelConfig m = b.model_for(kind);
    EXPECT_GT(cpu.predict_runtime(m, b.data.graph, b.data.features),
              gpu.predict_runtime(m, b.data.graph, b.data.features))
        << to_string(kind);
  }
}

TEST(SwBaseline, RuntimesArePositiveAndFinite) {
  Bench b;
  SoftwareBaseline cpu(SoftwarePlatformConfig::pyg_cpu());
  for (GnnKind kind : all_gnn_kinds()) {
    const double t = cpu.predict_runtime(b.model_for(kind), b.data.graph, b.data.features);
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 3600.0);
  }
}

TEST(SwBaseline, GinAggregatesAtInputWidth) {
  // PyG GINConv propagates at F_in before its MLP — on a wide-feature
  // dataset its edge work must dwarf GCN's (the Fig. 12 shape).
  Bench b;
  SoftwareBaseline cpu(SoftwarePlatformConfig::pyg_cpu());
  SoftwareCost gin = cpu.cost(b.model_for(GnnKind::kGinConv), b.data.graph, b.data.features);
  SoftwareCost gcn = cpu.cost(b.model_for(GnnKind::kGcn), b.data.graph, b.data.features);
  EXPECT_GT(gin.edge_element_ops, 2.0 * gcn.edge_element_ops);
}

TEST(SwBaseline, GatAddsSpecialOps) {
  Bench b;
  SoftwareBaseline cpu(SoftwarePlatformConfig::pyg_cpu());
  SoftwareCost gat = cpu.cost(b.model_for(GnnKind::kGat), b.data.graph, b.data.features);
  SoftwareCost gcn = cpu.cost(b.model_for(GnnKind::kGcn), b.data.graph, b.data.features);
  EXPECT_GT(gat.special_ops, 0.0);
  EXPECT_EQ(gcn.special_ops, 0.0);
}

TEST(SwBaseline, SamplingCostOnlyForSage) {
  Bench b;
  SoftwareBaseline cpu(SoftwarePlatformConfig::pyg_cpu());
  SoftwareCost sage = cpu.cost(b.model_for(GnnKind::kGraphSage), b.data.graph, b.data.features);
  SoftwareCost gcn = cpu.cost(b.model_for(GnnKind::kGcn), b.data.graph, b.data.features);
  EXPECT_GT(sage.sampled_edges, 0.0);
  EXPECT_EQ(gcn.sampled_edges, 0.0);
}

TEST(SwBaseline, RuntimeGrowsWithGraphSize) {
  SoftwareBaseline cpu(SoftwarePlatformConfig::pyg_cpu());
  Dataset small = generate_dataset(spec_of(DatasetId::kCora).scaled(0.05), 1);
  Dataset big = generate_dataset(spec_of(DatasetId::kCora).scaled(0.3), 1);
  ModelConfig m;
  m.kind = GnnKind::kGcn;
  m.input_dim = small.spec.feature_length;
  EXPECT_GT(cpu.predict_runtime(m, big.graph, big.features),
            cpu.predict_runtime(m, small.graph, small.features));
}

TEST(SwBaseline, RejectsInvalidConfig) {
  SoftwarePlatformConfig c = SoftwarePlatformConfig::pyg_cpu();
  c.dense_flops = 0.0;
  EXPECT_THROW(SoftwareBaseline{c}, std::invalid_argument);
}

TEST(Hygcn, SupportsExactlyTheNonSoftmaxGnns) {
  EXPECT_TRUE(HygcnModel::supports(GnnKind::kGcn));
  EXPECT_TRUE(HygcnModel::supports(GnnKind::kGraphSage));
  EXPECT_TRUE(HygcnModel::supports(GnnKind::kGinConv));
  EXPECT_FALSE(HygcnModel::supports(GnnKind::kGat));
  EXPECT_FALSE(HygcnModel::supports(GnnKind::kDiffPool));
}

TEST(Hygcn, ThrowsOnGat) {
  Bench b;
  HygcnModel h;
  EXPECT_THROW(h.run(b.model_for(GnnKind::kGat), b.data.graph, b.data.features),
               std::invalid_argument);
}

TEST(Hygcn, AggregationFirstPaysInputWidth) {
  // (Ã·H)·W: layer-0 aggregation runs at F_in = 1433 for Cora. GNNIE's
  // order would only pay 128. Aggregation cycles must dominate combination
  // proportionally.
  Bench b;
  HygcnModel h;
  HygcnReport rep = h.run(b.model_for(GnnKind::kGcn), b.data.graph, b.data.features);
  EXPECT_GT(rep.aggregation_cycles, 0u);
  EXPECT_GT(rep.total_cycles, rep.combination_cycles);
  EXPECT_GT(rep.runtime_seconds, 0.0);
}

TEST(Hygcn, SageSamplingReducesEdgeWork) {
  Bench b;
  HygcnModel h;
  ModelConfig sage = b.model_for(GnnKind::kGraphSage);
  sage.sample_size = 2;
  ModelConfig sage25 = b.model_for(GnnKind::kGraphSage);
  HygcnReport r2 = h.run(sage, b.data.graph, b.data.features);
  HygcnReport r25 = h.run(sage25, b.data.graph, b.data.features);
  EXPECT_LE(r2.aggregation_cycles, r25.aggregation_cycles);
}

TEST(AwbGcn, OnlyGcn) {
  Bench b;
  AwbGcnModel a;
  EXPECT_TRUE(AwbGcnModel::supports(GnnKind::kGcn));
  EXPECT_FALSE(AwbGcnModel::supports(GnnKind::kGraphSage));
  EXPECT_THROW(a.run(b.model_for(GnnKind::kGinConv), b.data.graph, b.data.features),
               std::invalid_argument);
}

TEST(AwbGcn, TwoSpmmsBothCounted) {
  Bench b;
  AwbGcnModel a;
  AwbGcnReport rep = a.run(b.model_for(GnnKind::kGcn), b.data.graph, b.data.features);
  EXPECT_GT(rep.spmm1_cycles, 0u);
  EXPECT_GT(rep.spmm2_cycles, 0u);
  EXPECT_GE(rep.total_cycles, rep.spmm1_cycles + rep.spmm2_cycles);
  EXPECT_GT(rep.dram_bytes, 0u);
}

TEST(AwbGcn, SparserInputIsFaster) {
  // SpMM1 cost scales with nnz(X) — AWB-GCN does exploit input sparsity.
  AwbGcnModel a;
  DatasetSpec dense_spec = spec_of(DatasetId::kCora).scaled(0.2);
  dense_spec.feature_sparsity = 0.5;
  Dataset sparse = generate_dataset(spec_of(DatasetId::kCora).scaled(0.2), 1);
  Dataset dense = generate_dataset(dense_spec, 1);
  ModelConfig m;
  m.kind = GnnKind::kGcn;
  m.input_dim = sparse.spec.feature_length;
  AwbGcnReport rs = a.run(m, sparse.graph, sparse.features);
  AwbGcnReport rd = a.run(m, dense.graph, dense.features);
  EXPECT_LT(rs.spmm1_cycles, rd.spmm1_cycles);
}

}  // namespace
}  // namespace gnnie
