// Tests for src/nn: matrix math, activations, each reference GNN layer's
// semantics (Table I), neighborhood sampling, and full-model forward shapes.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "datasets/synthetic.hpp"
#include "graph/builder.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/model.hpp"
#include "nn/ops.hpp"
#include "nn/reference.hpp"

namespace gnnie {
namespace {

Csr path3() {
  // 0 - 1 - 2
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2);
  b.symmetrize();
  return b.build();
}

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = -2.0f;
  EXPECT_FLOAT_EQ(m.row(0)[1], -2.0f);
}

TEST(Matrix, RejectsDataSizeMismatch) {
  EXPECT_THROW(Matrix(2, 2, std::vector<float>{1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, MatmulKnownValues) {
  Matrix a(2, 2, std::vector<float>{1, 2, 3, 4});
  Matrix b(2, 2, std::vector<float>{5, 6, 7, 8});
  Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Matrix, MatmulRejectsBadShapes) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(1, 2, std::vector<float>{1, 2});
  Matrix b(1, 2, std::vector<float>{1.5f, 2});
  EXPECT_FLOAT_EQ(Matrix::max_abs_diff(a, b), 0.5f);
  Matrix c(2, 1);
  EXPECT_THROW(Matrix::max_abs_diff(a, c), std::invalid_argument);
}

TEST(Ops, ReluAndLeakyRelu) {
  Matrix m(1, 4, std::vector<float>{-2, -0.5f, 0, 3});
  relu_inplace(m);
  EXPECT_EQ(std::vector<float>(m.data().begin(), m.data().end()),
            (std::vector<float>{0, 0, 0, 3}));
  EXPECT_FLOAT_EQ(leaky_relu(-2.0f, 0.2f), -0.4f);
  EXPECT_FLOAT_EQ(leaky_relu(3.0f, 0.2f), 3.0f);
}

TEST(Ops, SoftmaxNormalizesAndOrders) {
  std::vector<float> v{1.0f, 2.0f, 3.0f};
  softmax_inplace(v);
  float sum = v[0] + v[1] + v[2];
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_LT(v[0], v[1]);
  EXPECT_LT(v[1], v[2]);
}

TEST(Ops, SoftmaxStableForLargeInputs) {
  std::vector<float> v{1000.0f, 1000.0f};
  softmax_inplace(v);
  EXPECT_NEAR(v[0], 0.5f, 1e-6f);
}

TEST(Ops, SoftmaxEmptyIsNoop) {
  std::vector<float> v;
  softmax_inplace(v);  // must not crash
  EXPECT_TRUE(v.empty());
}

TEST(Aggregate, GcnSelfLoopOnly) {
  // Isolated vertex: out = hw / (0+1).
  GraphBuilder b(1);
  Csr g = b.build();
  Matrix hw(1, 2, std::vector<float>{3, 4});
  Matrix out = gcn_normalize_aggregate(g, hw);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 4.0f);
}

TEST(Aggregate, GcnPathNormalization) {
  Csr g = path3();
  Matrix hw(3, 1, std::vector<float>{1, 1, 1});
  Matrix out = gcn_normalize_aggregate(g, hw);
  // Vertex 0: d̃=2; self 1/2 + neighbor 1/sqrt(2*3).
  EXPECT_NEAR(out.at(0, 0), 0.5f + 1.0f / std::sqrt(6.0f), 1e-6f);
  // Vertex 1: d̃=3; self 1/3 + two neighbors 1/sqrt(6) each.
  EXPECT_NEAR(out.at(1, 0), 1.0f / 3.0f + 2.0f / std::sqrt(6.0f), 1e-6f);
}

TEST(Aggregate, SumWithSelfWeight) {
  Csr g = path3();
  Matrix hw(3, 1, std::vector<float>{1, 10, 100});
  Matrix out = sum_aggregate(g, hw, 1.5f);
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.5f + 10.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 15.0f + 101.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 150.0f + 10.0f);
}

TEST(Aggregate, MaxIncludesSelf) {
  Csr g = path3();
  Matrix hw(3, 2, std::vector<float>{5, 0, 1, 9, 3, 2});
  Matrix out = max_aggregate(g, hw);
  EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);  // max(self 5, nbr 1)
  EXPECT_FLOAT_EQ(out.at(0, 1), 9.0f);  // max(0, 9)
  EXPECT_FLOAT_EQ(out.at(1, 0), 5.0f);  // max(1, 5, 3)
}

TEST(Aggregate, ShapeMismatchRejected) {
  Csr g = path3();
  Matrix hw(2, 2);
  EXPECT_THROW(gcn_normalize_aggregate(g, hw), std::invalid_argument);
  EXPECT_THROW(sum_aggregate(g, hw, 1.0f), std::invalid_argument);
  EXPECT_THROW(max_aggregate(g, hw), std::invalid_argument);
}

TEST(GatLayer, AttentionIsSoftmaxWeightedAverage) {
  // With W=I and a1=a2=0, all scores are 0 → uniform attention over
  // {i} ∪ N(i); output = ReLU(mean of neighborhood rows).
  Csr g = path3();
  Matrix h(3, 2, std::vector<float>{1, 0, 0, 1, 1, 1});
  LayerWeights lw;
  lw.w = Matrix(2, 2, std::vector<float>{1, 0, 0, 1});
  lw.a1.assign(2, 0.0f);
  lw.a2.assign(2, 0.0f);
  Matrix out = gat_layer(g, h, lw, 0.2f);
  EXPECT_NEAR(out.at(0, 0), 0.5f, 1e-6f);   // mean of (1,0) and (0,1)
  EXPECT_NEAR(out.at(1, 1), 2.0f / 3.0f, 1e-6f);
}

TEST(GatLayer, AttentionCoefficientsSumToOne) {
  // Indirect check: with W=I, a nonzero attention vector, and all-ones
  // features, every αij weighted sum of identical rows returns the row.
  Csr g = path3();
  Matrix h(3, 2, std::vector<float>{1, 1, 1, 1, 1, 1});
  LayerWeights lw;
  lw.w = Matrix(2, 2, std::vector<float>{1, 0, 0, 1});
  lw.a1 = {0.3f, -0.7f};
  lw.a2 = {1.1f, 0.2f};
  Matrix out = gat_layer(g, h, lw, 0.2f);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(out.at(r, 0), 1.0f, 1e-5f);
    EXPECT_NEAR(out.at(r, 1), 1.0f, 1e-5f);
  }
}

TEST(GatLayer, RequiresAttentionVectors) {
  Csr g = path3();
  Matrix h(3, 2);
  LayerWeights lw;
  lw.w = Matrix(2, 2);
  EXPECT_THROW(gat_layer(g, h, lw, 0.2f), std::invalid_argument);
}

TEST(GinLayer, EpsScalesSelfContribution) {
  Csr g = path3();
  Matrix h(3, 1, std::vector<float>{1, 0, 0});
  LayerWeights lw;
  lw.w = Matrix(1, 1, std::vector<float>{1});
  lw.w2 = Matrix(1, 1, std::vector<float>{1});
  lw.b1 = {0.0f};
  lw.b2 = {0.0f};
  Matrix out0 = gin_layer(g, h, lw, 0.0f);
  Matrix out1 = gin_layer(g, h, lw, 1.0f);
  // Vertex 0 self feature 1: (1+ε)*1 + nbr 0.
  EXPECT_FLOAT_EQ(out0.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out1.at(0, 0), 2.0f);
  // Vertex 1 has only neighbor contributions → ε has no effect.
  EXPECT_FLOAT_EQ(out0.at(1, 0), out1.at(1, 0));
}

TEST(Sampling, CapsDegreeAtSampleSize) {
  GraphBuilder b(10);
  for (VertexId v = 1; v < 10; ++v) b.add_edge(0, v);
  b.symmetrize();
  Csr g = b.build();
  Csr s = sample_neighborhood(g, 4, 1);
  EXPECT_EQ(s.degree(0), 4u);
  EXPECT_EQ(s.degree(1), 1u);  // below cap: kept whole
}

TEST(Sampling, SampledNeighborsAreRealNeighbors) {
  Dataset d = generate_dataset(DatasetId::kCora, 0.1, 3);
  Csr s = sample_neighborhood(d.graph, 5, 7);
  for (VertexId v = 0; v < s.vertex_count(); ++v) {
    auto full = d.graph.neighbors(v);
    for (VertexId n : s.neighbors(v)) {
      EXPECT_TRUE(std::binary_search(full.begin(), full.end(), n));
    }
  }
}

TEST(Sampling, DeterministicInSeed) {
  Dataset d = generate_dataset(DatasetId::kCora, 0.1, 3);
  Csr a = sample_neighborhood(d.graph, 5, 11);
  Csr b = sample_neighborhood(d.graph, 5, 11);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (VertexId v = 0; v < a.vertex_count(); ++v) {
    auto na = a.neighbors(v);
    auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

TEST(Model, ToStringCoversAllKinds) {
  EXPECT_EQ(to_string(GnnKind::kGcn), "GCN");
  EXPECT_EQ(to_string(GnnKind::kDiffPool), "DiffPool");
  EXPECT_EQ(all_gnn_kinds().size(), 5u);
}

TEST(Model, InitWeightsShapes) {
  ModelConfig cfg;
  cfg.kind = GnnKind::kGat;
  cfg.input_dim = 10;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  GnnWeights w = init_weights(cfg, 1);
  ASSERT_EQ(w.layers.size(), 2u);
  EXPECT_EQ(w.layers[0].w.rows(), 10u);
  EXPECT_EQ(w.layers[0].w.cols(), 8u);
  EXPECT_EQ(w.layers[1].w.rows(), 8u);
  EXPECT_EQ(w.layers[0].a1.size(), 8u);
  EXPECT_TRUE(w.pool_layers.empty());
}

TEST(Model, DiffPoolGetsPoolLayers) {
  ModelConfig cfg;
  cfg.kind = GnnKind::kDiffPool;
  cfg.input_dim = 10;
  cfg.hidden_dim = 8;
  cfg.pool_clusters = 4;
  GnnWeights w = init_weights(cfg, 1);
  ASSERT_EQ(w.pool_layers.size(), 2u);
  EXPECT_EQ(w.pool_layers.back().w.cols(), 4u);
}

TEST(Model, InitWeightsDeterministic) {
  ModelConfig cfg;
  cfg.kind = GnnKind::kGcn;
  cfg.input_dim = 6;
  GnnWeights a = init_weights(cfg, 5);
  GnnWeights b = init_weights(cfg, 5);
  EXPECT_EQ(Matrix::max_abs_diff(a.layers[0].w, b.layers[0].w), 0.0f);
}

TEST(Forward, GcnShapesAndNonnegativity) {
  Dataset d = generate_dataset(DatasetId::kCora, 0.05, 1);
  ModelConfig cfg;
  cfg.kind = GnnKind::kGcn;
  cfg.input_dim = d.spec.feature_length;
  cfg.hidden_dim = 16;
  GnnWeights w = init_weights(cfg, 2);
  Matrix out = reference_forward(cfg, w, d.graph, d.features);
  EXPECT_EQ(out.rows(), d.graph.vertex_count());
  EXPECT_EQ(out.cols(), 16u);
  for (float x : out.data()) EXPECT_GE(x, 0.0f);  // final ReLU
}

TEST(Forward, SageRequiresSampledAdjacency) {
  Dataset d = generate_dataset(DatasetId::kCora, 0.05, 1);
  ModelConfig cfg;
  cfg.kind = GnnKind::kGraphSage;
  cfg.input_dim = d.spec.feature_length;
  cfg.hidden_dim = 8;
  GnnWeights w = init_weights(cfg, 2);
  EXPECT_THROW(reference_forward(cfg, w, d.graph, d.features), std::invalid_argument);
  std::vector<Csr> sampled;
  for (std::uint32_t l = 0; l < cfg.num_layers; ++l) {
    sampled.push_back(sample_neighborhood(d.graph, cfg.sample_size, 100 + l));
  }
  Matrix out = reference_forward(cfg, w, d.graph, d.features, sampled);
  EXPECT_EQ(out.cols(), 8u);
}

TEST(Forward, DiffPoolProducesCoarsenedOutputs) {
  Dataset d = generate_dataset(DatasetId::kCora, 0.05, 1);
  ModelConfig cfg;
  cfg.kind = GnnKind::kDiffPool;
  cfg.input_dim = d.spec.feature_length;
  cfg.hidden_dim = 16;
  cfg.pool_clusters = 8;
  GnnWeights w = init_weights(cfg, 2);
  ForwardTrace trace;
  Matrix out = reference_forward(cfg, w, d.graph, d.features, {}, &trace);
  EXPECT_EQ(out.rows(), 8u);   // clusters
  EXPECT_EQ(out.cols(), 16u);  // embedding width
  ASSERT_TRUE(trace.diffpool.has_value());
  const auto& dp = *trace.diffpool;
  EXPECT_EQ(dp.s.rows(), d.graph.vertex_count());
  EXPECT_EQ(dp.s.cols(), 8u);
  // Assignment rows are softmaxed.
  for (std::size_t r = 0; r < dp.s.rows(); ++r) {
    float sum = 0.0f;
    for (float x : dp.s.row(r)) sum += x;
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
  EXPECT_EQ(dp.a_coarse.rows(), 8u);
  EXPECT_EQ(dp.a_coarse.cols(), 8u);
}

TEST(Forward, TraceRecordsPerLayerOutputs) {
  Dataset d = generate_dataset(DatasetId::kCora, 0.05, 1);
  ModelConfig cfg;
  cfg.kind = GnnKind::kGcn;
  cfg.input_dim = d.spec.feature_length;
  cfg.hidden_dim = 8;
  GnnWeights w = init_weights(cfg, 2);
  ForwardTrace trace;
  reference_forward(cfg, w, d.graph, d.features, {}, &trace);
  ASSERT_EQ(trace.layer_outputs.size(), 2u);
  EXPECT_EQ(trace.layer_outputs[0].cols(), 8u);
}

}  // namespace
}  // namespace gnnie
