// Multi-head GAT tests: per-head softmax semantics in the reference layer,
// engine-vs-reference equivalence across head counts, head-count invariants
// in the attention engine, and validation paths.
#include <gtest/gtest.h>

#include "datasets/synthetic.hpp"
#include "engine_test_util.hpp"
#include "graph/builder.hpp"
#include "nn/layers.hpp"
#include "nn/reference.hpp"

namespace gnnie {
namespace {

Csr path3() {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2);
  b.symmetrize();
  return b.build();
}

TEST(MultiHeadGat, OneHeadMatchesLegacyBehaviour) {
  Csr g = path3();
  Matrix h(3, 4, std::vector<float>{1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0});
  LayerWeights lw;
  lw.w = Matrix(4, 4);
  for (std::size_t i = 0; i < 4; ++i) lw.w.at(i, i) = 1.0f;  // identity
  lw.a1 = {0.3f, -0.2f, 0.1f, 0.4f};
  lw.a2 = {-0.1f, 0.2f, 0.3f, -0.4f};
  Matrix one = gat_layer(g, h, lw, 0.2f, 1);
  Matrix def = gat_layer(g, h, lw, 0.2f);
  EXPECT_EQ(Matrix::max_abs_diff(one, def), 0.0f);
}

TEST(MultiHeadGat, HeadsActIndependently) {
  // With two heads and attention vectors that are zero on head 1 but not
  // head 0, head 1's output must be the plain neighborhood mean while
  // head 0's is attention-weighted — they must differ.
  Csr g = path3();
  Matrix h(3, 4, std::vector<float>{5, 1, 5, 1, 1, 2, 1, 2, 3, 3, 3, 3});
  LayerWeights lw;
  lw.w = Matrix(4, 4);
  for (std::size_t i = 0; i < 4; ++i) lw.w.at(i, i) = 1.0f;
  lw.a1 = {2.0f, 1.5f, 0.0f, 0.0f};  // head 0 active, head 1 zero
  lw.a2 = {1.0f, -1.0f, 0.0f, 0.0f};
  Matrix out = gat_layer(g, h, lw, 0.2f, 2);
  // Head 1 (columns 2,3): uniform attention → vertex 0's output is the
  // mean of rows {0,1} on those columns.
  EXPECT_NEAR(out.at(0, 2), (5.0f + 1.0f) / 2.0f, 1e-5f);
  EXPECT_NEAR(out.at(0, 3), (1.0f + 2.0f) / 2.0f, 1e-5f);
  // Head 0 (columns 0,1): attention-weighted — NOT the plain mean.
  EXPECT_GT(std::abs(out.at(0, 0) - 3.0f), 1e-3f);
}

TEST(MultiHeadGat, UniformAttentionEqualsMeanForAllHeads) {
  Csr g = path3();
  Matrix h(3, 6, 1.0f);
  LayerWeights lw;
  lw.w = Matrix(6, 6);
  for (std::size_t i = 0; i < 6; ++i) lw.w.at(i, i) = 1.0f;
  lw.a1.assign(6, 0.0f);
  lw.a2.assign(6, 0.0f);
  Matrix out = gat_layer(g, h, lw, 0.2f, 3);
  for (float x : out.data()) EXPECT_NEAR(x, 1.0f, 1e-5f);
}

TEST(MultiHeadGat, RejectsNonDividingHeadCount) {
  Csr g = path3();
  Matrix h(3, 4, 1.0f);
  LayerWeights lw;
  lw.w = Matrix(4, 4, 0.1f);
  lw.a1.assign(4, 0.1f);
  lw.a2.assign(4, 0.1f);
  EXPECT_THROW(gat_layer(g, h, lw, 0.2f, 3), std::invalid_argument);
  EXPECT_THROW(gat_layer(g, h, lw, 0.2f, 0), std::invalid_argument);
}

class HeadSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HeadSweep, EngineMatchesReferenceForward) {
  Dataset d = generate_dataset(spec_of(DatasetId::kCora).scaled(0.08), 2);
  ModelConfig model;
  model.kind = GnnKind::kGat;
  model.input_dim = d.spec.feature_length;
  model.hidden_dim = 32;
  model.gat_heads = GetParam();
  GnnWeights w = init_weights(model, 21);

  InferenceResult res =
      test::run_once(Engine(EngineConfig::paper_default(false)), model, w, d.graph, d.features);
  Matrix want = reference_forward(model, w, d.graph, d.features);
  EXPECT_LT(Matrix::max_abs_diff(res.output, want), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(Heads, HeadSweep, ::testing::Values(1, 2, 4, 8));

TEST(MultiHeadGat, SfuOpsScaleWithHeads) {
  // exp ops per edge direction = heads; total SFU ops must grow with the
  // head count (divides are per-element and head-independent).
  Dataset d = generate_dataset(spec_of(DatasetId::kCora).scaled(0.08), 2);
  auto sfu_ops_for = [&](std::uint32_t heads) {
    ModelConfig model;
    model.kind = GnnKind::kGat;
    model.input_dim = d.spec.feature_length;
    model.hidden_dim = 32;
    model.gat_heads = heads;
    GnnWeights w = init_weights(model, 21);
    return test::run_once(Engine(EngineConfig::paper_default(false)), model, w, d.graph,
                          d.features)
        .report.total_sfu_ops;
  };
  const std::uint64_t one = sfu_ops_for(1);
  const std::uint64_t four = sfu_ops_for(4);
  EXPECT_GT(four, one);
}

}  // namespace
}  // namespace gnnie
