// Tests for the GAT attention engine (§V-A/B): functional correctness of
// the reordered partial products, the O(|V|+|E|) vs O(|V|·|E|) cycle
// advantage, report accounting, DRAM charging with or without a report,
// and batch-size independence.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/attention.hpp"
#include "datasets/synthetic.hpp"

namespace gnnie {
namespace {

struct AttentionFixture {
  Dataset data = generate_dataset(spec_of(DatasetId::kCora).scaled(0.1), 1);
  std::size_t f = 32;
  Matrix hw;
  std::vector<float> a1, a2;

  AttentionFixture() {
    Rng rng(3);
    hw = Matrix(data.graph.vertex_count(), f);
    for (float& x : hw.data()) x = static_cast<float>(rng.next_double(-1.0, 1.0));
    a1.resize(f);
    a2.resize(f);
    for (float& x : a1) x = static_cast<float>(rng.next_double(-0.5, 0.5));
    for (float& x : a2) x = static_cast<float>(rng.next_double(-0.5, 0.5));
  }
};

TEST(Attention, PartialProductsMatchDotProducts) {
  AttentionFixture fx;
  EngineConfig cfg = EngineConfig::paper_default(false);
  HbmModel hbm;
  AttentionEngine eng(cfg, &hbm);
  AttentionResult res = eng.run(fx.hw, fx.a1, fx.a2);
  ASSERT_EQ(res.e1.size(), fx.data.graph.vertex_count());
  for (VertexId v = 0; v < fx.data.graph.vertex_count(); v += 37) {
    float s1 = 0.0f, s2 = 0.0f;
    for (std::size_t c = 0; c < fx.f; ++c) {
      s1 += fx.a1[c] * fx.hw.at(v, c);
      s2 += fx.a2[c] * fx.hw.at(v, c);
    }
    EXPECT_NEAR(res.e1[v], s1, 1e-4f);
    EXPECT_NEAR(res.e2[v], s2, 1e-4f);
  }
}

TEST(Attention, ReportCountsTwoPassesAndMacs) {
  AttentionFixture fx;
  EngineConfig cfg = EngineConfig::paper_default(false);
  HbmModel hbm;
  AttentionEngine eng(cfg, &hbm);
  AttentionReport rep;
  eng.run(fx.hw, fx.a1, fx.a2, &rep);
  EXPECT_EQ(rep.passes, 2u);
  EXPECT_EQ(rep.macs, 2ull * fx.data.graph.vertex_count() * fx.f);
  EXPECT_GT(rep.compute_cycles, 0u);
  EXPECT_GT(rep.memory_cycles, 0u);
  EXPECT_GE(rep.total_cycles, std::max(rep.compute_cycles, rep.memory_cycles));
}

TEST(Attention, ReorderedBeatsNaiveAndGapGrowsWithDensity) {
  // §V-A: the naïve scheme recomputes a 2F-wide product per edge, so its
  // cost scales with |E| while the reordered one scales with |V|.
  AttentionFixture fx;
  EngineConfig cfg = EngineConfig::paper_default(false);
  HbmModel hbm;
  AttentionEngine eng(cfg, &hbm);
  AttentionReport rep;
  eng.run(fx.hw, fx.a1, fx.a2, &rep);

  const std::uint64_t v = fx.data.graph.vertex_count();
  const Cycles naive_sparse = eng.naive_cycles(v, 4 * v, fx.f);
  const Cycles naive_dense = eng.naive_cycles(v, 64 * v, fx.f);
  EXPECT_GT(naive_sparse, rep.compute_cycles);
  // 16× the edges ≈ 16× the naïve cost; the reordered cost is unchanged.
  EXPECT_GT(naive_dense, 10 * naive_sparse);
}

TEST(Attention, RejectsMismatchedAttentionWidth) {
  AttentionFixture fx;
  EngineConfig cfg = EngineConfig::paper_default(false);
  HbmModel hbm;
  AttentionEngine eng(cfg, &hbm);
  std::vector<float> short_a(fx.f - 1, 0.0f);
  EXPECT_THROW(eng.run(fx.hw, short_a, fx.a2), std::invalid_argument);
  EXPECT_THROW(AttentionEngine(cfg, nullptr), std::invalid_argument);
}

// The DRAM model is charged whether or not the caller asks for a report: a
// stage sharing one HbmModel with the others must leave the same traffic.
TEST(Attention, DramTrafficDoesNotDependOnTheReport) {
  AttentionFixture fx;
  EngineConfig cfg = EngineConfig::paper_default(false);
  HbmModel without, with;
  AttentionEngine(cfg, &without).run(fx.hw, fx.a1, fx.a2);
  AttentionReport rep;
  AttentionEngine(cfg, &with).run(fx.hw, fx.a1, fx.a2, &rep);
  const HbmStats& a = without.stats();
  const HbmStats& b = with.stats();
  EXPECT_GT(b.bytes_read, 0u);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.bursts, b.bursts);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.client_bytes, b.client_bytes);
  EXPECT_EQ(a.accesses, b.accesses);
}

TEST(Attention, ZeroAttentionVectorsGiveZeroPartials) {
  AttentionFixture fx;
  std::fill(fx.a1.begin(), fx.a1.end(), 0.0f);
  std::fill(fx.a2.begin(), fx.a2.end(), 0.0f);
  EngineConfig cfg = EngineConfig::paper_default(false);
  HbmModel hbm;
  AttentionEngine eng(cfg, &hbm);
  AttentionResult res = eng.run(fx.hw, fx.a1, fx.a2);
  for (float x : res.e1) EXPECT_EQ(x, 0.0f);
  for (float x : res.e2) EXPECT_EQ(x, 0.0f);
}

TEST(Attention, ComputeCyclesScaleWithVertices) {
  EngineConfig cfg = EngineConfig::paper_default(false);
  HbmModel hbm;
  AttentionEngine eng(cfg, &hbm);
  Rng rng(4);
  auto run_v = [&](std::size_t v) {
    Matrix hw(v, 16);
    for (float& x : hw.data()) x = static_cast<float>(rng.next_double(-1.0, 1.0));
    std::vector<float> a(16, 0.5f);
    AttentionReport rep;
    eng.run(hw, a, a, &rep);
    return rep.compute_cycles;
  };
  const Cycles small = run_v(100);
  const Cycles big = run_v(1000);
  EXPECT_GT(big, 5 * small);
  EXPECT_LT(big, 20 * small);
}

}  // namespace
}  // namespace gnnie
