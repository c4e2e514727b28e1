// Tests for the Aggregation engine and the graph-specific cache (§V–VI):
// functional equivalence against the nn reference aggregators for every
// kind, cache invariants (every edge processed once, α → 0, rounds),
// γ behaviour including dynamic escalation, load-balancing effects, and
// the sequential-vs-random DRAM contrast against the ID-order baseline.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/aggregation.hpp"
#include "datasets/synthetic.hpp"
#include "graph/builder.hpp"
#include "nn/layers.hpp"
#include "nn/ops.hpp"
#include "nn/reference.hpp"

namespace gnnie {
namespace {

EngineConfig small_config() {
  EngineConfig c = EngineConfig::paper_default(false);
  // Tiny input buffer so even small test graphs exercise evictions/rounds.
  c.buffers.input = 16u << 10;
  return c;
}

Matrix random_dense(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (float& x : m.data()) x = static_cast<float>(rng.next_double(-1.0, 1.0));
  return m;
}

Dataset tiny_cora(std::uint64_t seed = 1) {
  return generate_dataset(spec_of(DatasetId::kCora).scaled(0.15), seed);
}

TEST(Aggregation, GcnMatchesReference) {
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 32, 5);
  EngineConfig cfg = small_config();
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;
  AggregationReport rep;
  Matrix got = eng.run(task, &rep);
  Matrix want = gcn_normalize_aggregate(d.graph, hw);
  EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-4f);
  EXPECT_EQ(rep.edges_processed, d.graph.edge_count() / 2);  // undirected pairs
}

TEST(Aggregation, PlainSumMatchesReference) {
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 16, 6);
  EngineConfig cfg = small_config();
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kPlainSum;
  task.self_weight = 1.25f;
  Matrix got = eng.run(task);
  Matrix want = sum_aggregate(d.graph, hw, 1.25f);
  EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-4f);
}

TEST(Aggregation, MaxOnSampledDirectedGraphMatchesReference) {
  Dataset d = tiny_cora();
  Csr sampled = sample_neighborhood(d.graph, 5, 77);
  Matrix hw = random_dense(d.graph.vertex_count(), 16, 8);
  EngineConfig cfg = small_config();
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &sampled;
  task.directed = true;
  task.hw = &hw;
  task.kind = AggKind::kMax;
  AggregationReport rep;
  Matrix got = eng.run(task, &rep);
  Matrix want = max_aggregate(sampled, hw);
  EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-5f);
  EXPECT_EQ(rep.edges_processed, sampled.edge_count());
}

TEST(Aggregation, GatSoftmaxMatchesReferenceLayerMath) {
  Dataset d = tiny_cora();
  const std::size_t f = 24;
  Matrix hw = random_dense(d.graph.vertex_count(), f, 9);
  Rng rng(10);
  std::vector<float> a1(f), a2(f);
  for (float& x : a1) x = static_cast<float>(rng.next_double(-0.5, 0.5));
  for (float& x : a2) x = static_cast<float>(rng.next_double(-0.5, 0.5));
  std::vector<float> e1(d.graph.vertex_count(), 0.0f), e2(d.graph.vertex_count(), 0.0f);
  for (VertexId v = 0; v < d.graph.vertex_count(); ++v) {
    for (std::size_t c = 0; c < f; ++c) {
      e1[v] += a1[c] * hw.at(v, c);
      e2[v] += a2[c] * hw.at(v, c);
    }
  }

  EngineConfig cfg = small_config();
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGatSoftmax;
  task.e1 = &e1;
  task.e2 = &e2;
  task.leaky_slope = 0.2f;
  Matrix got = eng.run(task);

  // Reference: per-vertex stable softmax over {i} ∪ N(i).
  Matrix want(hw.rows(), hw.cols());
  for (VertexId i = 0; i < d.graph.vertex_count(); ++i) {
    std::vector<VertexId> nbrs{i};
    for (VertexId j : d.graph.neighbors(i)) nbrs.push_back(j);
    std::vector<float> scores(nbrs.size());
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const float e = e1[i] + e2[nbrs[k]];
      scores[k] = e >= 0.0f ? e : 0.2f * e;
    }
    softmax_inplace(scores);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      axpy(scores[k], hw.row(nbrs[k]), want.row(i));
    }
  }
  EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-4f);
}

TEST(Aggregation, BaselineIdOrderComputesSameFunction) {
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 32, 5);
  HbmModel hbm;
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;

  const EngineConfig cfg = small_config();
  Matrix with_cp = AggregationEngine(cfg, &hbm).run(task);
  const auto id_order_policy = CachePolicy::make(CachePolicyKind::kIdOrder);
  task.policy = id_order_policy.get();
  Matrix id_order = AggregationEngine(cfg, &hbm).run(task);
  EXPECT_LT(Matrix::max_abs_diff(with_cp, id_order), 1e-4f);
  const auto on_demand_policy = CachePolicy::make(CachePolicyKind::kOnDemand);
  task.policy = on_demand_policy.get();
  Matrix pulled = AggregationEngine(cfg, &hbm).run(task);
  EXPECT_LT(Matrix::max_abs_diff(with_cp, pulled), 1e-4f);
}

TEST(Aggregation, PolicyModeHasNoRandomAccessesBaselineHasMany) {
  // The no-random-DRAM guarantee is asserted at the paper's operating
  // point (paper-size buffers, γ = 5); pathological tiny-buffer configs
  // may fall back to the livelock sweep, which is honestly random.
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 32, 5);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;

  HbmModel hbm1;
  EngineConfig cp = EngineConfig::paper_default(false);
  AggregationReport rep_cp;
  AggregationEngine(cp, &hbm1).run(task, &rep_cp);
  EXPECT_FALSE(rep_cp.livelock_sweep);
  EXPECT_EQ(rep_cp.random_dram_accesses, 0u);

  HbmModel hbm2;
  const EngineConfig nocp = small_config();
  const auto on_demand_policy = CachePolicy::make(CachePolicyKind::kOnDemand);
  task.policy = on_demand_policy.get();
  AggregationReport rep_base;
  AggregationEngine(nocp, &hbm2).run(task, &rep_base);
  EXPECT_GT(rep_base.random_dram_accesses, 0u);
}

TEST(Aggregation, PolicyBeatsBaselineOnDramRowHitRate) {
  Dataset d = generate_dataset(spec_of(DatasetId::kPubmed).scaled(0.15), 2);
  Matrix hw = random_dense(d.graph.vertex_count(), 64, 5);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;

  const EngineConfig cfg = EngineConfig::paper_default(true);
  HbmModel hbm_cp;
  AggregationEngine(cfg, &hbm_cp).run(task);

  HbmModel hbm_base;
  const auto on_demand_policy = CachePolicy::make(CachePolicyKind::kOnDemand);
  task.policy = on_demand_policy.get();
  AggregationEngine(cfg, &hbm_base).run(task);

  EXPECT_GT(hbm_cp.stats().row_hit_rate(), hbm_base.stats().row_hit_rate());
}

TEST(Aggregation, CacheInvariant_EveryUndirectedEdgeProcessedExactlyOnce) {
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 8, 5);
  EngineConfig cfg = small_config();
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kPlainSum;
  AggregationReport rep;
  eng.run(task, &rep);
  EXPECT_EQ(rep.edges_processed, d.graph.edge_count() / 2);
  EXPECT_EQ(rep.accum_ops, d.graph.edge_count());  // 2 per undirected pair
}

TEST(Aggregation, SmallBufferForcesEvictionsAndRounds) {
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 64, 5);
  EngineConfig cfg = small_config();  // 16 KB: tens of vertices
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;
  AggregationReport rep;
  eng.run(task, &rep);
  EXPECT_GT(rep.evictions, 0u);
  EXPECT_GT(rep.iterations, 1u);
  EXPECT_LT(rep.cache_capacity_vertices, d.graph.vertex_count());
}

TEST(Aggregation, WholeGraphInBufferProcessesInOneIteration) {
  Dataset d = generate_dataset(spec_of(DatasetId::kCora).scaled(0.02), 1);
  Matrix hw = random_dense(d.graph.vertex_count(), 8, 5);
  EngineConfig cfg = EngineConfig::paper_default(true);  // 512 KB ≫ graph
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kPlainSum;
  AggregationReport rep;
  eng.run(task, &rep);
  EXPECT_EQ(rep.iterations, 1u);
  EXPECT_EQ(rep.rounds, 1u);
  EXPECT_EQ(rep.evictions, 0u);
}

TEST(Aggregation, AlphaHistogramsFlattenAcrossRounds) {
  // Fig. 10's property: the peak frequency and the maximum α both shrink
  // from the initial distribution to the last round.
  Dataset d = generate_dataset(spec_of(DatasetId::kPubmed).scaled(0.1), 3);
  Matrix hw = random_dense(d.graph.vertex_count(), 64, 5);
  EngineConfig cfg = EngineConfig::paper_default(false);
  cfg.buffers.input = 32u << 10;
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;
  AggregationReport rep;
  eng.run(task, &rep);
  ASSERT_GE(rep.alpha_round_histograms.size(), 2u);
  const Histogram& first = rep.alpha_round_histograms.front();
  const Histogram& last = rep.alpha_round_histograms.back();
  EXPECT_LE(last.max_nonempty_edge(), first.max_nonempty_edge());
}

TEST(Aggregation, LoadBalancingReducesComputeCycles) {
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 128, 5);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;

  HbmModel hbm1, hbm2;
  EngineConfig lb = small_config();
  AggregationReport rep_lb;
  AggregationEngine(lb, &hbm1).run(task, &rep_lb);
  EngineConfig nolb = small_config();
  nolb.opts.aggregation_load_balance = false;
  AggregationReport rep_nolb;
  AggregationEngine(nolb, &hbm2).run(task, &rep_nolb);
  EXPECT_LT(rep_lb.compute_cycles, rep_nolb.compute_cycles);
}

TEST(Aggregation, HigherGammaMeansMoreDramTraffic) {
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 64, 5);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;

  Bytes low_bytes = 0, high_bytes = 0;
  {
    HbmModel hbm;
    EngineConfig cfg = small_config();
    cfg.cache.gamma = 2;
    AggregationReport rep;
    AggregationEngine(cfg, &hbm).run(task, &rep);
    low_bytes = rep.dram_bytes;
  }
  {
    HbmModel hbm;
    EngineConfig cfg = small_config();
    cfg.cache.gamma = 64;
    AggregationReport rep;
    AggregationEngine(cfg, &hbm).run(task, &rep);
    high_bytes = rep.dram_bytes;
  }
  EXPECT_GT(high_bytes, low_bytes);
}

TEST(Aggregation, DynamicGammaRecoversFromDeadlock) {
  // γ = 1 cannot evict anything that still has edges; with a buffer smaller
  // than the graph this deadlocks unless γ escalates.
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 64, 5);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kPlainSum;

  HbmModel hbm;
  EngineConfig cfg = small_config();
  cfg.cache.gamma = 1;
  AggregationReport rep;
  Matrix got = AggregationEngine(cfg, &hbm).run(task, &rep);
  EXPECT_GT(rep.gamma_escalations, 0u);
  EXPECT_GT(rep.final_gamma, 1u);
  // Still functionally correct.
  EXPECT_LT(Matrix::max_abs_diff(got, sum_aggregate(d.graph, hw, 1.0f)), 1e-4f);
}

TEST(Aggregation, EmptyGraph) {
  GraphBuilder b(4);
  Csr g = b.build();  // no edges
  Matrix hw = random_dense(4, 8, 5);
  EngineConfig cfg = small_config();
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &g;
  task.hw = &hw;
  task.kind = AggKind::kPlainSum;
  task.self_weight = 2.0f;
  AggregationReport rep;
  Matrix got = eng.run(task, &rep);
  EXPECT_EQ(rep.edges_processed, 0u);
  for (std::size_t v = 0; v < 4; ++v) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_FLOAT_EQ(got.at(v, c), 2.0f * hw.at(v, c));
    }
  }
}

TEST(Aggregation, IsolatedVerticesGetSelfOnly) {
  GraphBuilder b(5);
  b.add_edge(0, 1).symmetrize();
  Csr g = b.build();
  Matrix hw = random_dense(5, 4, 5);
  EngineConfig cfg = small_config();
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &g;
  task.hw = &hw;
  task.kind = AggKind::kMax;
  Matrix got = eng.run(task);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(got.at(4, c), hw.at(4, c));
  }
}

TEST(Aggregation, RejectsMissingInputs) {
  EngineConfig cfg = small_config();
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;  // null graph/hw
  EXPECT_THROW(eng.run(task), std::invalid_argument);
}

TEST(Aggregation, GatRequiresAttentionPartials) {
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 8, 5);
  EngineConfig cfg = small_config();
  HbmModel hbm;
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGatSoftmax;
  EXPECT_THROW(eng.run(task), std::invalid_argument);
}

class GammaSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GammaSweep, AlwaysConvergesAndStaysCorrect) {
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 32, 5);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kPlainSum;

  HbmModel hbm;
  EngineConfig cfg = small_config();
  cfg.cache.gamma = GetParam();
  AggregationReport rep;
  Matrix got = AggregationEngine(cfg, &hbm).run(task, &rep);
  EXPECT_EQ(rep.edges_processed, d.graph.edge_count() / 2);
  EXPECT_LT(Matrix::max_abs_diff(got, sum_aggregate(d.graph, hw, 1.0f)), 1e-4f);
  // All fetches stay sequential unless the run needed the livelock
  // fallback sweep (possible at stress-test buffer sizes), which honestly
  // reports its random accesses.
  if (!rep.livelock_sweep) {
    EXPECT_EQ(rep.random_dram_accesses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Gammas, GammaSweep, ::testing::Values(1, 2, 5, 10, 20, 40));

// Plan-level precompute hints (GraphPlan hands these in) must be invisible:
// a hinted run is bit-identical — outputs, cycles, DRAM traffic, evictions —
// to the self-deriving run it replaces.
TEST(Aggregation, PrecomputedAlphaAndCapacityHintsAreBitExact) {
  Dataset d = tiny_cora();
  Matrix hw = random_dense(d.graph.vertex_count(), 32, 15);
  EngineConfig cfg = small_config();
  auto policy = CachePolicy::make(CachePolicyKind::kDegreeAware);

  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;
  task.policy = policy.get();

  HbmModel hbm_plain;
  AggregationReport plain;
  Matrix out_plain = AggregationEngine(cfg, &hbm_plain).run(task, &plain);

  // The hints the serving plan precomputes: α₀ = degree (undirected) and
  // the capacity from the shared static derivation.
  std::vector<std::uint32_t> alpha0(d.graph.vertex_count());
  for (VertexId v = 0; v < d.graph.vertex_count(); ++v) alpha0[v] = d.graph.degree(v);
  task.initial_alpha = &alpha0;
  task.cache_capacity_hint =
      AggregationEngine::cache_capacity_for(cfg, d.graph, hw.cols(), task.kind);

  HbmModel hbm_hinted;
  AggregationReport hinted;
  Matrix out_hinted = AggregationEngine(cfg, &hbm_hinted).run(task, &hinted);

  EXPECT_EQ(Matrix::max_abs_diff(out_plain, out_hinted), 0.0f);
  EXPECT_EQ(plain.total_cycles, hinted.total_cycles);
  EXPECT_EQ(plain.compute_cycles, hinted.compute_cycles);
  EXPECT_EQ(plain.memory_cycles, hinted.memory_cycles);
  EXPECT_EQ(plain.iterations, hinted.iterations);
  EXPECT_EQ(plain.rounds, hinted.rounds);
  EXPECT_EQ(plain.dram_bytes, hinted.dram_bytes);
  EXPECT_EQ(plain.dram_accesses, hinted.dram_accesses);
  EXPECT_EQ(plain.evictions, hinted.evictions);
  EXPECT_EQ(plain.refetches, hinted.refetches);
  EXPECT_EQ(plain.cache_capacity_vertices, hinted.cache_capacity_vertices);

  // A wrong-sized α precompute is rejected, not silently trusted.
  std::vector<std::uint32_t> short_alpha(alpha0.begin(), alpha0.end() - 1);
  task.initial_alpha = &short_alpha;
  HbmModel hbm_bad;
  EXPECT_THROW(AggregationEngine(cfg, &hbm_bad).run(task), std::invalid_argument);
}

// The directed (GraphSAGE sampled-adjacency) variant of the same contract:
// α₀ = out-degree + reverse in-degree.
TEST(Aggregation, PrecomputedAlphaIsBitExactOnDirectedTasks) {
  Dataset d = tiny_cora();
  Csr sampled = sample_neighborhood(d.graph, 5, 31);
  Matrix hw = random_dense(d.graph.vertex_count(), 16, 21);
  EngineConfig cfg = small_config();
  auto policy = CachePolicy::make(CachePolicyKind::kDegreeAware);
  ReverseAdjacency rev(sampled);

  AggregationTask task;
  task.graph = &sampled;
  task.directed = true;
  task.hw = &hw;
  task.kind = AggKind::kMax;
  task.policy = policy.get();
  task.reverse = &rev;

  HbmModel hbm_plain;
  AggregationReport plain;
  Matrix out_plain = AggregationEngine(cfg, &hbm_plain).run(task, &plain);

  std::vector<std::uint32_t> alpha0(sampled.vertex_count());
  for (VertexId v = 0; v < sampled.vertex_count(); ++v) {
    alpha0[v] = sampled.degree(v) +
                static_cast<std::uint32_t>(rev.offsets[v + 1] - rev.offsets[v]);
  }
  task.initial_alpha = &alpha0;
  task.cache_capacity_hint =
      AggregationEngine::cache_capacity_for(cfg, sampled, hw.cols(), task.kind);

  HbmModel hbm_hinted;
  AggregationReport hinted;
  Matrix out_hinted = AggregationEngine(cfg, &hbm_hinted).run(task, &hinted);

  EXPECT_EQ(Matrix::max_abs_diff(out_plain, out_hinted), 0.0f);
  EXPECT_EQ(plain.total_cycles, hinted.total_cycles);
  EXPECT_EQ(plain.dram_bytes, hinted.dram_bytes);
  EXPECT_EQ(plain.evictions, hinted.evictions);
}

}  // namespace
}  // namespace gnnie
