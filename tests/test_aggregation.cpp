// Tests for the Aggregation engine and the graph-specific cache (§V–VI):
// functional equivalence against the nn reference aggregators for every
// kind, cache invariants (every edge processed once, α → 0, rounds),
// γ behaviour including dynamic escalation, load-balancing effects, and
// the sequential-vs-random DRAM contrast against the ID-order baseline.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hpp"
#include "core/aggregation.hpp"
#include "datasets/synthetic.hpp"
#include "engine_test_util.hpp"
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
  EXPECT_THROW(AggregationEngine(cfg, nullptr), std::invalid_argument);

  // Zero-width features: no partial has a size to budget the output
  // buffer by.
  const Csr g = GraphBuilder(4).add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).symmetrize().build();
  const Matrix empty_rows(4, 0);
  task.graph = &g;
  task.hw = &empty_rows;
  EXPECT_THROW(eng.run(task), std::invalid_argument);

  // Undirected subgraph aggregation needs a symmetric adjacency with
  // ascending lists and no self-loops: a one-way edge 0→1, a descending
  // list at 0, a self-loop at 0.
  const Matrix hw = random_dense(3, 4, 7);
  const Csr self_loop({0, 2, 3, 3}, {0, 1, 0});
  for (const Csr& bad : {Csr({0, 1, 2, 3}, {1, 2, 1}), Csr({0, 2, 3, 4}, {2, 1, 0, 0}),
                         self_loop}) {
    AggregationTask t;
    t.graph = &bad;
    t.hw = &hw;
    EXPECT_THROW(eng.run(t), std::invalid_argument);
  }
  // The engine adds the self term itself, so every policy — the on-demand
  // family included — rejects an undirected self-loop rather than counting
  // it twice.
  for (CachePolicyKind kind : all_cache_policy_kinds()) {
    const auto policy = CachePolicy::make(kind);
    AggregationTask t;
    t.graph = &self_loop;
    t.hw = &hw;
    t.kind = AggKind::kPlainSum;
    t.policy = policy.get();
    EXPECT_THROW(eng.run(t), std::invalid_argument) << to_string(kind);
  }
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

// Every number one aggregation run reports, in one fixed order: the
// report's cycles and counters, a weighted sum over its α-histogram bins,
// and the DRAM model's lifetime stats. A recorded case is one brace list.
std::vector<std::uint64_t> counters_of(const AggregationReport& r, const HbmStats& s) {
  std::uint64_t histogram_sum = 0;  // Σ over Round histograms of (bin + 1) · count
  for (const Histogram& h : r.alpha_round_histograms) {
    for (std::size_t b = 0; b < h.bin_count(); ++b) histogram_sum += (b + 1) * h.bin(b);
  }
  return {r.compute_cycles,
          r.memory_cycles,
          r.total_cycles,
          r.iterations,
          r.rounds,
          r.edges_processed,
          r.accum_ops,
          r.sfu_ops,
          r.dram_accesses,
          r.random_dram_accesses,
          r.dram_bytes,
          r.input_fetch_bytes,
          r.evictions,
          r.refetches,
          r.buffer_accesses,
          r.buffer_hits,
          r.set_conflict_evictions,
          r.dual_pinned_vertices,
          r.partial_spills,
          r.gamma_escalations,
          r.livelock_sweep ? 1u : 0u,
          r.final_gamma,
          r.cache_capacity_vertices,
          static_cast<std::uint64_t>(r.policy),
          r.alpha_round_histograms.size(),
          histogram_sum,
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

// FNV-1a over the bits of every float of `m`, row-major.
std::uint64_t float_bits_hash(const Matrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (float x : m.data()) {
    const auto bits = std::bit_cast<std::uint32_t>(x);
    for (int byte = 0; byte < 4; ++byte) h = (h ^ ((bits >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

// Pins the modeled output of every cache mode and of each branch the
// cycle and DRAM accounting takes (GAT's SFU work, directed edges, the
// per-CPE charge without load balancing, γ relief, set conflicts and the
// livelock sweep they lead to, spilled partials) to values recorded from
// the engine, so a refactor of the accounting must keep every number. The
// output hash pins the float bits of the aggregated matrix too, so the
// order in which contributions reach each row must hold as well.
TEST(Aggregation, ReportsMatchRecordedValues) {
  const Dataset d = tiny_cora();
  const VertexId v_count = d.graph.vertex_count();
  const Csr sampled = sample_neighborhood(d.graph, 5, 77);
  const Matrix hw = random_dense(v_count, 32, 41);
  Rng rng(42);
  std::vector<float> e1(static_cast<std::size_t>(v_count) * 2), e2(e1.size());
  for (float& x : e1) x = static_cast<float>(rng.next_double(-1.0, 1.0));
  for (float& x : e2) x = static_cast<float>(rng.next_double(-1.0, 1.0));

  AggregationTask gcn;
  gcn.graph = &d.graph;
  gcn.hw = &hw;
  gcn.kind = AggKind::kGcnNormalizedSum;
  AggregationTask gat = gcn;
  gat.kind = AggKind::kGatSoftmax;
  gat.e1 = &e1;
  gat.e2 = &e2;
  gat.gat_heads = 2;
  AggregationTask gin = gcn;
  gin.kind = AggKind::kPlainSum;
  gin.self_weight = 1.1f;
  AggregationTask sage = gcn;
  sage.graph = &sampled;
  sage.directed = true;
  sage.kind = AggKind::kMax;

  const EngineConfig base = small_config();
  EngineConfig no_lb = base;
  no_lb.opts.aggregation_load_balance = false;
  EngineConfig gamma1 = base;
  gamma1.cache.gamma = 1;
  EngineConfig assoc4 = base;
  assoc4.cache.associativity = 4;
  EngineConfig assoc4_no_lb = assoc4;
  assoc4_no_lb.opts.aggregation_load_balance = false;
  EngineConfig small_out = base;
  small_out.buffers.output = 8u << 10;

  struct Case {
    const char* name;
    const AggregationTask& task;
    const EngineConfig& config;
    CachePolicyKind policy;
    std::vector<std::uint64_t> want;
    std::uint64_t output_bits;  // float_bits_hash of the aggregated matrix
  };
  const Case cases[] = {
      {"gcn degree-aware", gcn, base, CachePolicyKind::kDegreeAware,
       {109, 4509, 4509, 29, 2, 791, 1582, 0, 1556, 0, 115712, 68288, 336, 70, 0, 0, 0, 0, 0, 0,
        0, 5, 100, 0, 2, 764, 120768, 67584, 2943, 1891, 1052, 142272, 46080, 0, 1556},
       0xaf3e23444892378dull},
      {"gcn id-order", gcn, base, CachePolicyKind::kIdOrder,
       {176, 5227, 5227, 41, 3, 791, 1582, 0, 1988, 0, 138756, 90756, 480, 214, 0, 0, 0, 0, 0, 0,
        0, 5, 100, 1, 3, 543, 161984, 76800, 3731, 2591, 1140, 192704, 46080, 0, 1988},
       0x96ec0e719412cf61ull},
      {"gcn on-demand", gcn, base, CachePolicyKind::kOnDemand,
       {69, 8500, 8500, 5, 1, 1582, 1582, 0, 2974, 954, 260688, 208720, 0, 0, 1988, 704, 0, 0, 0,
        0, 0, 0, 100, 2, 0, 0, 356224, 51968, 6378, 3672, 2706, 356224, 51968, 0, 2974},
       0x7f8096a8be54c9a3ull},
      {"gcn set-aware", gcn, base, CachePolicyKind::kSetAware,
       {161, 5093, 5093, 34, 2, 791, 1582, 0, 1742, 0, 125492, 77828, 396, 133, 0, 0, 0, 0, 0, 0,
        0, 5, 100, 3, 2, 574, 138432, 71424, 3279, 2182, 1097, 163776, 46080, 0, 1742},
       0xd5e9f80f5467bc51ull},
      {"gcn dual-cache", gcn, base, CachePolicyKind::kDualCache,
       {69, 6843, 6843, 5, 1, 1582, 1582, 0, 2346, 564, 200128, 148160, 0, 0, 1988, 1118, 0, 100,
        0, 0, 0, 0, 100, 4, 0, 0, 259904, 51968, 4873, 2511, 2362, 259904, 51968, 0, 2346},
       0x7f8096a8be54c9a3ull},
      {"gcn belady-oracle", gcn, base, CachePolicyKind::kBeladyOracle,
       {69, 5905, 5905, 5, 1, 1582, 1582, 0, 1924, 507, 169620, 117652, 0, 0, 1988, 1229, 0, 0, 0,
        0, 0, 0, 100, 5, 0, 0, 204224, 51968, 4003, 2005, 1998, 204224, 51968, 0, 1924},
       0x7f8096a8be54c9a3ull},
      {"gat 2 heads", gat, base, CachePolicyKind::kDegreeAware,
       {583, 5289, 5289, 36, 2, 791, 1582, 14684, 1685, 0, 126044, 78424, 385, 110, 0, 0, 0, 0, 0,
        0, 0, 5, 95, 0, 2, 744, 136192, 70720, 3233, 2093, 1140, 160832, 46080, 0, 1685},
       0xa77a1d4a7ce3e8a5ull},
      {"gat 2 heads on-demand", gat, base, CachePolicyKind::kOnDemand,
       {522, 8630, 8630, 5, 1, 1582, 1582, 16156, 3020, 973, 275500, 223532, 0, 0, 1988, 681, 0,
        0, 0, 0, 0, 0, 95, 2, 0, 0, 374336, 51968, 6661, 3993, 2668, 374336, 51968, 0, 3020},
       0x339def2cd11d76a3ull},
      {"gin plain sum", gin, base, CachePolicyKind::kDegreeAware,
       {109, 4509, 4509, 29, 2, 791, 1582, 0, 1556, 0, 115712, 68288, 336, 70, 0, 0, 0, 0, 0, 0,
        0, 5, 100, 0, 2, 764, 120768, 67584, 2943, 1891, 1052, 142272, 46080, 0, 1556},
       0x3250b38e3a07b715ull},
      {"sage directed max", sage, base, CachePolicyKind::kDegreeAware,
       {84, 4266, 4266, 28, 2, 1064, 1064, 0, 1526, 0, 111572, 64196, 324, 61, 0, 0, 0, 0, 0, 0,
        0, 5, 103, 0, 2, 1042, 115328, 66816, 2846, 1923, 923, 136064, 46080, 0, 1526},
       0xb62f42fe6fe2e828ull},
      {"sage directed max on-demand", sage, base, CachePolicyKind::kOnDemand,
       {42, 7084, 7084, 4, 1, 1064, 1064, 0, 2348, 636, 200768, 148800, 0, 0, 1470, 499, 0, 0, 0,
        0, 0, 0, 103, 2, 0, 0, 259328, 51968, 4864, 2517, 2347, 259328, 51968, 0, 2348},
       0xb62f42fe6fe2e828ull},
      {"no load balance", gcn, no_lb, CachePolicyKind::kDegreeAware,
       {775, 4509, 4573, 29, 2, 791, 1582, 0, 1556, 0, 115712, 68288, 336, 70, 0, 0, 0, 0, 0, 0,
        0, 5, 100, 0, 2, 764, 120768, 67584, 2943, 1891, 1052, 142272, 46080, 0, 1556},
       0xaf3e23444892378dull},
      {"no load balance on-demand", gcn, no_lb, CachePolicyKind::kOnDemand,
       {989, 8500, 8500, 5, 1, 1582, 1582, 0, 2974, 954, 260688, 208720, 0, 0, 1988, 704, 0, 0, 0,
        0, 0, 0, 100, 2, 0, 0, 356224, 51968, 6378, 3672, 2706, 356224, 51968, 0, 2974},
       0x7f8096a8be54c9a3ull},
      {"gamma 1", gin, gamma1, CachePolicyKind::kDegreeAware,
       {160, 4932, 4945, 57, 2, 791, 1582, 0, 1488, 0, 111668, 64340, 312, 48, 0, 0, 0, 0, 0, 4,
        0, 2, 100, 0, 2, 713, 114432, 66048, 2820, 1736, 1084, 134400, 46080, 0, 1488},
       0x046aa0b785828c2eull},
      {"associativity 4", gcn, assoc4, CachePolicyKind::kDegreeAware,
       {81, 18582, 18587, 422, 6, 791, 1582, 0, 6367, 671, 422640, 369456, 1776, 1420, 0, 0, 96,
        0, 0, 4, 1, 15, 100, 0, 6, 389, 627328, 159744, 12298, 9788, 2510, 740992, 46080, 0,
        6367},
       0x5a6cbb8f99477181ull},
      {"associativity 4 gat", gat, assoc4, CachePolicyKind::kIdOrder,
       {670, 13460, 13475, 381, 5, 791, 1582, 14684, 5323, 785, 393040, 341400, 1390, 1034, 0, 0,
        91, 0, 0, 8, 1, 20, 95, 1, 5, 253, 561344, 135040, 10881, 8973, 1908, 650304, 46080, 0,
        5323},
       0x3cc5306729878a21ull},
      {"associativity 4 directed", sage, assoc4, CachePolicyKind::kDegreeAware,
       {116, 16042, 16045, 354, 5, 1064, 1064, 0, 5312, 792, 367156, 315540, 1384, 1028, 0, 0, 99,
        0, 0, 6, 1, 10, 103, 0, 5, 598, 531904, 134656, 10415, 8286, 2129, 620480, 46080, 0,
        5312},
       0xb62f42fe6fe2e828ull},
      {"associativity 4 no load balance", gcn, assoc4_no_lb, CachePolicyKind::kSetAware,
       {682, 11372, 11467, 262, 4, 791, 1582, 0, 4259, 768, 316888, 266644, 1041, 685, 0, 0, 96,
        0, 0, 8, 1, 15, 100, 3, 4, 337, 440576, 112704, 8645, 6982, 1663, 507200, 46080, 0,
        4259},
       0x3ed51c7f0287c3b9ull},
      {"small output buffer", gcn, small_out, CachePolicyKind::kDegreeAware,
       {109, 5292, 5292, 29, 2, 791, 1582, 0, 1696, 0, 133632, 77248, 336, 70, 0, 0, 0, 0, 70, 0,
        0, 5, 100, 0, 2, 764, 129728, 76544, 3223, 1856, 1367, 142272, 64000, 0, 1696},
       0xaf3e23444892378dull},
  };

  bool swept = false;
  std::uint64_t escalations = 0, spills = 0, conflicts = 0, pinned = 0, random = 0;
  for (const Case& c : cases) {
    const auto policy = CachePolicy::make(c.policy);
    AggregationTask task = c.task;
    task.policy = policy.get();
    HbmModel hbm;
    AggregationReport rep;
    const Matrix out = AggregationEngine(c.config, &hbm).run(task, &rep);
    const std::vector<std::uint64_t> got = counters_of(rep, hbm.stats());
    EXPECT_EQ(got, c.want) << c.name << " now reports " << test::brace_list(got);
    EXPECT_EQ(float_bits_hash(out), c.output_bits)
        << c.name << " output now hashes to 0x" << std::hex << float_bits_hash(out);
    EXPECT_EQ(rep.macs, rep.accum_ops * hw.cols()) << c.name;
    swept = swept || rep.livelock_sweep;
    escalations += rep.gamma_escalations;
    spills += rep.partial_spills;
    conflicts += rep.set_conflict_evictions;
    pinned += rep.dual_pinned_vertices;
    random += rep.random_dram_accesses;
  }
  // The table must keep reaching every branch it exists to pin.
  EXPECT_TRUE(swept);
  EXPECT_GT(escalations, 0u);
  EXPECT_GT(spills, 0u);
  EXPECT_GT(conflicts, 0u);
  EXPECT_GT(pinned, 0u);
  EXPECT_GT(random, 0u);
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
