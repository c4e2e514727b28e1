// Tests for the serving API (core/serving.hpp): plan reuse across runs
// (bit-identical to a fresh compile → plan → run), pure planning (two
// plans of one graph agree on everything but identity), the shape guard
// against a plan whose graph was reassigned, cache-policy
// selection through the CachePolicy interface, compile/plan/run
// validation, and the cost record CompiledModel::cost builds, pinned to
// recorded values.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/serving.hpp"
#include "engine_test_util.hpp"
#include "nn/reference.hpp"

namespace gnnie {
namespace {

using test::ModelFixture;

TEST(Serving, PlanIsReusedAcrossRuns) {
  ModelFixture f(GnnKind::kGcn);
  EngineConfig cfg = EngineConfig::paper_default(false);
  Engine engine(cfg);
  CompiledModel compiled = engine.compile(f.model, f.weights);
  GraphPlanPtr plan = compiled.plan(f.data.graph);

  // One plan, several runs — outputs bit-identical to a fresh compile →
  // plan → run of the same workload.
  InferenceResult want = f.run(Engine(cfg));
  RunRequest request{plan, &f.data.features};
  InferenceResult r1 = compiled.run(request);
  InferenceResult r2 = compiled.run(request);
  EXPECT_EQ(Matrix::max_abs_diff(r1.output, want.output), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(r2.output, want.output), 0.0f);
  EXPECT_EQ(r1.report.total_cycles, want.report.total_cycles);
  EXPECT_EQ(r2.report.total_cycles, want.report.total_cycles);
  // Stateless runs: identical stats both times, no cross-run accumulation.
  EXPECT_EQ(r1.report.dram.bytes_read, r2.report.dram.bytes_read);
  EXPECT_EQ(r1.report.dram.bytes_written, r2.report.dram.bytes_written);
}

TEST(Serving, PlanIsPure) {
  // plan() builds a fresh plan on every call, and planning is
  // deterministic: two plans of one graph are distinct objects that agree
  // on every precompute and run bit-identically.
  ModelFixture f(GnnKind::kGcn);
  for (CachePolicyKind kind : {CachePolicyKind::kDegreeAware, CachePolicyKind::kDualCache}) {
    Engine engine(EngineConfig::paper_default(false), CachePolicy::make(kind));
    CompiledModel compiled = engine.compile(f.model, f.weights);
    GraphPlanPtr p1 = compiled.plan(f.data.graph);
    GraphPlanPtr p2 = compiled.plan(f.data.graph);
    EXPECT_NE(p1.get(), p2.get()) << to_string(kind);
    EXPECT_EQ(p1->fingerprint(), p2->fingerprint());
    EXPECT_EQ(p1->order(), p2->order());
    EXPECT_EQ(p1->positions(), p2->positions());
    EXPECT_EQ(p1->initial_alpha(), p2->initial_alpha());
    for (std::uint32_t l = 0; l < f.model.num_layers; ++l) {
      const std::size_t width = f.model.layer_output_dim(l);
      EXPECT_GT(p1->cache_capacity_for_width(width), 0u);
      EXPECT_EQ(p1->cache_capacity_for_width(width), p2->cache_capacity_for_width(width));
      // The dual split exists only for the dual-cache policy.
      EXPECT_EQ(p1->dual_pinned_for_width(width).has_value(),
                kind == CachePolicyKind::kDualCache);
      EXPECT_EQ(p1->dual_pinned_for_width(width), p2->dual_pinned_for_width(width));
    }
    const InferenceResult r1 = compiled.run({p1, &f.data.features});
    const InferenceResult r2 = compiled.run({p2, &f.data.features});
    EXPECT_EQ(Matrix::max_abs_diff(r1.output, r2.output), 0.0f);
    EXPECT_EQ(r1.report.total_cycles, r2.report.total_cycles);
    EXPECT_EQ(r1.report.dram.bytes_read, r2.report.dram.bytes_read);
    EXPECT_EQ(r1.report.dram.row_hits, r2.report.dram.row_hits);
  }
}

TEST(Serving, StalePlanOfReassignedGraphIsRejected) {
  // A plan describes the graph as it was at plan time. Once the planned Csr
  // is reassigned in place, running the old plan is caught by the O(1)
  // shape guard rather than producing silent nonsense, and a new plan()
  // call binds the new structure.
  ModelFixture f(GnnKind::kGcn);
  Engine engine(EngineConfig::paper_default(false));
  CompiledModel compiled = engine.compile(f.model, f.weights);
  Csr g = generate_graph(spec_of(DatasetId::kCora).scaled(0.1), 1);
  GraphPlanPtr stale = compiled.plan(g);
  Dataset shrunk = generate_dataset(spec_of(DatasetId::kCora).scaled(0.05), 3);
  g = shrunk.graph;
  EXPECT_THROW(compiled.run({stale, &shrunk.features}), std::invalid_argument);
  GraphPlanPtr fresh = compiled.plan(g);
  EXPECT_NE(fresh->fingerprint(), stale->fingerprint());
  EXPECT_GT(compiled.run({fresh, &shrunk.features}).report.total_cycles, 0u);
}

TEST(Serving, PlanPrecomputesAggregationHints) {
  ModelFixture f(GnnKind::kGcn);
  EngineConfig cfg = EngineConfig::paper_default(false);
  Engine engine(cfg);
  CompiledModel compiled = engine.compile(f.model, f.weights);
  GraphPlanPtr plan = compiled.plan(f.data.graph);

  // α₀ = degree for every vertex, and a capacity per aggregation width
  // (hidden and output widths here) matching the engine's own derivation.
  ASSERT_TRUE(plan->has_initial_alpha());
  for (VertexId v = 0; v < f.data.graph.vertex_count(); ++v) {
    EXPECT_EQ(plan->initial_alpha()[v], f.data.graph.degree(v));
  }
  for (std::uint32_t l = 0; l < f.model.num_layers; ++l) {
    const std::size_t width = f.model.layer_output_dim(l);
    EXPECT_EQ(plan->cache_capacity_for_width(width),
              AggregationEngine::cache_capacity_for(cfg, f.data.graph, width,
                                                    AggKind::kGcnNormalizedSum));
  }
  EXPECT_EQ(plan->cache_capacity_for_width(12345), 0u);  // unknown width: no hint
}

TEST(Serving, DifferentFeaturesDifferentOutputsSamePlan) {
  ModelFixture f(GnnKind::kGcn);
  Engine engine(EngineConfig::paper_default(false));
  CompiledModel compiled = engine.compile(f.model, f.weights);
  GraphPlanPtr plan = compiled.plan(f.data.graph);

  SparseMatrix other = generate_features(f.data.spec, 99);
  InferenceResult a = compiled.run({plan, &f.data.features});
  InferenceResult b = compiled.run({plan, &other});
  EXPECT_GT(Matrix::max_abs_diff(a.output, b.output), 0.0f);
  // And each still matches the software reference.
  EXPECT_LT(Matrix::max_abs_diff(
                a.output, reference_forward(f.model, f.weights, f.data.graph, f.data.features)),
            2e-3f);
  EXPECT_LT(Matrix::max_abs_diff(
                b.output, reference_forward(f.model, f.weights, f.data.graph, other)),
            2e-3f);
}

class PolicySelection : public ::testing::TestWithParam<CachePolicyKind> {};

TEST_P(PolicySelection, AllCacheBehaviorsSelectableThroughTheInterface) {
  const CachePolicyKind kind = GetParam();
  ModelFixture f(GnnKind::kGcn);
  EngineConfig cfg = EngineConfig::paper_default(false);
  // The policy object alone selects the behavior.
  Engine engine(cfg, CachePolicy::make(kind));
  EXPECT_EQ(engine.cache_policy().kind(), kind);

  CompiledModel compiled = engine.compile(f.model, f.weights);
  GraphPlanPtr plan = compiled.plan(f.data.graph);
  EXPECT_EQ(plan->policy().kind(), kind);
  InferenceResult res = compiled.run({plan, &f.data.features});

  // The aggregation stage reports which policy actually drove it.
  ASSERT_FALSE(res.report.layers.empty());
  for (const LayerReport& lr : res.report.layers) {
    EXPECT_EQ(lr.aggregation.policy, kind);
  }
  // All policies compute the same function.
  Matrix want = reference_forward(f.model, f.weights, f.data.graph, f.data.features);
  EXPECT_LT(Matrix::max_abs_diff(res.output, want), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicySelection,
                         ::testing::ValuesIn(all_cache_policy_kinds()),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::erase(name, '-');  // gtest names must be identifiers
                           return name;
                         });

TEST(Serving, PolicyChoiceChangesTheCostModelNotTheFunction) {
  ModelFixture f(GnnKind::kGcn);
  EngineConfig cfg = EngineConfig::paper_default(false);
  cfg.buffers.input = 32u << 10;  // small buffer so the policies diverge

  Engine degree(cfg, CachePolicy::make(CachePolicyKind::kDegreeAware));
  Engine on_demand(cfg, CachePolicy::make(CachePolicyKind::kOnDemand));
  CompiledModel cm_degree = degree.compile(f.model, f.weights);
  CompiledModel cm_demand = on_demand.compile(f.model, f.weights);
  InferenceResult r_degree =
      cm_degree.run({cm_degree.plan(f.data.graph), &f.data.features});
  InferenceResult r_demand =
      cm_demand.run({cm_demand.plan(f.data.graph), &f.data.features});

  EXPECT_LT(Matrix::max_abs_diff(r_degree.output, r_demand.output), 1e-4f);
  std::uint64_t demand_random = 0;
  for (const LayerReport& lr : r_demand.report.layers) {
    demand_random += lr.aggregation.random_dram_accesses;
  }
  EXPECT_GT(demand_random, 0u);  // on-demand pulls pay random DRAM
  for (const LayerReport& lr : r_degree.report.layers) {
    if (!lr.aggregation.livelock_sweep) {
      EXPECT_EQ(lr.aggregation.random_dram_accesses, 0u);
    }
  }
}

TEST(Serving, CompileValidatesShapesUpFront) {
  ModelFixture f(GnnKind::kGcn);
  Engine engine(EngineConfig::paper_default(false));
  ModelConfig bad = f.model;
  bad.input_dim += 1;  // weights no longer match
  EXPECT_THROW(engine.compile(bad, f.weights), std::invalid_argument);

  ModelConfig no_layers = f.model;
  no_layers.num_layers = 3;  // weights carry 2
  EXPECT_THROW(engine.compile(no_layers, f.weights), std::invalid_argument);
}

TEST(Serving, PlanAndRunValidateTheirInputs) {
  ModelFixture f(GnnKind::kGcn);
  ModelFixture sage(GnnKind::kGraphSage);
  Engine engine(EngineConfig::paper_default(false));
  CompiledModel compiled = engine.compile(f.model, f.weights);

  // GraphSAGE models demand sampled adjacencies; others refuse them.
  CompiledModel compiled_sage = engine.compile(sage.model, sage.weights);
  EXPECT_THROW(compiled_sage.plan(sage.data.graph), std::invalid_argument);
  EXPECT_THROW(compiled.plan(f.data.graph, sage.sampled), std::invalid_argument);

  // Requests need a plan and features, and the plan must be ours.
  GraphPlanPtr plan = compiled.plan(f.data.graph);
  EXPECT_THROW(compiled.run({nullptr, &f.data.features}), std::invalid_argument);
  EXPECT_THROW(compiled.run({plan, nullptr}), std::invalid_argument);
  CompiledModel other = engine.compile(f.model, f.weights);
  EXPECT_THROW(other.run({plan, &f.data.features}), std::invalid_argument);

  // A plan that outlives its CompiledModel is detected, not aliased.
  GraphPlanPtr stale;
  {
    CompiledModel temp = engine.compile(f.model, f.weights);
    stale = temp.plan(f.data.graph);
  }
  EXPECT_THROW(compiled.run({stale, &f.data.features}), std::invalid_argument);
}

TEST(Serving, GraphSagePlanBindsSampledAdjacencies) {
  ModelFixture f(GnnKind::kGraphSage);
  EngineConfig cfg = EngineConfig::paper_default(false);
  Engine engine(cfg);
  CompiledModel compiled = engine.compile(f.model, f.weights);
  GraphPlanPtr plan = compiled.plan(f.data.graph, f.sampled);
  ASSERT_EQ(plan->sampled_layer_count(), f.model.num_layers);
  for (std::uint32_t l = 0; l < f.model.num_layers; ++l) {
    EXPECT_EQ(plan->sampled_graph(l).edge_count(), f.sampled[l].edge_count());
  }
  // The plan owns its copies: rerunning with it works even if the caller's
  // sampled vector goes away.
  std::vector<Csr> gone = std::move(f.sampled);
  gone.clear();
  InferenceResult res = compiled.run({plan, &f.data.features});
  EXPECT_GT(res.report.total_cycles, 0u);
}

/// The cost record as a counter list: total, warm, weighting, follower
/// saving, stage count, each stage's exposed cycles and the bits of its
/// fetch share, then warm_total at 0.25 and 0.5.
std::vector<std::uint64_t> cost_record(const ServiceCost& c) {
  std::vector<std::uint64_t> v = {c.total_cycles, c.warm_cycles, c.weighting_cycles,
                                  c.batch_saving_cycles, c.warm_stages.size()};
  for (const WarmthStage& stage : c.warm_stages) {
    v.push_back(stage.exposed_cycles);
    v.push_back(std::bit_cast<std::uint64_t>(stage.fetch_share));
  }
  v.push_back(c.warm_total(0.25));
  v.push_back(c.warm_total(0.5));
  return v;
}

TEST(Serving, CostMatchesRecordedValues) {
  // Pins CompiledModel::cost for every GNN kind on two design points; a
  // model change that moves a serving price fails here with the line to
  // paste.
  constexpr std::uint64_t kShareA = 4603143521809356479ull;  // bits of the fetch shares
  constexpr std::uint64_t kShareB = 4603141649999836998ull;
  constexpr std::uint64_t kShareC = 4603253628047020098ull;
  constexpr std::uint64_t kShareD = 4603521293929730076ull;
  struct Case {
    char design;
    GnnKind kind;
    std::vector<std::uint64_t> want;
  };
  const Case cases[] = {
      {'A', GnnKind::kGcn, {2175, 1461, 801, 186, 2, 637, kShareA, 659, kShareA, 1998, 1819}},
      {'A', GnnKind::kGraphSage, {2008, 1404, 832, 185, 2, 538, kShareB, 560, kShareB, 1857, 1706}},
      {'A', GnnKind::kGat, {2588, 1984, 804, 186, 2, 537, kShareC, 537, kShareC, 2438, 2286}},
      {'A', GnnKind::kGinConv, {2854, 2140, 1446, 191, 2, 637, kShareA, 659, kShareA, 2677, 2498}},
      {'A', GnnKind::kDiffPool,
       {5184, 3437, 1816, 411, 5, 637, kShareA, 659, kShareA, 659, kShareA, 565, kShareD, 565,
        kShareD, 4751, 4313}},
      {'E', GnnKind::kGcn, {2335, 1617, 961, 187, 2, 640, kShareA, 662, kShareA, 2156, 1977}},
      {'E', GnnKind::kGraphSage,
       {2196, 1588, 1020, 185, 2, 541, kShareB, 563, kShareB, 2045, 1892}},
      {'E', GnnKind::kGat, {2750, 2146, 966, 187, 2, 537, kShareC, 537, kShareC, 2600, 2448}},
      {'E', GnnKind::kGinConv, {3290, 2572, 1882, 190, 2, 640, kShareA, 662, kShareA, 3111, 2932}},
      {'E', GnnKind::kDiffPool,
       {5419, 3664, 2051, 409, 5, 640, kShareA, 662, kShareA, 662, kShareA, 567, kShareD, 567,
        kShareD, 4981, 4543}},
  };
  for (const Case& c : cases) {
    ModelFixture f(c.kind, 0.05);
    const CompiledModel compiled =
        Engine(EngineConfig::design_point(c.design, false)).compile(f.model, f.weights);
    const ServiceCost cost =
        compiled.cost({compiled.plan(f.data.graph, f.sampled), &f.data.features});
    const std::vector<std::uint64_t> got = cost_record(cost);
    EXPECT_EQ(got, c.want) << "design " << c.design << ", kind " << static_cast<int>(c.kind)
                           << ": now " << test::brace_list(got);
  }
}

}  // namespace
}  // namespace gnnie
