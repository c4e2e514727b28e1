// Property tests for the serving-layer cache-warmth model: the warm-cost
// discount (ServiceCost, core/serving.hpp), the per-die residency set
// (serve/warmth.hpp), the warmth-charging cluster, and the end-to-end
// acceptance criterion — with warmth enabled, locality-aware schedulers
// measurably beat FIFO on a skewed two-graph trace; with warmth disabled,
// the simulator is bit-exact with the warmth-unaware one (a one-die FIFO
// cluster on a zero-gap trace services each request in exactly its run()
// cycles).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "nn/layers.hpp"
#include "serve/cluster.hpp"
#include "serve/warmth.hpp"
#include "serve_test_util.hpp"

namespace gnnie {
namespace {

using serve::Cluster;
using serve::DieWarmthModel;
using serve::RequestTrace;
using serve::Scheduler;
using serve::SchedulerKind;
using serve::TraceStream;
using WarmthFixture = test::ServeFixture;  // two tenants, config-adjustable
using test::sequential_run_cycles;

/// Warmth config used by the cluster tests: a budget that holds exactly one
/// of the two fixture plans (35–42 KB working sets), so competing plans on
/// one die always displace each other.
EngineConfig tight_warmth_config() {
  EngineConfig config = EngineConfig::paper_default(false);
  config.warmth.enabled = true;
  config.warmth.die_budget_bytes = 48 << 10;
  return config;
}

// --- The warm-cost discount on the cost query. ---

TEST(WarmthCost, WarmCostNeverExceedsColdAndIsMonotoneInWarmFraction) {
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kGat, GnnKind::kGinConv}) {
    Dataset d = generate_dataset(spec_of(DatasetId::kCora).scaled(0.06), 1);
    ModelConfig model;
    model.kind = kind;
    model.input_dim = d.spec.feature_length;
    model.hidden_dim = 32;
    Engine engine(EngineConfig::paper_default(false));
    CompiledModel compiled = engine.compile(model, init_weights(model, 7));
    GraphPlanPtr plan = compiled.plan(d.graph);
    const RunRequest request{plan, &d.features};

    const ServiceCost cost = compiled.cost(request);
    const Cycles cold = cost.total_cycles;
    Cycles prev = cold;
    for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const Cycles warm = cost.warm_total(f);
      EXPECT_LE(warm, cold) << "kind " << static_cast<int>(kind) << " f " << f;
      EXPECT_LE(warm, prev) << "warm cost must be monotone in the warm fraction";
      prev = warm;
    }
    // A fully warm run actually saves something on these memory-bound
    // aggregation stages (the discount is not vacuously zero).
    EXPECT_LT(cost.warm_total(1.0), cold);
    EXPECT_THROW(cost.warm_total(-0.1), std::invalid_argument);
    EXPECT_THROW(cost.warm_total(1.1), std::invalid_argument);
  }
}

TEST(WarmthCost, ZeroWarmFractionReproducesRunCostBitExactly) {
  WarmthFixture f;
  for (const RunRequest& request :
       {RunRequest{f.plan_a, &f.a.features}, RunRequest{f.plan_b, &f.b_features}}) {
    const InferenceReport cold = f.compiled.run(request).report;
    const ServiceCost cost = f.compiled.cost(request);
    EXPECT_EQ(cost.total_cycles, cold.total_cycles);
    EXPECT_EQ(cost.warm_total(0.0), cold.total_cycles);
    // One warmth stage per aggregation stage with DRAM traffic, in layer
    // order; even a fully warm stage never discounts more than its memory
    // time.
    std::size_t k = 0;
    Cycles memory = 0;
    for (const LayerReport& lr : cold.layers) {
      if (lr.aggregation.dram_bytes == 0) continue;
      ASSERT_LT(k, cost.warm_stages.size());
      const WarmthStage& stage = cost.warm_stages[k++];
      EXPECT_GE(stage.fetch_share, 0.0);
      EXPECT_LE(stage.fetch_share, 1.0);
      EXPECT_LE(static_cast<double>(stage.exposed_cycles) * stage.fetch_share,
                static_cast<double>(lr.aggregation.memory_cycles));
      memory += lr.aggregation.memory_cycles;
    }
    EXPECT_EQ(k, cost.warm_stages.size());
    EXPECT_LE(cost.total_cycles - cost.warm_cycles, memory);
  }
}

TEST(WarmthCost, PlansExposeAPositiveWorkingSet) {
  WarmthFixture f;
  EXPECT_GT(f.plan_a->warm_working_set_bytes(), 0u);
  EXPECT_GT(f.plan_b->warm_working_set_bytes(), 0u);
  // Deterministic planning ⇒ deterministic working set: replanning the
  // same graph reports the same bytes.
  EXPECT_EQ(f.compiled.plan(f.a.graph)->warm_working_set_bytes(),
            f.plan_a->warm_working_set_bytes());
}

// --- The per-die residency set. ---

TEST(WarmthResidency, ResidentBytesNeverExceedTheBudget) {
  DieWarmthModel die(1000);
  // A mix of fits, refits, oversized sets, and repeats; the budget
  // invariant must hold after every touch.
  const std::uint64_t fps[] = {1, 2, 3, 1, 4, 2, 5, 1, 6, 7, 3, 3, 8, 1};
  const Bytes sizes[] = {400, 500, 300, 400, 900, 500, 2500, 400, 100, 600, 300, 300, 999, 400};
  for (std::size_t i = 0; i < std::size(fps); ++i) {
    die.touch(fps[i], sizes[i]);
    EXPECT_LE(die.resident_bytes(), die.budget()) << "after touch " << i;
    EXPECT_TRUE(die.is_resident(fps[i]));
  }
}

TEST(WarmthResidency, LruDemotionAndSwapFlagsAreExact) {
  DieWarmthModel die(1000);
  // Cold loads into spare budget are not swaps.
  EXPECT_FALSE(die.touch(1, 400).swapped);
  EXPECT_FALSE(die.touch(2, 500).swapped);
  EXPECT_DOUBLE_EQ(die.warm_fraction(1, 400), 1.0);
  // Warm hit promotes plan 1 to most-recent; no swap, full fraction.
  {
    const auto touch = die.touch(1, 400);
    EXPECT_FALSE(touch.swapped);
    EXPECT_DOUBLE_EQ(touch.warm_fraction, 1.0);
  }
  // Loading plan 3 (300 bytes) overflows 400+500+300 > 1000: the least
  // recently used plan (2, demoted by the promotion above) is evicted.
  EXPECT_TRUE(die.touch(3, 300).swapped);
  EXPECT_FALSE(die.is_resident(2));
  EXPECT_TRUE(die.is_resident(1));
  EXPECT_TRUE(die.is_resident(3));
  // A working set above the budget evicts everything and is truncated to
  // the budget: later touches of it are partially warm.
  EXPECT_TRUE(die.touch(9, 4000).swapped);
  EXPECT_EQ(die.resident_bytes(), 1000u);
  EXPECT_EQ(die.resident_plan_count(), 1u);
  EXPECT_DOUBLE_EQ(die.warm_fraction(9, 4000), 0.25);
  EXPECT_DOUBLE_EQ(die.touch(9, 4000).warm_fraction, 0.25);
}

// --- The warmth-charging cluster. ---

TEST(WarmthCluster, ServiceChargesMatchTheWarmCostModelExactly) {
  WarmthFixture f(tight_warmth_config());
  const InferenceReport cold_a = f.compiled.run({f.plan_a, &f.a.features}).report;
  const InferenceReport cold_b = f.compiled.run({f.plan_b, &f.b_features}).report;
  const Cycles penalty = kPlanSwapPenaltyCycles;

  // One die, alternating graphs, gaps wide enough that nothing queues:
  // every service alternates plans under a one-plan budget, so after the
  // first (pure cold) request every request is a cold plan swap.
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a(), f.stream_b()}, 8, 100000);
  ServingReport rep = Cluster(f.compiled, 1).simulate(trace, {.scheduler = SchedulerKind::kFifo});

  ASSERT_EQ(rep.requests.size(), 8u);
  EXPECT_TRUE(rep.warmth_enabled);
  for (std::size_t i = 0; i < rep.requests.size(); ++i) {
    const RequestRecord& r = rep.requests[i];
    const InferenceReport& cold = r.stream == 0 ? cold_a : cold_b;
    EXPECT_DOUBLE_EQ(r.warm_fraction, 0.0);
    EXPECT_EQ(r.plan_swap, i != 0);  // the first finds an empty die
    EXPECT_EQ(r.service_cycles(), cold.total_cycles + (i == 0 ? 0 : penalty));
  }
  EXPECT_EQ(rep.total_plan_swaps(), 7u);
  EXPECT_DOUBLE_EQ(rep.warm_hit_rate(), 0.0);

  // Same trace, one graph only: after the cold first request every service
  // is a full warm hit at exactly the fully-warm cost.
  RequestTrace warm_trace = RequestTrace::fixed_interval({f.stream_a()}, 6, 100000);
  ServingReport warm_rep = Cluster(f.compiled, 1).simulate(
      warm_trace, {.scheduler = SchedulerKind::kFifo});
  for (std::size_t i = 0; i < warm_rep.requests.size(); ++i) {
    const RequestRecord& r = warm_rep.requests[i];
    if (i == 0) {
      EXPECT_FALSE(r.warm_hit());
      EXPECT_EQ(r.service_cycles(), cold_a.total_cycles);
    } else {
      EXPECT_DOUBLE_EQ(r.warm_fraction, 1.0);
      EXPECT_EQ(r.service_cycles(), test::reference_warm_total(cold_a, 1.0));
    }
  }
  EXPECT_EQ(warm_rep.total_plan_swaps(), 0u);
  EXPECT_DOUBLE_EQ(warm_rep.warm_hit_rate(), 5.0 / 6.0);
  EXPECT_DOUBLE_EQ(warm_rep.die_warm_hit_rate(0), 5.0 / 6.0);
}

TEST(WarmthCluster, EvictionAndChargingAreDeterministicPerSeed) {
  WarmthFixture f(tight_warmth_config());
  for (SchedulerKind kind : serve::all_scheduler_kinds()) {
    Cluster cluster(f.compiled, 3);
    RequestTrace t1 = RequestTrace::poisson({f.stream_a(), f.stream_b()}, 80, 4000.0, 17);
    RequestTrace t2 = RequestTrace::poisson({f.stream_a(), f.stream_b()}, 80, 4000.0, 17);
    ServingReport r1 = cluster.simulate(t1, {.scheduler = kind});
    ServingReport r2 = cluster.simulate(t2, {.scheduler = kind});
    ASSERT_EQ(r1.requests.size(), r2.requests.size());
    for (std::size_t i = 0; i < r1.requests.size(); ++i) {
      EXPECT_EQ(r1.requests[i].die, r2.requests[i].die);
      EXPECT_EQ(r1.requests[i].start, r2.requests[i].start);
      EXPECT_EQ(r1.requests[i].finish, r2.requests[i].finish);
      EXPECT_DOUBLE_EQ(r1.requests[i].warm_fraction, r2.requests[i].warm_fraction);
      EXPECT_EQ(r1.requests[i].plan_swap, r2.requests[i].plan_swap);
    }
    EXPECT_EQ(r1.die_warm_hits, r2.die_warm_hits);
    EXPECT_EQ(r1.die_plan_swaps, r2.die_plan_swaps);
  }
}

// The memo-audit regression: the cluster memoizes service cost per distinct
// (plan, features) pair, and that memo must stay warmth-INDEPENDENT — it
// stores only the cold report, with warm_fraction-dependent discounts
// applied per service outside the memo. If a charge (cold or warm) ever
// leaked into the entry, every later service of the same request would be
// charged the first service's warmth by mistake.
TEST(WarmthCluster, MemoizedCostIsColdAndWarmFractionAppliesPerService) {
  WarmthFixture f(tight_warmth_config());
  const InferenceReport cold = f.compiled.run({f.plan_a, &f.a.features}).report;
  const Cycles full_warm = test::reference_warm_total(cold, 1.0);
  ASSERT_LT(full_warm, cold.total_cycles) << "the workload must have a warm discount";

  // One die, the same (plan, features) request three times, gaps wide
  // enough that nothing queues: the first service is cold, the second and
  // third find the plan resident. All three share one memo entry, yet the
  // charges must differ between the cold and the warm services — and the
  // third (memo warm after a warm hit) must match the second, not drift.
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 3, 1u << 30);
  ServingReport rep = Cluster(f.compiled, 1).simulate(trace, {.scheduler = SchedulerKind::kFifo});
  ASSERT_EQ(rep.requests.size(), 3u);
  EXPECT_EQ(rep.requests[0].service_cycles(), cold.total_cycles);
  EXPECT_EQ(rep.requests[1].service_cycles(), full_warm);
  EXPECT_EQ(rep.requests[2].service_cycles(), full_warm);
  EXPECT_LT(rep.requests[1].service_cycles(), rep.requests[0].service_cycles());

  // The other direction of the leak: alternating plans under a one-plan
  // budget makes every service of A cold again — the warm charge from a
  // hit must not stick to the memo either. Stream A services here are the
  // swap-penalized cold cost every time after the first.
  RequestTrace alternating =
      RequestTrace::fixed_interval({f.stream_a(), f.stream_b()}, 6, 1u << 30);
  ServingReport alt = Cluster(f.compiled, 1).simulate(
      alternating, {.scheduler = SchedulerKind::kFifo});
  const Cycles penalty = kPlanSwapPenaltyCycles;
  EXPECT_EQ(alt.requests[2].service_cycles(), cold.total_cycles + penalty);
  EXPECT_EQ(alt.requests[4].service_cycles(), cold.total_cycles + penalty);
}

// --- The batch equivalence pin: warmth defaults off and changes nothing. ---

TEST(WarmthCluster, DisabledWarmthKeepsSingleDieFifoZeroGapBatchEquivalence) {
  EngineConfig config = EngineConfig::paper_default(false);
  ASSERT_FALSE(config.warmth.enabled) << "warmth must default off";
  WarmthFixture f(config);
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a(), f.stream_b()}, 8, 0);
  const std::vector<Cycles> runs = sequential_run_cycles(f.compiled, trace);

  ServingReport rep = Cluster(f.compiled, 1).simulate(trace, {.scheduler = SchedulerKind::kFifo});

  ASSERT_EQ(rep.requests.size(), runs.size());
  Cycles sequential_total = 0;
  for (std::size_t i = 0; i < rep.requests.size(); ++i) {
    EXPECT_EQ(rep.requests[i].service_cycles(), runs[i]);
    EXPECT_FALSE(rep.requests[i].warm_hit());
    EXPECT_FALSE(rep.requests[i].plan_swap);
    sequential_total += runs[i];
  }
  EXPECT_EQ(rep.makespan, sequential_total);
  EXPECT_FALSE(rep.warmth_enabled);
  EXPECT_EQ(rep.total_plan_swaps(), 0u);
  EXPECT_DOUBLE_EQ(rep.warm_hit_rate(), 0.0);
}

TEST(WarmthCluster, EnabledWarmthNeverServesSlowerThanTheColdBatch) {
  WarmthFixture f(tight_warmth_config());
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 8, 0);
  const std::vector<Cycles> runs = sequential_run_cycles(f.compiled, trace);
  Cycles sequential_total = 0;
  for (Cycles c : runs) sequential_total += c;

  ServingReport rep = Cluster(f.compiled, 1).simulate(trace, {.scheduler = SchedulerKind::kFifo});
  // Single-stream zero-gap: one cold start, then warm hits with no swaps —
  // strictly faster than the all-cold batch.
  EXPECT_LT(rep.makespan, sequential_total);
  for (std::size_t i = 1; i < rep.requests.size(); ++i) {
    EXPECT_LE(rep.requests[i].service_cycles(), runs[i]);
  }
}

// --- The acceptance criterion: warmth makes locality pay. ---

TEST(WarmthCluster, AffinityAndWarmthAwareStrictlyBeatFifoOnSkewedTwoGraphTrace) {
  WarmthFixture f(tight_warmth_config());
  // Skewed two-graph Poisson traffic (4:1) over 4 dies. FIFO concentrates
  // on the lowest-index idle die and keeps alternating plans across it —
  // paying swap after swap — while locality-aware schedulers give each
  // graph a warm home. On this deadline-free trace slo-aware routes by
  // earliest predicted completion against each die's residency: the
  // warmth-aware rule.
  TraceStream heavy_a = f.stream_a();
  heavy_a.weight = 4.0;
  RequestTrace trace =
      RequestTrace::poisson({heavy_a, f.stream_b()}, 300, 30000.0, /*seed=*/7);
  const std::vector<std::size_t> counts = trace.stream_counts();
  ASSERT_GT(counts[0], counts[1]) << "the trace must actually be skewed";

  Cluster cluster(f.compiled, 4);
  ServingReport fifo = cluster.simulate(trace, {.scheduler = SchedulerKind::kFifo});
  ServingReport affinity =
      cluster.simulate(trace, {.scheduler = SchedulerKind::kGraphAffinity});
  ServingReport warmth_aware =
      cluster.simulate(trace, {.scheduler = SchedulerKind::kSloAware});

  EXPECT_LT(affinity.p99_latency_cycles(), fifo.p99_latency_cycles());
  EXPECT_LT(warmth_aware.p99_latency_cycles(), fifo.p99_latency_cycles());
  EXPECT_GT(affinity.warm_hit_rate(), fifo.warm_hit_rate());
  EXPECT_GT(warmth_aware.warm_hit_rate(), fifo.warm_hit_rate());
  EXPECT_LT(affinity.total_plan_swaps(), fifo.total_plan_swaps());
  EXPECT_LT(warmth_aware.total_plan_swaps(), fifo.total_plan_swaps());
  // The warm/cold latency split is coherent: warm requests are faster at
  // the median under the locality schedulers.
  EXPECT_LT(affinity.warm_latency_percentile(50.0), affinity.cold_latency_percentile(50.0));
}

}  // namespace
}  // namespace gnnie
