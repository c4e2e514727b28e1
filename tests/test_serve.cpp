// Tests for the serving-cluster simulator (src/serve/): batch equivalence
// of the degenerate single-die FIFO zero-gap case, strict tail-latency and
// makespan improvement with more dies, determinism under a fixed seed,
// FIFO vs shortest-queue ordering invariants, graph-affinity routing on a
// two-graph trace, GraphSAGE's sampled plans on homogeneous and FleetSpec
// clusters, trace generation, the ServingReport rollup math, and its
// latency sorts against std::sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/rng.hpp"
#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "engine_test_util.hpp"
#include "nn/layers.hpp"
#include "serve/cluster.hpp"
#include "serve/fleet.hpp"
#include "serve_test_util.hpp"

namespace gnnie {
namespace {

using serve::Cluster;
using serve::RequestTrace;
using serve::Scheduler;
using serve::SchedulerKind;
using serve::TraceStream;
using test::ServeFixture;  // the two-tenant serving setup (serve_test_util.hpp)

TEST(ServeTrace, FixedIntervalIsDeterministicAndRoundRobin) {
  ServeFixture f;
  RequestTrace t = RequestTrace::fixed_interval({f.stream_a(), f.stream_b()}, 6, 100);
  ASSERT_EQ(t.size(), 6u);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.requests()[i].arrival, i * 100);
    EXPECT_EQ(t.requests()[i].stream, i % 2);
  }
  EXPECT_EQ(t.horizon(), 500u);
}

TEST(ServeTrace, PoissonArrivalsAreMonotoneSeededAndMixStreams) {
  ServeFixture f;
  RequestTrace t1 =
      RequestTrace::poisson({f.stream_a(), f.stream_b()}, 200, 1000.0, /*seed=*/5);
  RequestTrace t2 =
      RequestTrace::poisson({f.stream_a(), f.stream_b()}, 200, 1000.0, /*seed=*/5);
  RequestTrace t3 =
      RequestTrace::poisson({f.stream_a(), f.stream_b()}, 200, 1000.0, /*seed=*/6);
  ASSERT_EQ(t1.size(), 200u);
  std::set<std::size_t> streams;
  bool same_as_t3 = true;
  for (std::size_t i = 0; i < t1.size(); ++i) {
    if (i > 0) EXPECT_GE(t1.requests()[i].arrival, t1.requests()[i - 1].arrival);
    EXPECT_EQ(t1.requests()[i].arrival, t2.requests()[i].arrival);  // same seed
    EXPECT_EQ(t1.requests()[i].stream, t2.requests()[i].stream);
    same_as_t3 = same_as_t3 && t1.requests()[i].arrival == t3.requests()[i].arrival;
    streams.insert(t1.requests()[i].stream);
  }
  EXPECT_FALSE(same_as_t3);       // different seed, different arrivals
  EXPECT_EQ(streams.size(), 2u);  // both streams drawn
  // Mean gap lands in the right ballpark (law of large numbers, loose).
  const double mean =
      static_cast<double>(t1.horizon()) / static_cast<double>(t1.size() - 1);
  EXPECT_GT(mean, 600.0);
  EXPECT_LT(mean, 1600.0);
}

TEST(ServeTrace, BurstyTraceHasCalmAndBurstGaps) {
  ServeFixture f;
  RequestTrace t = RequestTrace::bursty({f.stream_a()}, 400, 10000.0, 500.0,
                                        /*mean_calm_run=*/30.0, /*mean_burst_run=*/30.0,
                                        /*seed=*/9);
  // A 20x rate modulation leaves a clearly bimodal gap distribution: some
  // gaps far above the burst mean and plenty below a tenth of the calm mean.
  std::size_t small = 0, large = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    const Cycles gap = t.requests()[i].arrival - t.requests()[i - 1].arrival;
    small += gap < 1000 ? 1 : 0;
    large += gap > 5000 ? 1 : 0;
  }
  EXPECT_GT(small, 50u);
  EXPECT_GT(large, 50u);
}

TEST(ServeTrace, ValidatesStreams) {
  ServeFixture f;
  EXPECT_THROW(RequestTrace::fixed_interval({}, 4, 10), std::invalid_argument);
  TraceStream no_features = f.stream_a();
  no_features.features = nullptr;
  EXPECT_THROW(RequestTrace::fixed_interval({no_features}, 4, 10), std::invalid_argument);
  TraceStream bad_weight = f.stream_a();
  bad_weight.weight = 0.0;
  EXPECT_THROW(RequestTrace::poisson({bad_weight}, 4, 10.0, 1), std::invalid_argument);
}

TEST(ServeTrace, ZeroWeightStreamsAreRejectedEverywhere) {
  // Weights are draw probabilities: a zero- (or negative-) weight stream is
  // a contradiction, not "never drawn", and every constructor must reject
  // it — including fixed_interval, which ignores weights when emitting, and
  // including a zero-weight stream hiding among valid ones. An infinite
  // weight is no probability either: it would take every draw.
  ServeFixture f;
  TraceStream zero = f.stream_a();
  zero.weight = 0.0;
  TraceStream negative = f.stream_b();
  negative.weight = -1.0;
  TraceStream infinite = f.stream_b();
  infinite.weight = std::numeric_limits<double>::infinity();
  EXPECT_THROW(RequestTrace::fixed_interval({f.stream_a(), zero}, 4, 10),
               std::invalid_argument);
  EXPECT_THROW(RequestTrace::poisson({f.stream_a(), zero}, 4, 10.0, 1),
               std::invalid_argument);
  EXPECT_THROW(RequestTrace::poisson({negative}, 4, 10.0, 1), std::invalid_argument);
  EXPECT_THROW(
      RequestTrace::bursty({f.stream_a(), zero}, 4, 100.0, 10.0, 5.0, 5.0, 1),
      std::invalid_argument);
  EXPECT_THROW(RequestTrace::poisson({f.stream_a(), infinite}, 1000, 10.0, 1),
               std::invalid_argument);
  // Finite weights whose sum overflows are no distribution either.
  TraceStream huge = f.stream_a();
  huge.weight = 1e308;
  EXPECT_THROW(RequestTrace::poisson({huge, huge}, 4, 10.0, 1), std::invalid_argument);
}

TEST(ServeTrace, RejectsArrivalsThatWrapTheCycleClock) {
  // Arrival times are unsigned cycles: a trace whose gaps or arrivals do not
  // fit must be rejected, not wrapped back to small times (which would
  // report ~2^63-cycle latencies for requests "arriving" before earlier
  // ones).
  ServeFixture f;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(RequestTrace::poisson({f.stream_a()}, 4, inf, 1), std::invalid_argument);
  EXPECT_THROW(RequestTrace::poisson({f.stream_a()}, 4, std::nan(""), 1),
               std::invalid_argument);
  EXPECT_THROW(RequestTrace::poisson({f.stream_a()}, 4, 1e300, 1), std::invalid_argument);
  EXPECT_THROW(RequestTrace::bursty({f.stream_a()}, 4, inf, 10.0, 5.0, 5.0, 1),
               std::invalid_argument);
  EXPECT_THROW(RequestTrace::bursty({f.stream_a()}, 4, 1e300, 1e300, 5.0, 5.0, 1),
               std::invalid_argument);
  // Every gap fits, but the running sum passes 2^64 − 1 (~4e19 cycles).
  EXPECT_THROW(RequestTrace::poisson({f.stream_a()}, 400, 1e17, 1), std::invalid_argument);
  EXPECT_THROW(RequestTrace::fixed_interval({f.stream_a()}, 3, Cycles{1} << 63),
               std::invalid_argument);
  // A deadline past the end of the clock wraps the same way.
  TraceStream late = f.stream_a();
  late.slo_cycles = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(RequestTrace::fixed_interval({late}, 2, (Cycles{1} << 63) + 1),
               std::invalid_argument);

  // Large arrivals that do fit are still accepted.
  const RequestTrace large = RequestTrace::fixed_interval({f.stream_a()}, 3, Cycles{1} << 62);
  EXPECT_EQ(large.horizon(), Cycles{1} << 63);
}

// --- The degenerate cluster is the batch API: back-to-back run()s. ---

TEST(ServeCluster, SingleDieFifoZeroGapReproducesRunBatchExactly) {
  ServeFixture f;
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a(), f.stream_b()}, 8, 0);

  Cluster cluster(f.compiled, 1);
  ServingReport rep = cluster.simulate(trace, {.scheduler = SchedulerKind::kFifo});

  const std::vector<Cycles> runs = test::sequential_run_cycles(f.compiled, trace);
  ASSERT_EQ(rep.requests.size(), runs.size());
  Cycles sequential_total = 0;
  for (std::size_t i = 0; i < rep.requests.size(); ++i) {
    // Same per-request cycle counts as a lone run(), serviced in arrival
    // order on die 0.
    EXPECT_EQ(rep.requests[i].service_cycles(), runs[i]);
    EXPECT_EQ(rep.requests[i].die, 0u);
    if (i > 0) EXPECT_EQ(rep.requests[i].start, rep.requests[i - 1].finish);
    sequential_total += runs[i];
  }
  // Makespan equals the runs' sequential total exactly.
  EXPECT_EQ(rep.makespan, sequential_total);
  EXPECT_EQ(rep.die_busy_cycles[0], sequential_total);
  EXPECT_DOUBLE_EQ(rep.die_utilization(0), 1.0);
}

TEST(ServeCluster, FourDiesStrictlyImproveTailLatencyAndMakespan) {
  ServeFixture f;
  const Cycles service = f.compiled.cost({f.plan_a, &f.a.features}).total_cycles;
  // Offered load ~1.6x one die's capacity: a single die drowns, four don't.
  RequestTrace trace = RequestTrace::poisson(
      {f.stream_a()}, 60, static_cast<double>(service) / 1.6, /*seed=*/3);

  ServingReport one = Cluster(f.compiled, 1).simulate(
      trace, {.scheduler = SchedulerKind::kShortestQueue});
  ServingReport four = Cluster(f.compiled, 4).simulate(
      trace, {.scheduler = SchedulerKind::kShortestQueue});
  EXPECT_LT(four.p99_latency_cycles(), one.p99_latency_cycles());
  EXPECT_LT(four.makespan, one.makespan);
  EXPECT_LT(four.mean_queue_depth(), one.mean_queue_depth());
  // All four dies actually served work.
  for (std::size_t d = 0; d < 4; ++d) EXPECT_GT(four.die_busy_cycles[d], 0u);
}

TEST(ServeCluster, SimulationIsDeterministicUnderAFixedSeed) {
  ServeFixture f;
  for (SchedulerKind kind : serve::all_scheduler_kinds()) {
    Cluster cluster(f.compiled, 3);
    RequestTrace t1 = RequestTrace::poisson({f.stream_a(), f.stream_b()}, 80, 2000.0, 17);
    RequestTrace t2 = RequestTrace::poisson({f.stream_a(), f.stream_b()}, 80, 2000.0, 17);
    ServingReport r1 = cluster.simulate(t1, {.scheduler = kind});
    ServingReport r2 = cluster.simulate(t2, {.scheduler = kind});
    ASSERT_EQ(r1.requests.size(), r2.requests.size());
    for (std::size_t i = 0; i < r1.requests.size(); ++i) {
      EXPECT_EQ(r1.requests[i].die, r2.requests[i].die);
      EXPECT_EQ(r1.requests[i].arrival, r2.requests[i].arrival);
      EXPECT_EQ(r1.requests[i].start, r2.requests[i].start);
      EXPECT_EQ(r1.requests[i].finish, r2.requests[i].finish);
    }
    EXPECT_EQ(r1.makespan, r2.makespan);
    EXPECT_EQ(r1.die_busy_cycles, r2.die_busy_cycles);
  }
}

TEST(ServeCluster, FifoStartsInArrivalOrderClusterWide) {
  ServeFixture f;
  const Cycles service = f.compiled.cost({f.plan_a, &f.a.features}).total_cycles;
  RequestTrace trace = RequestTrace::poisson(
      {f.stream_a(), f.stream_b()}, 60, static_cast<double>(service) / 3.0, /*seed=*/23);
  ServingReport rep = Cluster(f.compiled, 3).simulate(trace, {.scheduler = SchedulerKind::kFifo});
  // Global FIFO invariant: service starts are non-decreasing in arrival
  // order even across dies.
  for (std::size_t i = 1; i < rep.requests.size(); ++i) {
    EXPECT_GE(rep.requests[i].start, rep.requests[i - 1].start);
  }
}

TEST(ServeCluster, ShortestQueueBalancesAndKeepsPerDieFifo) {
  ServeFixture f;
  // Zero-gap single-stream trace: every request identical, so shortest-queue
  // must deal them out round-robin — per-die counts differ by at most one.
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 21, 0);
  ServingReport rep = Cluster(f.compiled, 4).simulate(
      trace, {.scheduler = SchedulerKind::kShortestQueue});

  std::vector<std::size_t> per_die(4, 0);
  std::vector<Cycles> last_start(4, 0);
  for (const RequestRecord& r : rep.requests) {
    ++per_die[r.die];
    EXPECT_GE(r.start, last_start[r.die]);  // per-die FIFO
    last_start[r.die] = r.start;
  }
  const auto [lo, hi] = std::minmax_element(per_die.begin(), per_die.end());
  EXPECT_LE(*hi - *lo, 1u);
  // And it beats FIFO's single outstanding request per die... both should
  // finish at the same makespan here (same work), but queueing differs: the
  // shortest-queue run commits every request to a die immediately.
  EXPECT_EQ(rep.requests.size(), 21u);
}

TEST(ServeCluster, GraphAffinityRoutesEachGraphToItsOwnDie) {
  ServeFixture f;
  // Two graphs under random weighted arrivals, two dies: affinity must give
  // each graph a dedicated die (plan/cache state never thrashes). The 2:1
  // mix produces runs of the same stream, which is exactly what tempts a
  // load balancer into crossing graphs over dies.
  const Cycles service = f.compiled.cost({f.plan_a, &f.a.features}).total_cycles;
  TraceStream heavy_a = f.stream_a();
  heavy_a.weight = 2.0;
  RequestTrace trace = RequestTrace::poisson(
      {heavy_a, f.stream_b()}, 40, static_cast<double>(service) / 1.5, /*seed=*/19);
  auto affinity = Scheduler::make(SchedulerKind::kGraphAffinity);
  ServingReport rep = Cluster(f.compiled, 2).simulate(trace, {.custom_scheduler = affinity.get()});

  std::set<std::size_t> dies_of_a, dies_of_b;
  for (const RequestRecord& r : rep.requests) {
    (r.stream == 0 ? dies_of_a : dies_of_b).insert(r.die);
  }
  ASSERT_EQ(dies_of_a.size(), 1u);
  ASSERT_EQ(dies_of_b.size(), 1u);
  EXPECT_NE(*dies_of_a.begin(), *dies_of_b.begin());

  // Sanity contrast: shortest-queue has no reason to keep the graphs apart
  // on this trace (it balances by load, so some graph visits both dies).
  ServingReport mixed = Cluster(f.compiled, 2).simulate(
      trace, {.scheduler = SchedulerKind::kShortestQueue});
  std::set<std::pair<std::size_t, std::size_t>> stream_die;
  for (const RequestRecord& r : mixed.requests) stream_die.insert({r.stream, r.die});
  EXPECT_GT(stream_die.size(), 2u);
}

TEST(ServeCluster, ShortestQueueTieBreaksDeterministicallyByLowestIndex) {
  ServeFixture f;
  // Eight identical zero-gap requests on four dies: every dispatch decision
  // is a tie (equal in-flight counts), so the lowest-index rule must
  // produce exactly the round-robin sequence 0,1,2,3,0,1,2,3. slo-aware on
  // a deadline-free trace routes by earliest predicted completion, which
  // ties the same way (warmth disabled ⇒ every die prices the cold cost),
  // so it must match.
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 8, 0);
  for (SchedulerKind kind : {SchedulerKind::kShortestQueue, SchedulerKind::kSloAware}) {
    ServingReport rep = Cluster(f.compiled, 4).simulate(trace, {.scheduler = kind});
    ASSERT_EQ(rep.requests.size(), 8u);
    for (std::size_t i = 0; i < rep.requests.size(); ++i) {
      EXPECT_EQ(rep.requests[i].die, i % 4) << "scheduler " << rep.scheduler;
    }
  }
}

TEST(ServeCluster, AffinityRoutesTwoPlansOfOneGraphByFingerprint) {
  // Planning graph A again produces a *new* plan object with the same
  // structure fingerprint. Affinity must treat both plan objects of the
  // same graph as one graph (it routes on the fingerprint).
  ServeFixture f;
  GraphPlanPtr plan_a2 = f.compiled.plan(f.a.graph);
  ASSERT_NE(plan_a2.get(), f.plan_a.get()) << "plan() must build a fresh plan";
  ASSERT_EQ(plan_a2->fingerprint(), f.plan_a->fingerprint());

  RequestTrace trace = RequestTrace::fixed_interval(
      {f.stream_a(), f.stream_b(), {plan_a2, &f.a.features, 1.0}}, 30, 0);
  ServingReport rep = Cluster(f.compiled, 2).simulate(
      trace, {.scheduler = SchedulerKind::kGraphAffinity});

  std::set<std::size_t> dies_of_a, dies_of_b;
  for (const RequestRecord& r : rep.requests) {
    (r.stream == 1 ? dies_of_b : dies_of_a).insert(r.die);
  }
  // Streams 0 and 2 share a fingerprint: one die. Stream 1: the other.
  ASSERT_EQ(dies_of_a.size(), 1u);
  ASSERT_EQ(dies_of_b.size(), 1u);
  EXPECT_NE(*dies_of_a.begin(), *dies_of_b.begin());
}

TEST(ServeCluster, EmptyTraceYieldsEmptyReportUnderEveryScheduler) {
  ServeFixture f;
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 0, 100);
  for (SchedulerKind kind : serve::all_scheduler_kinds()) {
    ServingReport rep = Cluster(f.compiled, 2).simulate(trace, {.scheduler = kind});
    EXPECT_TRUE(rep.requests.empty()) << rep.scheduler;
    EXPECT_EQ(rep.makespan, 0u);
    EXPECT_EQ(rep.p99_latency_cycles(), 0u);
    EXPECT_DOUBLE_EQ(rep.warm_hit_rate(), 0.0);
  }
}

TEST(ServeCluster, SingleRequestIsServicedImmediatelyUnderEveryScheduler) {
  ServeFixture f;
  const Cycles service = f.compiled.cost({f.plan_a, &f.a.features}).total_cycles;
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 1, 100);
  for (SchedulerKind kind : serve::all_scheduler_kinds()) {
    ServingReport rep = Cluster(f.compiled, 3).simulate(trace, {.scheduler = kind});
    ASSERT_EQ(rep.requests.size(), 1u) << rep.scheduler;
    const RequestRecord& r = rep.requests[0];
    EXPECT_LT(r.die, 3u);
    EXPECT_EQ(r.start, r.arrival);  // an idle cluster services on arrival
    EXPECT_EQ(r.service_cycles(), service);
    EXPECT_EQ(rep.makespan, r.finish);
  }
}

TEST(ServeCluster, AffinityOverflowSpillsToLeastLoadedDie) {
  ServeFixture f;
  // More graphs than dies: the third stream must spill somewhere sensible
  // rather than throw. (Stream weights make all three appear.)
  Dataset c = generate_dataset(spec_of(DatasetId::kPubmed).scaled(0.01), 5);
  DatasetSpec cspec = c.spec;
  cspec.feature_length = f.a.spec.feature_length;
  SparseMatrix c_features = generate_features(cspec, 6);
  GraphPlanPtr plan_c = f.compiled.plan(c.graph);

  RequestTrace trace = RequestTrace::fixed_interval(
      {f.stream_a(), f.stream_b(), {plan_c, &c_features, 1.0}}, 30, 0);
  ServingReport rep = Cluster(f.compiled, 2).simulate(
      trace, {.scheduler = SchedulerKind::kGraphAffinity});
  ASSERT_EQ(rep.requests.size(), 30u);
  for (const RequestRecord& r : rep.requests) EXPECT_LT(r.die, 2u);
}

TEST(ServeCluster, ServiceCostsMatchStandaloneRuns) {
  ServeFixture f;
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a(), f.stream_b()}, 6, 1000);
  ServingReport rep = Cluster(f.compiled, 2).simulate(
      trace, {.scheduler = SchedulerKind::kShortestQueue});
  const Cycles cost_a = f.compiled.cost({f.plan_a, &f.a.features}).total_cycles;
  const Cycles cost_b = f.compiled.cost({f.plan_b, &f.b_features}).total_cycles;
  for (const RequestRecord& r : rep.requests) {
    EXPECT_EQ(r.service_cycles(), r.stream == 0 ? cost_a : cost_b);
    EXPECT_GE(r.start, r.arrival);  // no service before arrival
  }
}

/// GraphSAGE on a cluster: one compiled model and a plan binding freshly
/// sampled adjacencies — a plan no re-plan of the graph can reproduce.
struct SageServe {
  test::ModelFixture workload{GnnKind::kGraphSage, 0.08};
  CompiledModel compiled =
      Engine(EngineConfig::paper_default(false)).compile(workload.model, workload.weights);
  GraphPlanPtr plan = compiled.plan(workload.data.graph, workload.sampled);

  TraceStream stream() const { return {plan, &workload.data.features, 1.0}; }
};

TEST(ServeCluster, HomogeneousClusterServesSampledGraphSagePlans) {
  SageServe f;
  const Cycles service = f.compiled.cost({f.plan, &f.workload.data.features}).total_cycles;
  const RequestTrace trace = RequestTrace::fixed_interval({f.stream()}, 6, service / 3);
  const ServingReport rep =
      Cluster(f.compiled, 2).simulate(trace, {.scheduler = SchedulerKind::kShortestQueue});
  ASSERT_EQ(rep.requests.size(), 6u);
  for (const RequestRecord& r : rep.requests) EXPECT_EQ(r.service_cycles(), service);
}

TEST(ServeCluster, FleetSpecClusterRejectsSampledGraphSagePlans) {
  // A fleet re-plans each request's graph per die config; sampling is fresh
  // per plan() call, so a sampled plan cannot be re-planned and is refused.
  SageServe f;
  const Cluster fleet(f.compiled, serve::FleetSpec::homogeneous(f.compiled.config(), 2));
  const RequestTrace trace = RequestTrace::fixed_interval({f.stream()}, 2, 0);
  EXPECT_THROW(fleet.simulate(trace), std::invalid_argument);
}

TEST(ServeReport, RollupMathIsExact) {
  ServingReport rep;
  rep.dies = 2;
  rep.die_busy_cycles = {60, 20};
  rep.makespan = 100;
  // Four requests: latencies 10, 20, 30, 40; queueing 0, 5, 10, 15.
  for (std::size_t i = 0; i < 4; ++i) {
    RequestRecord r;
    r.arrival = i * 10;
    r.start = r.arrival + i * 5;
    r.finish = r.arrival + (i + 1) * 10;
    r.die = i % 2;
    rep.requests.push_back(r);
  }
  EXPECT_EQ(rep.latency_percentile(25.0), 10u);
  EXPECT_EQ(rep.p50_latency_cycles(), 20u);
  EXPECT_EQ(rep.latency_percentile(75.0), 30u);
  EXPECT_EQ(rep.p95_latency_cycles(), 40u);
  EXPECT_EQ(rep.p99_latency_cycles(), 40u);
  EXPECT_EQ(rep.max_latency_cycles(), 40u);
  EXPECT_DOUBLE_EQ(rep.mean_queue_depth(), (0.0 + 5.0 + 10.0 + 15.0) / 100.0);
  EXPECT_DOUBLE_EQ(rep.die_utilization(0), 0.6);
  EXPECT_DOUBLE_EQ(rep.die_utilization(1), 0.2);
  EXPECT_DOUBLE_EQ(rep.throughput_per_second(), 4.0 / (100.0 / kClockHz));
  EXPECT_THROW(rep.latency_percentile(0.0), std::invalid_argument);
  EXPECT_THROW(rep.die_utilization(2), std::invalid_argument);

  ServingReport empty;
  EXPECT_EQ(empty.p99_latency_cycles(), 0u);
  EXPECT_DOUBLE_EQ(empty.mean_queue_depth(), 0.0);
  EXPECT_DOUBLE_EQ(empty.throughput_per_second(), 0.0);
}

/// A report with one served record per latency (arrival 0; every third
/// one warm), and a shed record after every fifth: shed records have no
/// latency, so their 1-cycle span must never reach a sample.
ServingReport report_with_latencies(const std::vector<Cycles>& latencies) {
  ServingReport rep;
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    RequestRecord r;
    r.start = r.finish = latencies[i];
    r.warm_fraction = i % 3 == 0 ? 0.5 : 0.0;
    rep.requests.push_back(r);
    if (i % 5 == 0) {
      RequestRecord shed;
      shed.shed = true;
      shed.start = shed.finish = 1;
      rep.requests.push_back(shed);
    }
  }
  return rep;
}

/// sorted_latencies() and every class percentile equal std::sort's answer.
void expect_sorted_like_std_sort(const ServingReport& rep) {
  std::vector<Cycles> all;
  std::vector<Cycles> warm;
  std::vector<Cycles> cold;
  for (const RequestRecord& r : rep.requests) {
    if (r.shed) continue;
    all.push_back(r.latency_cycles());
    (r.warm_hit() ? warm : cold).push_back(r.latency_cycles());
  }
  for (std::vector<Cycles>* v : {&all, &warm, &cold}) std::sort(v->begin(), v->end());
  EXPECT_EQ(rep.sorted_latencies(), all);
  for (const double pct : {0.1, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(rep.latency_percentile(pct), percentile_of_sorted(all, pct)) << pct;
    EXPECT_EQ(rep.warm_latency_percentile(pct), percentile_of_sorted(warm, pct)) << pct;
    EXPECT_EQ(rep.cold_latency_percentile(pct), percentile_of_sorted(cold, pct)) << pct;
  }
}

TEST(ServeReport, LatencySortsMatchStdSort) {
  // Integer sorting has one answer, whatever the algorithm: the radix sort
  // behind the rollups must give std::sort's on every shape of sample.
  constexpr Cycles kMax = std::numeric_limits<Cycles>::max();
  constexpr Cycles k2To56 = Cycles{1} << 56;
  Rng rng(17);
  auto draw = [](std::size_t n, auto value) {
    std::vector<Cycles> v(n);
    for (Cycles& x : v) x = value();
    return v;
  };
  auto below = [&rng](Cycles bound) { return [&rng, bound] { return rng.next_below(bound); }; };

  expect_sorted_like_std_sort(report_with_latencies({}));
  expect_sorted_like_std_sort(report_with_latencies({42}));
  ServingReport all_shed;
  for (Cycles t = 0; t < 300; ++t) {
    RequestRecord r;
    r.arrival = t;
    r.start = r.finish = t + 5;
    r.shed = true;
    all_shed.requests.push_back(r);
  }
  expect_sorted_like_std_sort(all_shed);
  EXPECT_TRUE(all_shed.sorted_latencies().empty());
  // Each warmth class is sorted on its own (every third latency is warm):
  // 2, 3 and 5 latencies give classes of one, two and three keys.
  for (const std::size_t n : {2u, 3u, 5u, 100u, 5000u}) {
    SCOPED_TRACE(n);
    expect_sorted_like_std_sort(report_with_latencies(draw(n, [] { return Cycles{777}; })));
    expect_sorted_like_std_sort(report_with_latencies(draw(n, below(50))));  // duplicates
    expect_sorted_like_std_sort(report_with_latencies(draw(n, below(1'000'000))));
    expect_sorted_like_std_sort(report_with_latencies(draw(n, [&rng] { return rng.next_u64(); })));
    // A shared low byte: every latency a multiple of 256.
    expect_sorted_like_std_sort(
        report_with_latencies(draw(n, [&rng] { return rng.next_below(1 << 20) << 8; })));
    // At or above 2^56, up to the Cycles maximum, beside small values.
    expect_sorted_like_std_sort(report_with_latencies(draw(n, [&rng] {
      switch (rng.next_below(4)) {
        case 0: return kMax - rng.next_below(3);
        case 1: return k2To56 + rng.next_below(k2To56);
        case 2: return k2To56;
        default: return rng.next_below(1000);
      }
    })));
  }
}

TEST(ServeCluster, EmptyTraceYieldsEmptyReport) {
  ServeFixture f;
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 0, 100);
  ServingReport rep = Cluster(f.compiled, 2).simulate(trace, {.scheduler = SchedulerKind::kFifo});
  EXPECT_TRUE(rep.requests.empty());
  EXPECT_EQ(rep.makespan, 0u);
  EXPECT_EQ(rep.dies, 2u);
}

TEST(ServeCluster, RejectsZeroDies) {
  ServeFixture f;
  EXPECT_THROW(Cluster(f.compiled, 0), std::invalid_argument);
}

}  // namespace
}  // namespace gnnie
