// Tests for the heterogeneous fleet + SLO subsystem: FleetSpec construction
// and validation, per-die service costs on mixed-design clusters, deadline
// traces (stamping, zero-slack, no-SLO streams, negative rejection),
// admission policies (admit-all bit-exactness, shed-hopeless), the
// slack-aware scheduler's attainment win at the queueing knee, and the
// empty-sample percentile behavior shedding exposes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <span>

#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "nn/layers.hpp"
#include "serve/cluster.hpp"
#include "serve/fleet.hpp"
#include "serve/slo.hpp"
#include "serve_test_util.hpp"

namespace gnnie {
namespace {

using serve::AdmissionKind;
using serve::AdmissionPolicy;
using serve::Cluster;
using serve::FleetSpec;
using serve::RequestTrace;
using serve::Scheduler;
using serve::SchedulerKind;
using serve::TraceStream;
using test::ServeFixture;  // the two-tenant serving setup (serve_test_util.hpp)

// --- FleetSpec ---

TEST(FleetSpec, FromDesignsSharesConfigsAndPricesByMacCount) {
  FleetSpec spec = FleetSpec::from_designs("EEAA");
  ASSERT_EQ(spec.die_count(), 4u);
  ASSERT_EQ(spec.configs.size(), 2u);  // equal letters share one config
  EXPECT_EQ(spec.assignment, (std::vector<std::size_t>{0, 0, 1, 1}));
  EXPECT_EQ(spec.configs[0].label, "E");
  EXPECT_EQ(spec.configs[1].label, "A");
  // MAC-relative costs: A (1024 MACs) is the unit; E has 1216.
  EXPECT_DOUBLE_EQ(spec.configs[1].cost, 1.0);
  EXPECT_DOUBLE_EQ(spec.configs[0].cost, 1216.0 / 1024.0);
  EXPECT_DOUBLE_EQ(spec.total_cost(), 2.0 * (1216.0 / 1024.0) + 2.0);
  EXPECT_EQ(spec.mix_label(), "EEAA");
  spec.validate();
}

TEST(FleetSpec, HomogeneousLabelsFromTheArrayDesign) {
  FleetSpec spec = FleetSpec::homogeneous(EngineConfig::paper_default(false), 3);
  EXPECT_EQ(spec.die_count(), 3u);
  EXPECT_EQ(spec.configs.size(), 1u);
  EXPECT_EQ(spec.configs[0].label, "E");  // paper default is design E
  EXPECT_DOUBLE_EQ(spec.total_cost(), 3.0);
  spec.validate();
}

TEST(FleetSpec, ValidatesShapeAndRejectsBadDesignLetters) {
  EXPECT_THROW(FleetSpec{}.validate(), std::invalid_argument);
  FleetSpec no_dies;
  no_dies.configs.push_back({EngineConfig::paper_default(false), 1.0, "E"});
  EXPECT_THROW(no_dies.validate(), std::invalid_argument);
  FleetSpec dangling = FleetSpec::homogeneous(EngineConfig::paper_default(false), 2);
  dangling.assignment.push_back(7);  // no such config
  EXPECT_THROW(dangling.validate(), std::invalid_argument);
  FleetSpec negative_cost = FleetSpec::homogeneous(EngineConfig::paper_default(false), 2);
  negative_cost.configs[0].cost = -1.0;
  EXPECT_THROW(negative_cost.validate(), std::invalid_argument);
  FleetSpec infinite_cost = FleetSpec::homogeneous(EngineConfig::paper_default(false), 2);
  infinite_cost.configs[0].cost = std::numeric_limits<double>::infinity();
  EXPECT_THROW(infinite_cost.validate(), std::invalid_argument);
  EXPECT_THROW(FleetSpec::from_designs(""), std::invalid_argument);
  EXPECT_THROW(FleetSpec::from_designs("AXB"), std::invalid_argument);
  EXPECT_THROW(FleetSpec::homogeneous(EngineConfig::paper_default(false), 0),
               std::invalid_argument);
}

// --- The fleet cluster ---

TEST(FleetCluster, HomogeneousFleetSpecIsBitExactWithThePlainCluster) {
  // The fleet constructor compiles its own per-config model; over the
  // reference config that compile is deterministic, so every record must
  // match the fleet-unaware cluster exactly.
  ServeFixture f;
  FleetSpec spec = FleetSpec::homogeneous(EngineConfig::paper_default(false), 3);
  Cluster plain(f.compiled, 3);
  Cluster fleet(f.compiled, spec);
  EXPECT_FALSE(fleet.heterogeneous());
  RequestTrace trace =
      RequestTrace::poisson({f.stream_a(), f.stream_b()}, 60, 2000.0, /*seed=*/11);
  for (SchedulerKind kind : serve::all_scheduler_kinds()) {
    ServingReport a = plain.simulate(trace, {.scheduler = kind});
    ServingReport b = fleet.simulate(trace, {.scheduler = kind});
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      EXPECT_EQ(a.requests[i].die, b.requests[i].die) << a.scheduler;
      EXPECT_EQ(a.requests[i].start, b.requests[i].start) << a.scheduler;
      EXPECT_EQ(a.requests[i].finish, b.requests[i].finish) << a.scheduler;
    }
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.die_busy_cycles, b.die_busy_cycles);
  }
}

TEST(FleetCluster, HeterogeneousServiceCostsMatchPerConfigRuns) {
  // Each die charges the cost its own design would report: a record on an
  // A die must equal the cost query of an A-configured compile of the same
  // (model, weights, graph, features) — not the reference E cost.
  ServeFixture f;
  Cluster fleet(f.compiled, FleetSpec::from_designs("EA"));
  EXPECT_TRUE(fleet.heterogeneous());
  EXPECT_DOUBLE_EQ(fleet.fleet_cost(), 1216.0 / 1024.0 + 1.0);

  CompiledModel on_a = Engine(EngineConfig::design_point('A', false))
                           .compile(f.compiled.model(), f.compiled.weights());
  CompiledModel on_e = Engine(EngineConfig::design_point('E', false))
                           .compile(f.compiled.model(), f.compiled.weights());
  const Cycles cost_a_die_a =
      on_a.cost({on_a.plan(f.a.graph), &f.a.features}).total_cycles;
  const Cycles cost_a_die_e =
      on_e.cost({on_e.plan(f.a.graph), &f.a.features}).total_cycles;
  ASSERT_NE(cost_a_die_a, cost_a_die_e) << "designs A and E must price differently";

  // Spaced arrivals so both dies serve stream-a requests without queueing.
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 8, 0);
  ServingReport rep = fleet.simulate(trace, {.scheduler = SchedulerKind::kShortestQueue});
  EXPECT_EQ(rep.die_labels, (std::vector<std::string>{"E", "A"}));
  std::set<std::size_t> dies_used;
  for (const RequestRecord& r : rep.requests) {
    dies_used.insert(r.die);
    EXPECT_EQ(r.service_cycles(), r.die == 0 ? cost_a_die_e : cost_a_die_a);
  }
  EXPECT_EQ(dies_used.size(), 2u);
}

TEST(FleetCluster, RejectsMismatchedServingKnobsAndSampledPlans) {
  ServeFixture f;
  FleetSpec warm = FleetSpec::homogeneous(EngineConfig::paper_default(false), 2);
  warm.configs[0].engine.warmth.enabled = true;  // reference has warmth off
  EXPECT_THROW(Cluster(f.compiled, warm), std::invalid_argument);
  FleetSpec batched = FleetSpec::homogeneous(EngineConfig::paper_default(false), 2);
  batched.configs[0].engine.batching.max_coalesce = 4;
  EXPECT_THROW(Cluster(f.compiled, batched), std::invalid_argument);
}

// --- Deadline traces ---

TEST(SloTrace, DeadlinesAreStampedAbsolutePerArrival) {
  ServeFixture f;
  TraceStream tight = f.stream_a();
  tight.slo_cycles = 5000;
  TraceStream no_slo = f.stream_b();  // slo_cycles stays 0
  RequestTrace trace = RequestTrace::fixed_interval({tight, no_slo}, 6, 100);
  for (const auto& r : trace.requests()) {
    if (r.stream == 0) {
      EXPECT_EQ(r.deadline, r.arrival + 5000);
      EXPECT_TRUE(r.has_slo());
    } else {
      EXPECT_EQ(r.deadline, 0u);  // 0 = no SLO for this request
      EXPECT_FALSE(r.has_slo());
    }
  }
}

TEST(SloTrace, SloCyclesZeroMeansNoSloEverywhere) {
  ServeFixture f;
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 4, 100);
  for (const auto& r : trace.requests()) EXPECT_FALSE(r.has_slo());
  ServingReport rep = Cluster(f.compiled, 1).simulate(trace, {.scheduler = SchedulerKind::kFifo});
  EXPECT_EQ(rep.slo_request_count(), 0u);
  EXPECT_EQ(rep.shed_count(), 0u);
  EXPECT_DOUBLE_EQ(rep.slo_attainment(), 1.0);  // vacuously met
}

TEST(SloTrace, NegativeSloIsRejectedByAllThreeConstructors) {
  ServeFixture f;
  TraceStream negative = f.stream_a();
  negative.slo_cycles = -1;
  EXPECT_THROW(RequestTrace::fixed_interval({negative}, 4, 100), std::invalid_argument);
  EXPECT_THROW(RequestTrace::poisson({negative}, 4, 100.0, 1), std::invalid_argument);
  EXPECT_THROW(RequestTrace::bursty({negative}, 4, 100.0, 10.0, 5.0, 5.0, 1),
               std::invalid_argument);
  // Hiding among valid streams does not help.
  EXPECT_THROW(RequestTrace::poisson({f.stream_a(), negative}, 4, 100.0, 1),
               std::invalid_argument);
}

TEST(SloCluster, ZeroSlackDeadlineIsMetOnAnIdleCluster) {
  // A deadline of exactly the service time leaves zero slack: the request
  // finishes at its deadline and finish <= deadline must count as met —
  // under every scheduler, and shed-hopeless must not shed it.
  ServeFixture f;
  const Cycles service = f.compiled.cost({f.plan_a, &f.a.features}).total_cycles;
  TraceStream exact = f.stream_a();
  exact.slo_cycles = static_cast<std::int64_t>(service);
  RequestTrace trace = RequestTrace::fixed_interval({exact}, 1, 100);
  auto shed = AdmissionPolicy::make(AdmissionKind::kShedHopeless);
  for (SchedulerKind kind : serve::all_scheduler_kinds()) {
    ServingReport rep = Cluster(f.compiled, 2).simulate(
        trace, {.scheduler = kind, .custom_admission = shed.get()});
    ASSERT_EQ(rep.requests.size(), 1u) << rep.scheduler;
    EXPECT_FALSE(rep.requests[0].shed) << rep.scheduler;
    EXPECT_EQ(rep.requests[0].finish, rep.requests[0].deadline) << rep.scheduler;
    EXPECT_EQ(rep.slo_met_count(), 1u) << rep.scheduler;
    EXPECT_DOUBLE_EQ(rep.slo_attainment(), 1.0) << rep.scheduler;
  }
}

// --- Admission ---

TEST(SloCluster, AdmitAllOverloadIsBitExactWithTheTwoArgSimulate) {
  ServeFixture f;
  TraceStream tight = f.stream_a();
  tight.slo_cycles = 1;  // hopeless, but admit-all must not care
  RequestTrace trace =
      RequestTrace::poisson({tight, f.stream_b()}, 50, 2000.0, /*seed=*/7);
  Cluster cluster(f.compiled, 2);
  for (SchedulerKind kind : serve::all_scheduler_kinds()) {
    ServingReport a = cluster.simulate(trace, {.scheduler = kind});
    ServingReport b = cluster.simulate(
        trace, {.scheduler = kind, .custom_admission = &AdmissionPolicy::admit_all()});
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      EXPECT_EQ(a.requests[i].die, b.requests[i].die) << a.scheduler;
      EXPECT_EQ(a.requests[i].start, b.requests[i].start) << a.scheduler;
      EXPECT_EQ(a.requests[i].finish, b.requests[i].finish) << a.scheduler;
      EXPECT_FALSE(b.requests[i].shed);
    }
    EXPECT_EQ(a.makespan, b.makespan);
  }
}

TEST(SloCluster, DeadlinesDoNotPerturbDeadlineBlindSchedulers) {
  // Under admit-all, stamping SLOs onto a trace must not change what FIFO /
  // shortest-queue / graph-affinity do — deadlines only add accounting.
  // (The slo-aware scheduler is deadline-driven by design.)
  ServeFixture f;
  TraceStream with_slo = f.stream_a();
  with_slo.slo_cycles = 100000;
  RequestTrace plain_trace =
      RequestTrace::poisson({f.stream_a(), f.stream_b()}, 50, 2000.0, /*seed=*/13);
  RequestTrace slo_trace =
      RequestTrace::poisson({with_slo, f.stream_b()}, 50, 2000.0, /*seed=*/13);
  Cluster cluster(f.compiled, 3);
  for (SchedulerKind kind :
       {SchedulerKind::kFifo, SchedulerKind::kShortestQueue, SchedulerKind::kGraphAffinity}) {
    ServingReport a = cluster.simulate(plain_trace, {.scheduler = kind});
    ServingReport b = cluster.simulate(slo_trace, {.scheduler = kind});
    EXPECT_EQ(a.slo_request_count(), 0u);
    EXPECT_GT(b.slo_request_count(), 0u);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      EXPECT_EQ(a.requests[i].die, b.requests[i].die) << a.scheduler;
      EXPECT_EQ(a.requests[i].start, b.requests[i].start) << a.scheduler;
      EXPECT_EQ(a.requests[i].finish, b.requests[i].finish) << a.scheduler;
    }
  }
}

TEST(SloCluster, ShedHopelessDropsOnlyDoomedRequests) {
  // slo_cycles = 1: no die can ever finish in one cycle, so every stream-a
  // request is hopeless and must be shed at its first offer; the no-SLO
  // stream must never be shed.
  ServeFixture f;
  TraceStream doomed = f.stream_a();
  doomed.slo_cycles = 1;
  RequestTrace trace =
      RequestTrace::poisson({doomed, f.stream_b()}, 40, 2000.0, /*seed=*/5);
  auto shed = AdmissionPolicy::make(AdmissionKind::kShedHopeless);
  ServingReport rep = Cluster(f.compiled, 2).simulate(
      trace, {.scheduler = SchedulerKind::kShortestQueue, .custom_admission = shed.get()});
  std::size_t doomed_count = 0;
  for (const RequestRecord& r : rep.requests) {
    if (r.stream == 0) {
      ++doomed_count;
      EXPECT_TRUE(r.shed);
      EXPECT_EQ(r.start, r.finish);       // no service
      EXPECT_GE(r.start, r.arrival);      // shed at an offer, never before
      EXPECT_FALSE(r.slo_met());
    } else {
      EXPECT_FALSE(r.shed);  // no deadline — never sheddable
    }
  }
  ASSERT_GT(doomed_count, 0u);
  EXPECT_EQ(rep.shed_count(), doomed_count);
  EXPECT_EQ(rep.completed_count(), rep.requests.size() - doomed_count);
  EXPECT_DOUBLE_EQ(rep.slo_attainment(), 0.0);
  EXPECT_DOUBLE_EQ(rep.stream_slo_attainment(0), 0.0);  // shed = missed
  EXPECT_DOUBLE_EQ(rep.stream_slo_attainment(1), 1.0);  // vacuous: no SLOs
}

TEST(SloCluster, SheddingEverythingLeavesZeroPercentilesNotACrash) {
  // The empty-sample edge: shedding can empty the completed set (or a whole
  // warm/cold class), and every percentile accessor must return 0 instead
  // of indexing an empty vector.
  ServeFixture f;
  TraceStream doomed = f.stream_a();
  doomed.slo_cycles = 1;
  RequestTrace trace = RequestTrace::poisson({doomed}, 20, 2000.0, /*seed=*/3);
  auto shed = AdmissionPolicy::make(AdmissionKind::kShedHopeless);
  ServingReport rep = Cluster(f.compiled, 2).simulate(
      trace, {.scheduler = SchedulerKind::kFifo, .custom_admission = shed.get()});
  EXPECT_EQ(rep.shed_count(), rep.requests.size());
  EXPECT_EQ(rep.completed_count(), 0u);
  EXPECT_EQ(rep.p50_latency_cycles(), 0u);
  EXPECT_EQ(rep.p99_latency_cycles(), 0u);
  EXPECT_EQ(rep.max_latency_cycles(), 0u);
  EXPECT_EQ(rep.warm_latency_percentile(99.0), 0u);
  EXPECT_EQ(rep.cold_latency_percentile(99.0), 0u);
  EXPECT_DOUBLE_EQ(rep.throughput_per_second(), 0.0);
  EXPECT_DOUBLE_EQ(rep.warm_hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(rep.mean_batch_size(), 0.0);
  EXPECT_DOUBLE_EQ(rep.slo_attainment(), 0.0);
}

// --- The slack-aware scheduler ---

TEST(SloScheduler, FallsBackToEarliestCompletionWithoutDeadlines) {
  // On an SLO-less trace the slo-aware scheduler is pure predicted-
  // completion load balancing: it routes exactly like a scheduler that
  // drains each die's remaining service and backlog, adds the request's
  // estimate_die_service, and takes the earliest finish, lowest index on
  // ties — with the warmth model off and on.
  struct EarliestCompletion final : Scheduler {
    SchedulerKind kind() const override { return SchedulerKind::kSloAware; }
    std::size_t pick(const serve::TracedRequest&,
                     std::span<const serve::RequestEstimate> estimates,
                     std::span<const serve::DieStatus> dies, Cycles now) const override {
      std::size_t best = 0;
      Cycles best_finish = std::numeric_limits<Cycles>::max();
      for (std::size_t d = 0; d < dies.size(); ++d) {
        const Cycles drained =
            (dies[d].busy && dies[d].busy_until > now ? dies[d].busy_until : now) +
            dies[d].queued_cycles_estimate;
        const Cycles finish = drained + serve::estimate_die_service(dies[d], estimates[d]);
        if (finish < best_finish) {
          best_finish = finish;
          best = d;
        }
      }
      return best;
    }
  } earliest;
  EngineConfig warm = EngineConfig::paper_default(false);
  warm.warmth.enabled = true;
  warm.warmth.die_budget_bytes = 48 << 10;  // holds one fixture plan
  for (const EngineConfig& config : {EngineConfig::paper_default(false), warm}) {
    ServeFixture f(config);
    RequestTrace trace =
        RequestTrace::poisson({f.stream_a(), f.stream_b()}, 60, 1500.0, /*seed=*/21);
    Cluster cluster(f.compiled, 3);
    ServingReport want = cluster.simulate(trace, {.custom_scheduler = &earliest});
    ServingReport slo = cluster.simulate(trace, {.scheduler = SchedulerKind::kSloAware});
    ASSERT_EQ(want.requests.size(), slo.requests.size());
    for (std::size_t i = 0; i < want.requests.size(); ++i) {
      EXPECT_EQ(want.requests[i].die, slo.requests[i].die);
      EXPECT_EQ(want.requests[i].start, slo.requests[i].start);
      EXPECT_EQ(want.requests[i].finish, slo.requests[i].finish);
    }
  }
}

// The ISSUE acceptance criterion: on a 4-die heterogeneous fleet with a 4:1
// two-stream deadline trace at the queueing knee, slack-aware routing
// strictly improves SLO attainment over FIFO and shortest-queue.
TEST(SloScheduler, BeatsFifoAndShortestQueueAtTheKneeOnAHeterogeneousFleet) {
  ServeFixture f;
  // On this workload the flexible-MAC E design is *slower* per request than
  // the uniform A design (its binning overhead dominates the tiny graphs), so
  // the EEAA fleet has two slow dies and two fast ones.
  Cluster fleet(f.compiled, FleetSpec::from_designs("EEAA"));

  // Per-die costs of the tight stream, to place the deadline strictly between
  // the fast-die and slow-die service times: tight requests can only ever be
  // met on an A die, and only a deadline-aware scheduler knows that.
  CompiledModel on_a = Engine(EngineConfig::design_point('A', false))
                           .compile(f.compiled.model(), f.compiled.weights());
  CompiledModel on_e = Engine(EngineConfig::design_point('E', false))
                           .compile(f.compiled.model(), f.compiled.weights());
  const Cycles cost_fast =
      on_a.cost({on_a.plan(f.a.graph), &f.a.features}).total_cycles;
  const Cycles cost_slow =
      on_e.cost({on_e.plan(f.a.graph), &f.a.features}).total_cycles;
  ASSERT_LT(cost_fast, cost_slow);

  TraceStream tight = f.stream_a();
  tight.weight = 4.0;
  tight.slo_cycles = static_cast<std::int64_t>((cost_fast + cost_slow) / 2);
  TraceStream loose = f.stream_b();
  loose.weight = 1.0;
  loose.slo_cycles = static_cast<std::int64_t>(8 * cost_slow);

  // Offered load around the queueing knee for this fleet: a mean gap of about
  // half the fast-die service time keeps queues short enough that routing
  // still matters, but long enough that deadline-blind schedulers strand
  // tight requests behind slow dies.
  RequestTrace trace = RequestTrace::poisson(
      {tight, loose}, 160, static_cast<double>(cost_fast) / 1.8, /*seed=*/2);

  auto attainment_of = [&](SchedulerKind kind) {
    ServingReport rep = fleet.simulate(trace, {.scheduler = kind});
    return rep.slo_attainment();
  };
  const double slo_aware = attainment_of(SchedulerKind::kSloAware);
  const double fifo = attainment_of(SchedulerKind::kFifo);
  const double shortest = attainment_of(SchedulerKind::kShortestQueue);
  EXPECT_GT(slo_aware, fifo);
  EXPECT_GT(slo_aware, shortest);
}

// --- mean_queue_depth must ignore shed requests. ---

TEST(ServeReport, MeanQueueDepthExcludesShedRecords) {
  // A shed record's start is stamped at the shed time, so its queue_cycles
  // span [arrival, shed] — time spent being DROPPED, not queued for
  // service. Only the served request's 30 waiting cycles may count.
  ServingReport rep;
  rep.dies = 1;
  rep.makespan = 100;
  RequestRecord served;
  served.arrival = 0;
  served.start = 30;
  served.finish = 100;
  RequestRecord shed;
  shed.arrival = 10;
  shed.start = 90;  // waited 80 cycles in the global queue, then was shed
  shed.finish = 90;
  shed.shed = true;
  rep.requests = {served, shed};
  EXPECT_DOUBLE_EQ(rep.mean_queue_depth(), 30.0 / 100.0);
}

TEST(SloCluster, ShedHeavyTraceDoesNotInflateMeanQueueDepth) {
  // Shed-heavy overload: a tight-SLO stream under FIFO (every arrival to a
  // busy cluster defers, so late re-offers go hopeless and shed after real
  // queueing time). The reported mean queue depth must integrate served
  // requests only — exactly sorted_latencies()'s exclusion rule.
  ServeFixture f;
  const Cycles cost_a =
      f.compiled.cost(RunRequest{f.plan_a, &f.a.features}).total_cycles;
  TraceStream tight = f.stream_a();
  tight.slo_cycles = static_cast<std::int64_t>(3 * cost_a / 2);
  RequestTrace trace =
      RequestTrace::poisson({tight, f.stream_b()}, 60,
                            static_cast<double>(cost_a) / 6.0, /*seed=*/7);
  auto shed = AdmissionPolicy::make(AdmissionKind::kShedHopeless);
  const ServingReport rep = Cluster(f.compiled, 2).simulate(
      trace, {.scheduler = SchedulerKind::kFifo, .custom_admission = shed.get()});

  double served_integral = 0.0;
  double shed_integral = 0.0;
  std::size_t sheds = 0;
  for (const RequestRecord& r : rep.requests) {
    (r.shed ? shed_integral : served_integral) +=
        static_cast<double>(r.queue_cycles());
    sheds += r.shed ? 1 : 0;
  }
  ASSERT_GT(sheds, 0u);
  ASSERT_GT(shed_integral, 0.0);  // sheds happened after genuine waiting
  EXPECT_DOUBLE_EQ(rep.mean_queue_depth(),
                   served_integral / static_cast<double>(rep.makespan));
  // The buggy all-records integral would have reported a deeper queue.
  EXPECT_LT(rep.mean_queue_depth(),
            (served_integral + shed_integral) / static_cast<double>(rep.makespan));
}

}  // namespace
}  // namespace gnnie
