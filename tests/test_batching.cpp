// Tests for die-level same-plan coalescing (EngineConfig::batching):
// argument validation of CompiledModel::cost and ServiceCost::warm_total,
// the coalescing cluster (group atomicity, slot charges pinned against hand
// arithmetic on the one-request cost surface, slots keyed by plan rather
// than features, the acceptance criterion that max_coalesce = 8 strictly
// improves p99 and makespan over serial service on a single-graph Poisson
// trace at 4 dies), interaction with cache warmth (one residency touch per
// slot), coalescing across two plans of one graph, and the earliest-
// completion routing's head-of-line plan preference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "nn/layers.hpp"
#include "serve/cluster.hpp"
#include "serve_test_util.hpp"

namespace gnnie {
namespace {

using serve::Cluster;
using serve::DieStatus;
using serve::RequestEstimate;
using serve::RequestTrace;
using serve::Scheduler;
using serve::SchedulerKind;
using serve::TracedRequest;
using test::ServeFixture;

EngineConfig coalescing_config(std::uint32_t max_coalesce) {
  EngineConfig config = EngineConfig::paper_default(false);
  config.batching.max_coalesce = max_coalesce;
  return config;
}

// --- The one-request cost query. ---

TEST(RunCostBatch, ValidatesItsArguments) {
  ServeFixture f;
  const ServiceCost a = f.compiled.cost({f.plan_a, &f.a.features});
  EXPECT_THROW(a.warm_total(-0.1), std::invalid_argument);
  EXPECT_THROW(a.warm_total(1.1), std::invalid_argument);
  const RunRequest no_plan{nullptr, &f.a.features};
  EXPECT_THROW(f.compiled.cost(no_plan), std::invalid_argument);
}

// --- The coalescing cluster. ---

TEST(BatchingCluster, DisabledCoalescingReportsOnlySingletonSlots) {
  ServeFixture f;  // default config: max_coalesce = 1
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a(), f.stream_b()}, 12, 0);
  ServingReport rep = Cluster(f.compiled, 2).simulate(
      trace, {.scheduler = SchedulerKind::kShortestQueue});
  EXPECT_EQ(rep.max_coalesce, 1u);
  for (const RequestRecord& r : rep.requests) EXPECT_EQ(r.group_size, 1u);
  ASSERT_EQ(rep.batch_size_counts.size(), 1u);
  EXPECT_EQ(rep.batch_size_counts[0], 12u);
  EXPECT_EQ(rep.total_groups(), 12u);
  EXPECT_DOUBLE_EQ(rep.coalesce_rate(), 0.0);
  EXPECT_DOUBLE_EQ(rep.mean_batch_size(), 1.0);
  EXPECT_EQ(rep.weighting_cycles_saved, 0u);
}

// The ISSUE acceptance criterion: max_coalesce = 8 on a single-graph
// Poisson trace at 4 dies strictly improves p99 latency and makespan over
// serial service, and no request is ever charged more than its serial cost.
TEST(BatchingCluster, CoalescingStrictlyImprovesTailLatencyAndMakespan) {
  ServeFixture serial_f(coalescing_config(1));
  ServeFixture batched_f(coalescing_config(8));
  // Identical datasets/weights per fixture (seeded), so the two compiled
  // models price every request identically; only coalescing differs.
  const Cycles service =
      serial_f.compiled.cost({serial_f.plan_a, &serial_f.a.features}).total_cycles;
  ASSERT_EQ(service,
            batched_f.compiled.cost({batched_f.plan_a, &batched_f.a.features})
                .total_cycles);
  // Offered load 1.5x the 4-die capacity: queues build, so slots coalesce.
  const double mean_gap = static_cast<double>(service) / 6.0;
  RequestTrace serial_trace =
      RequestTrace::poisson({serial_f.stream_a()}, 60, mean_gap, /*seed=*/11);
  RequestTrace batched_trace =
      RequestTrace::poisson({batched_f.stream_a()}, 60, mean_gap, /*seed=*/11);

  ServingReport serial = Cluster(serial_f.compiled, 4).simulate(
      serial_trace, {.scheduler = SchedulerKind::kShortestQueue});
  ServingReport batched = Cluster(batched_f.compiled, 4).simulate(
      batched_trace, {.scheduler = SchedulerKind::kShortestQueue});

  EXPECT_LT(batched.p99_latency_cycles(), serial.p99_latency_cycles());
  EXPECT_LT(batched.makespan, serial.makespan);
  EXPECT_GT(batched.coalesce_rate(), 0.0);
  EXPECT_GT(batched.weighting_cycles_saved, 0u);
  EXPECT_EQ(batched.max_coalesce, 8u);
  // Property: no coalesced request is charged more than serial service,
  // and group sizes respect the cap.
  for (const RequestRecord& r : batched.requests) {
    EXPECT_LE(r.service_cycles(), service);
    EXPECT_GE(r.group_size, 1u);
    EXPECT_LE(r.group_size, 8u);
  }
}

TEST(BatchingCluster, GroupsAreAtomicContiguousAndAccountedExactly) {
  ServeFixture f(coalescing_config(4));
  const Cycles service = f.compiled.cost({f.plan_a, &f.a.features}).total_cycles;
  RequestTrace trace = RequestTrace::poisson(
      {f.stream_a(), f.stream_b()}, 50, static_cast<double>(service) / 5.0, /*seed=*/3);
  ServingReport rep = Cluster(f.compiled, 2).simulate(
      trace, {.scheduler = SchedulerKind::kShortestQueue});

  // The histogram accounts for every request exactly once.
  std::uint64_t histogram_requests = 0;
  for (std::size_t b = 0; b < rep.batch_size_counts.size(); ++b) {
    EXPECT_LE(b + 1, 4u);  // cap respected
    histogram_requests += rep.batch_size_counts[b] * (b + 1);
  }
  EXPECT_EQ(histogram_requests, rep.requests.size());
  EXPECT_EQ(rep.total_groups() == rep.requests.size(), rep.coalesce_rate() == 0.0);

  // Per die, service intervals never overlap (slots are atomic) and every
  // request starts no earlier than its arrival.
  std::map<std::size_t, std::vector<const RequestRecord*>> by_die;
  for (const RequestRecord& r : rep.requests) {
    EXPECT_GE(r.start, r.arrival);
    by_die[r.die].push_back(&r);
  }
  for (auto& [die, records] : by_die) {
    std::sort(records.begin(), records.end(),
              [](const RequestRecord* a, const RequestRecord* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < records.size(); ++i) {
      EXPECT_GE(records[i]->start, records[i - 1]->finish) << "die " << die;
    }
  }
}

TEST(BatchingCluster, FifoCoalescesFromTheGlobalQueue) {
  ServeFixture f(coalescing_config(4));
  // One die, zero-gap identical requests under FIFO: request 0 seats alone,
  // the rest wait in the global queue. Each freed slot then drains its
  // plan-mates: groups of 1, 4, then the leftover 1.
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 6, 0);
  ServingReport rep = Cluster(f.compiled, 1).simulate(trace, {.scheduler = SchedulerKind::kFifo});
  ASSERT_EQ(rep.requests.size(), 6u);
  EXPECT_EQ(rep.requests[0].group_size, 1u);
  for (std::size_t i = 1; i <= 4; ++i) EXPECT_EQ(rep.requests[i].group_size, 4u);
  EXPECT_EQ(rep.requests[5].group_size, 1u);
  ASSERT_EQ(rep.batch_size_counts.size(), 4u);
  EXPECT_EQ(rep.batch_size_counts[0], 2u);
  EXPECT_EQ(rep.batch_size_counts[3], 1u);
  // Followers ride the slot back-to-back. By hand: the head is charged its
  // cold cost c once, each follower c − s (s = its weight-stream saving),
  // so the 4-slot spans c + 3(c − s).
  for (std::size_t i = 2; i <= 4; ++i) {
    EXPECT_EQ(rep.requests[i].start, rep.requests[i - 1].finish);
  }
  const ServiceCost cost = f.compiled.cost({f.plan_a, &f.a.features});
  const Cycles c = cost.total_cycles;
  const Cycles s = cost.batch_saving_cycles;
  ASSERT_GT(s, 0u);  // followers actually save on this fixture
  ASSERT_LT(s, c);
  EXPECT_EQ(rep.requests[0].service_cycles(), c);
  EXPECT_EQ(rep.requests[1].service_cycles(), c);
  for (std::size_t i = 2; i <= 4; ++i) EXPECT_EQ(rep.requests[i].service_cycles(), c - s);
  EXPECT_EQ(rep.requests[5].service_cycles(), c);
  EXPECT_EQ(rep.requests[4].finish - rep.requests[1].start, c + 3 * (c - s));
  EXPECT_EQ(rep.weighting_cycles_saved, 3 * s);
}

TEST(BatchingCluster, SlotsCoalesceByPlanNotByFeatures) {
  ServeFixture f(coalescing_config(4));
  // Same plan, two distinct feature matrices: coalescing keys on the plan
  // fingerprint, not the feature pointer, and each member is charged from
  // its own (plan, features) cost — the head c, each follower its own c − s.
  SparseMatrix other_features = generate_features(f.a.spec, 99);
  RequestTrace trace = RequestTrace::fixed_interval(
      {f.stream_a(), {f.plan_a, &other_features, 1.0}}, 4, 0);
  ServingReport rep = Cluster(f.compiled, 1).simulate(trace, {.scheduler = SchedulerKind::kFifo});
  ASSERT_EQ(rep.requests.size(), 4u);
  // Request 0 seats alone; requests 1 (other), 2 (a), 3 (other) share a slot.
  EXPECT_EQ(rep.requests[0].group_size, 1u);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(rep.requests[i].group_size, 3u);

  const ServiceCost own = f.compiled.cost({f.plan_a, &f.a.features});
  const ServiceCost other = f.compiled.cost({f.plan_a, &other_features});
  ASSERT_NE(own.total_cycles, other.total_cycles);  // the test discriminates
  EXPECT_EQ(rep.requests[1].service_cycles(), other.total_cycles);
  EXPECT_EQ(rep.requests[2].service_cycles(), own.total_cycles - own.batch_saving_cycles);
  EXPECT_EQ(rep.requests[3].service_cycles(), other.total_cycles - other.batch_saving_cycles);
  EXPECT_EQ(rep.weighting_cycles_saved, own.batch_saving_cycles + other.batch_saving_cycles);
}

TEST(BatchingCluster, CapLargerThanQueueDepthDrainsWhatIsThere) {
  ServeFixture f(coalescing_config(100));
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 10, 0);
  ServingReport rep = Cluster(f.compiled, 1).simulate(trace, {.scheduler = SchedulerKind::kFifo});
  ASSERT_EQ(rep.requests.size(), 10u);
  // Slot 1: the first arrival alone; slot 2: everything else (9 < 100).
  EXPECT_EQ(rep.requests[0].group_size, 1u);
  for (std::size_t i = 1; i < 10; ++i) EXPECT_EQ(rep.requests[i].group_size, 9u);
  EXPECT_EQ(rep.total_groups(), 2u);
}

TEST(BatchingCluster, CoalescesTwoPlansOfOneGraphByFingerprint) {
  // Planning graph A again yields a distinct plan object with the same
  // structure fingerprint. Coalescing groups by fingerprint, so requests
  // holding the first and the second plan object share a slot.
  ServeFixture f(coalescing_config(8));
  GraphPlanPtr plan_a2 = f.compiled.plan(f.a.graph);
  ASSERT_NE(plan_a2.get(), f.plan_a.get());
  ASSERT_EQ(plan_a2->fingerprint(), f.plan_a->fingerprint());

  // One die, three zero-gap requests: the first seats alone; the queued
  // first-plan and second-plan requests coalesce into one slot.
  RequestTrace trace = RequestTrace::fixed_interval(
      {f.stream_a(), {plan_a2, &f.a.features, 1.0}}, 3, 0);
  ServingReport rep = Cluster(f.compiled, 1).simulate(trace, {.scheduler = SchedulerKind::kFifo});
  ASSERT_EQ(rep.requests.size(), 3u);
  EXPECT_EQ(rep.requests[0].group_size, 1u);
  EXPECT_EQ(rep.requests[1].group_size, 2u);  // stream 1: the second plan object
  EXPECT_EQ(rep.requests[2].group_size, 2u);  // stream 0: the first plan object
  EXPECT_EQ(rep.requests[2].start, rep.requests[1].finish);
}

TEST(BatchingCluster, WarmthAndCoalescingComposeWithOneTouchPerSlot) {
  EngineConfig config = coalescing_config(8);
  config.warmth.enabled = true;
  config.warmth.die_budget_bytes = 48 << 10;  // holds exactly one fixture plan
  ServeFixture f(config);
  const InferenceReport cold = f.compiled.run({f.plan_a, &f.a.features}).report;
  const Cycles follower_saving = test::reference_follower_saving(cold);
  ASSERT_GT(follower_saving, 0u);

  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 5, 0);
  ServingReport rep = Cluster(f.compiled, 1).simulate(trace, {.scheduler = SchedulerKind::kFifo});
  ASSERT_EQ(rep.requests.size(), 5u);
  // Slot 1: the head alone, cold. Slot 2: a head that finds the plan
  // resident (one touch) and three followers charged fully warm minus the
  // weighting saving.
  EXPECT_DOUBLE_EQ(rep.requests[0].warm_fraction, 0.0);
  EXPECT_EQ(rep.requests[0].service_cycles(), cold.total_cycles);
  const Cycles full_warm = test::reference_warm_total(cold, 1.0);
  EXPECT_DOUBLE_EQ(rep.requests[1].warm_fraction, 1.0);
  EXPECT_EQ(rep.requests[1].service_cycles(), full_warm);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(rep.requests[i].warm_fraction, 1.0);
    EXPECT_EQ(rep.requests[i].service_cycles(), full_warm - follower_saving);
  }
  EXPECT_EQ(rep.total_plan_swaps(), 0u);
  EXPECT_EQ(rep.weighting_cycles_saved, 3 * follower_saving);
}

TEST(BatchingCluster, SimulationStaysDeterministicWithCoalescing) {
  ServeFixture f(coalescing_config(8));
  for (SchedulerKind kind : serve::all_scheduler_kinds()) {
    Cluster cluster(f.compiled, 3);
    RequestTrace t1 = RequestTrace::poisson({f.stream_a(), f.stream_b()}, 80, 2000.0, 17);
    RequestTrace t2 = RequestTrace::poisson({f.stream_a(), f.stream_b()}, 80, 2000.0, 17);
    ServingReport r1 = cluster.simulate(t1, {.scheduler = kind});
    ServingReport r2 = cluster.simulate(t2, {.scheduler = kind});
    ASSERT_EQ(r1.requests.size(), r2.requests.size());
    for (std::size_t i = 0; i < r1.requests.size(); ++i) {
      EXPECT_EQ(r1.requests[i].die, r2.requests[i].die);
      EXPECT_EQ(r1.requests[i].start, r2.requests[i].start);
      EXPECT_EQ(r1.requests[i].finish, r2.requests[i].finish);
      EXPECT_EQ(r1.requests[i].group_size, r2.requests[i].group_size);
    }
    EXPECT_EQ(r1.batch_size_counts, r2.batch_size_counts);
    EXPECT_EQ(r1.weighting_cycles_saved, r2.weighting_cycles_saved);
  }
}

// --- The scheduler sees the opportunity. ---

TEST(BatchingScheduler, WarmthAwarePrefersTheDieWhoseHeadOfLinePlanMatches) {
  // slo-aware routes a deadline-free request to the earliest predicted
  // completion — the warmth-aware rule.
  auto sched = Scheduler::make(SchedulerKind::kSloAware);
  TracedRequest request;
  ASSERT_FALSE(request.has_slo());
  ServiceCost cost;
  cost.total_cycles = 1000;
  cost.warm_cycles = 1000;
  cost.batch_saving_cycles = 200;
  RequestEstimate est;
  est.cost = &cost;
  est.fingerprint = 42;

  std::vector<DieStatus> dies(2);
  for (DieStatus& d : dies) {
    d.busy = true;
    d.busy_until = 5000;
    d.queued_cycles_estimate = 1000;
  }
  dies[1].queue_head_fingerprint = 42;  // this die's next slot is our plan

  // pick() takes one estimate per die (identical on a homogeneous cluster).
  std::vector<RequestEstimate> ests(2, est);
  // Without a coalescing opportunity the tie breaks to die 0...
  EXPECT_EQ(sched->pick(request, ests, dies, 0), 0u);
  // ...with one, riding die 1's slot saves the weighting setup.
  for (RequestEstimate& e : ests) e.coalesce_count = 2;
  EXPECT_EQ(sched->pick(request, ests, dies, 0), 1u);
  // A matching head-of-line never outweighs a genuinely shorter backlog.
  dies[0].queued_cycles_estimate = 0;
  dies[0].busy_until = 2000;
  EXPECT_EQ(sched->pick(request, ests, dies, 0), 0u);
}

TEST(BatchingScheduler, FullSlotsStopAdvertisingTheirHeadOfLinePlan) {
  ServeFixture f(coalescing_config(2));
  // Route everything to die 0 and record what die 0 advertised at each
  // dispatch decision: once two same-plan requests fill the head's
  // max_coalesce = 2 slot, a newcomer cannot ride it and the head-of-line
  // fingerprint must stop being published.
  struct Probe final : Scheduler {
    mutable std::vector<std::pair<std::size_t, std::uint64_t>> seen;
    SchedulerKind kind() const override { return SchedulerKind::kShortestQueue; }
    std::size_t pick(const TracedRequest&, std::span<const RequestEstimate>,
                     std::span<const DieStatus> dies, Cycles) const override {
      seen.emplace_back(dies[0].queue_depth, dies[0].queue_head_fingerprint);
      return 0;
    }
  } probe;
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 4, 0);
  Cluster(f.compiled, 1).simulate(trace, {.custom_scheduler = &probe});
  ASSERT_EQ(probe.seen.size(), 4u);
  EXPECT_EQ(probe.seen[2].first, 1u);  // one same-plan waiter: slot open
  EXPECT_EQ(probe.seen[2].second, f.plan_a->fingerprint());
  EXPECT_EQ(probe.seen[3].first, 2u);  // slot full: no ride promised
  EXPECT_EQ(probe.seen[3].second, 0u);
}

TEST(BatchingScheduler, EstimateCarriesTheDrainableOpportunity) {
  ServeFixture f(coalescing_config(8));
  // Capture the estimates the cluster hands the scheduler: with a backlog
  // of same-plan work the die's slot could drain (here the global queue —
  // one die, FIFO defers everything while it is busy) the coalesce_count
  // must grow past 1 and carry a positive saving, capped at max_coalesce.
  struct Probe final : Scheduler {
    mutable std::uint32_t max_seen = 0;
    mutable Cycles saving_seen = 0;
    SchedulerKind kind() const override { return SchedulerKind::kFifo; }
    std::size_t pick(const TracedRequest&, std::span<const RequestEstimate> ests,
                     std::span<const DieStatus> dies, Cycles) const override {
      max_seen = std::max(max_seen, ests[0].coalesce_count);
      saving_seen = std::max(saving_seen, ests[0].cost->batch_saving_cycles);
      for (std::size_t d = 0; d < dies.size(); ++d) {
        if (!dies[d].busy && dies[d].queue_depth == 0) return d;
      }
      return kDefer;
    }
  } probe;
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 12, 0);
  Cluster(f.compiled, 1).simulate(trace, {.custom_scheduler = &probe});
  EXPECT_GT(probe.max_seen, 1u);
  EXPECT_LE(probe.max_seen, 8u);
  EXPECT_GT(probe.saving_seen, 0u);
}

TEST(BatchingScheduler, CoalesceCountIsPerDieNotClusterWide) {
  ServeFixture f(coalescing_config(8));
  // Pile same-plan waiters onto die 0's queue while die 1 idles and the
  // global queue stays empty. Die 1's slot could drain NONE of them — its
  // coalesce_count must stay 1 even as die 0's grows. (The pre-fix
  // cluster-wide count credited die 1 with die 0's backlog, advertising
  // phantom batch savings no slot on die 1 could ever collect — a
  // batching-aware router chasing the discount would steer same-plan work
  // AWAY from the die that can actually coalesce it.)
  struct Probe final : Scheduler {
    mutable std::uint32_t die0_max = 0;
    mutable std::uint32_t die1_max = 0;
    SchedulerKind kind() const override { return SchedulerKind::kFifo; }
    std::size_t pick(const TracedRequest&, std::span<const RequestEstimate> ests,
                     std::span<const DieStatus>, Cycles) const override {
      die0_max = std::max(die0_max, ests[0].coalesce_count);
      die1_max = std::max(die1_max, ests[1].coalesce_count);
      return 0;  // everything onto die 0 — die 1 never sees a request
    }
  } probe;
  // Zero-gap arrivals: the first seats die 0, the rest stack its queue, so
  // each offer sees a strictly deeper die-0 backlog.
  RequestTrace trace = RequestTrace::fixed_interval({f.stream_a()}, 6, 0);
  Cluster(f.compiled, 2).simulate(trace, {.custom_scheduler = &probe});
  EXPECT_GT(probe.die0_max, 1u);
  EXPECT_EQ(probe.die1_max, 1u);
}

TEST(BatchingScheduler, NoRideDiscountWithoutADrainableWaiter) {
  // estimate_die_service's ride discount is gated on coalesce_count > 1.
  // With the per-die count, a die whose head-of-line plan matches but which
  // holds no drainable same-plan waiter (count 1 — the old cluster-wide
  // count could still exceed 1 via other dies' queues) must be priced at
  // full service: the discount would be a phantom saving.
  ServiceCost cost;
  cost.total_cycles = 1000;
  cost.warm_cycles = 1000;
  cost.batch_saving_cycles = 200;
  RequestEstimate est;
  est.cost = &cost;
  est.fingerprint = 77;
  DieStatus die;
  die.queue_head_fingerprint = 77;
  est.coalesce_count = 1;
  const Cycles undiscounted = estimate_die_service(die, est);
  est.coalesce_count = 2;
  const Cycles discounted = estimate_die_service(die, est);
  EXPECT_EQ(undiscounted, 1000u);
  EXPECT_EQ(discounted, 800u);
}

}  // namespace
}  // namespace gnnie
