// Equivalence suite for the indexed event loop in serve::Cluster.
//
// The production simulate() runs on a binary-heap completion queue,
// incremental per-fingerprint waiting counts, a shared ServiceCostCache,
// and arena-backed queues. This file keeps an independent REFERENCE
// implementation — the straightforward scan-based discrete-event loop the
// cluster used to run (O(dies) completion scan, O(queued) fingerprint
// scans, std::map cost memo, std::deque queues), ported against the public
// API only — and pins the two record-for-record bit-exact across the full
// serving matrix: all four schedulers × warmth on/off × max_coalesce
// {1, 8} × homogeneous/EEAA fleet × admit-all/shed-hopeless, on Poisson
// and bursty traces. Two independently written loops agreeing on every
// field of every record is the strongest cheap evidence the indexed loop
// changed the simulator's speed and nothing else.
//
// The reference implements the POST-BUGFIX semantics: RequestEstimate::
// coalesce_count counts the same-plan waiters one die's slot can actually
// drain (its own queue + the global queue), not the cluster-wide backlog.
// It prices requests with its own copies of the warm and follower-saving
// formulas over run()'s report (serve_test_util.hpp), and gates its
// estimate records itself (warm == cold with warmth off, no follower saving
// at max_coalesce 1) where the production loop leaves the gates to the
// estimate's readers.
//
// A 1M-request determinism smoke rides along: production-scale traces must
// replay to identical reports, quickly enough to live under the ctest
// timeout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/serving.hpp"
#include "serve/cluster.hpp"
#include "serve/fleet.hpp"
#include "serve/scheduler.hpp"
#include "serve/slo.hpp"
#include "serve/trace.hpp"
#include "serve/warmth.hpp"
#include "serve_test_util.hpp"

namespace gnnie {
namespace {

using serve::AdmissionKind;
using serve::AdmissionPolicy;
using serve::Cluster;
using serve::DieStatus;
using serve::DieWarmthModel;
using serve::FleetDieConfig;
using serve::FleetSpec;
using serve::RequestEstimate;
using serve::RequestTrace;
using serve::Scheduler;
using serve::SchedulerKind;
using serve::TracedRequest;
using serve::TraceStream;
using test::ServeFixture;

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

/// The scan-based reference simulator. Mirrors the Cluster constructors'
/// fleet setup, then simulates with linear scans everywhere the production
/// loop now keeps an index.
class ReferenceCluster {
 public:
  ReferenceCluster(const CompiledModel& reference, std::size_t dies)
      : model_(reference), die_count_(dies) {
    spec_ = FleetSpec::homogeneous(model_.config(), dies);
    die_config_.assign(dies, 0);
  }

  ReferenceCluster(const CompiledModel& reference, FleetSpec spec)
      : model_(reference), die_count_(spec.die_count()), spec_(std::move(spec)) {
    spec_.validate();
    for (const FleetDieConfig& cfg : spec_.configs) {
      config_models_.push_back(Engine(cfg.engine).compile(model_.model(), model_.weights()));
    }
    die_config_ = spec_.assignment;
  }

  ServingReport simulate(const RequestTrace& trace, const Scheduler& scheduler,
                         const AdmissionPolicy& admission) const;

 private:
  struct DieState {
    std::deque<std::size_t> queue;
    bool busy = false;
    std::vector<std::size_t> group;
    Cycles busy_until = 0;
  };

  struct CostEntry {
    GraphPlanPtr plan;
    InferenceReport cold_report;
    ServiceCost estimate;  ///< what the request's estimates point at
  };

  const CompiledModel& model_;
  std::size_t die_count_;
  FleetSpec spec_;
  std::vector<CompiledModel> config_models_;
  std::vector<std::size_t> die_config_;
};

ServingReport ReferenceCluster::simulate(const RequestTrace& trace,
                                         const Scheduler& scheduler,
                                         const AdmissionPolicy& admission) const {
  const EngineConfig& config = model_.config();
  const WarmthConfig& wcfg = config.warmth;
  const std::uint32_t max_coalesce = config.batching.max_coalesce;
  const bool fleet = !config_models_.empty();
  const std::size_t config_count = fleet ? spec_.configs.size() : 1;

  ServingReport report;
  report.dies = die_count_;
  report.scheduler = scheduler.name();
  report.die_busy_cycles.assign(die_count_, 0);
  report.warmth_enabled = wcfg.enabled;
  report.die_requests.assign(die_count_, 0);
  report.die_warm_hits.assign(die_count_, 0);
  report.die_plan_swaps.assign(die_count_, 0);
  report.max_coalesce = max_coalesce;
  report.streams = trace.stream_count();
  report.fleet_cost = spec_.total_cost();
  for (std::size_t d = 0; d < die_count_; ++d) {
    report.die_labels.push_back(spec_.configs[die_config_[d]].label);
  }
  report.requests.resize(trace.size());

  const std::vector<TracedRequest>& arrivals = trace.requests();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    report.requests[i].stream = arrivals[i].stream;
    report.requests[i].arrival = arrivals[i].arrival;
    report.requests[i].deadline = arrivals[i].deadline;
  }

  auto config_engine = [&](std::size_t cfg) -> const EngineConfig& {
    return fleet ? spec_.configs[cfg].engine : config;
  };

  std::map<std::tuple<std::size_t, const void*, const void*>, CostEntry> service_memo;
  auto cost_of = [&](std::size_t cfg, std::size_t idx) -> const CostEntry& {
    const TraceStream& stream = trace.stream(arrivals[idx].stream);
    const RunRequest request{stream.plan, stream.features};
    const auto key =
        std::make_tuple(cfg, static_cast<const void*>(request.plan.get()),
                        static_cast<const void*>(request.features));
    auto it = service_memo.find(key);
    if (it == service_memo.end()) {
      CostEntry entry;
      RunRequest routed = request;
      if (fleet) {
        routed.plan = config_models_[cfg].plan(request.plan->graph());
      }
      entry.plan = routed.plan;
      InferenceReport cold = (fleet ? config_models_[cfg] : model_).run(routed).report;
      entry.estimate.total_cycles = cold.total_cycles;
      entry.estimate.warm_cycles =
          wcfg.enabled ? test::reference_warm_total(cold, 1.0) : cold.total_cycles;
      entry.estimate.batch_saving_cycles =
          max_coalesce > 1 ? test::reference_follower_saving(cold) : 0;
      if (wcfg.enabled) entry.cold_report = std::move(cold);
      it = service_memo.emplace(key, std::move(entry)).first;
    }
    return it->second;
  };

  std::vector<DieState> dies(die_count_);
  std::vector<DieStatus> status(die_count_);
  std::deque<std::size_t> deferred;
  auto fingerprint_of = [&](std::size_t idx) -> std::uint64_t {
    return trace.stream(arrivals[idx].stream).plan->fingerprint();
  };
  // Post-bugfix semantics: the same-plan waiters die `d`'s next slot could
  // actually drain — its own queue plus the global queue (scanned).
  auto waiting_same_plan_on_die = [&](std::size_t d, std::uint64_t fp) -> std::size_t {
    std::size_t n = 0;
    for (std::size_t idx : dies[d].queue) n += fingerprint_of(idx) == fp ? 1 : 0;
    for (std::size_t idx : deferred) n += fingerprint_of(idx) == fp ? 1 : 0;
    return n;
  };
  std::vector<RequestEstimate> die_estimates(die_count_);
  std::vector<RequestEstimate> config_estimates(config_count);
  std::vector<char> config_ready(config_count, 0);
  auto estimates_of = [&](std::size_t idx) -> const std::vector<RequestEstimate>& {
    const std::uint64_t fp = fingerprint_of(idx);
    std::fill(config_ready.begin(), config_ready.end(), 0);
    for (std::size_t d = 0; d < die_count_; ++d) {
      const std::size_t cfg = die_config_[d];
      if (!config_ready[cfg]) {
        const CostEntry& cost = cost_of(cfg, idx);
        RequestEstimate est;
        est.cost = &cost.estimate;
        est.fingerprint = fp;
        est.working_set_bytes = cost.plan->warm_working_set_bytes();
        config_estimates[cfg] = est;
        config_ready[cfg] = 1;
      }
      die_estimates[d] = config_estimates[cfg];
      die_estimates[d].coalesce_count =
          max_coalesce > 1 ? static_cast<std::uint32_t>(std::min<std::size_t>(
                                 max_coalesce, 1 + waiting_same_plan_on_die(d, fp)))
                           : 1;
    }
    return die_estimates;
  };

  std::vector<DieWarmthModel> warmth;
  if (wcfg.enabled) {
    warmth.reserve(die_count_);
    for (std::size_t d = 0; d < die_count_; ++d) {
      warmth.emplace_back(config_engine(die_config_[d]).warmth_die_budget());
    }
    for (std::size_t d = 0; d < die_count_; ++d) status[d].warmth = &warmth[d];
  }
  std::vector<Cycles> routed_estimate(arrivals.size(), 0);
  std::size_t next_arrival = 0;
  std::size_t completed = 0;

  auto sync_queue_status = [&](std::size_t d) {
    status[d].queue_depth = dies[d].queue.size();
    std::uint64_t head_fp = 0;
    if (!dies[d].queue.empty() && max_coalesce > 1) {
      const std::uint64_t fp = fingerprint_of(dies[d].queue.front());
      std::size_t same_plan = 0;
      for (std::size_t idx : dies[d].queue) same_plan += fingerprint_of(idx) == fp ? 1 : 0;
      if (same_plan < max_coalesce) head_fp = fp;
    }
    status[d].queue_head_fingerprint = head_fp;
  };

  auto start_service = [&](std::size_t d, std::size_t head, Cycles now) {
    const std::size_t cfg = die_config_[d];
    const std::uint64_t fp = fingerprint_of(head);
    std::vector<std::size_t> group = {head};
    if (max_coalesce > 1) {
      DieState& die = dies[d];
      for (auto it = die.queue.begin();
           it != die.queue.end() && group.size() < max_coalesce;) {
        if (fingerprint_of(*it) == fp) {
          status[d].queued_cycles_estimate -=
              std::min(status[d].queued_cycles_estimate, routed_estimate[*it]);
          group.push_back(*it);
          it = die.queue.erase(it);
        } else {
          ++it;
        }
      }
      sync_queue_status(d);
      for (auto it = deferred.begin();
           it != deferred.end() && group.size() < max_coalesce;) {
        if (fingerprint_of(*it) == fp) {
          group.push_back(*it);
          it = deferred.erase(it);
        } else {
          ++it;
        }
      }
    }

    double head_fraction = 0.0;
    double follower_fraction = 0.0;
    bool swapped = false;
    if (wcfg.enabled) {
      const Bytes working_set = cost_of(cfg, head).plan->warm_working_set_bytes();
      const DieWarmthModel::Touch touch = warmth[d].touch(fp, working_set);
      head_fraction = touch.warm_fraction;
      follower_fraction = warmth[d].warm_fraction(fp, working_set);
      swapped = touch.swapped;
    }

    Cycles at = now;
    for (std::size_t i = 0; i < group.size(); ++i) {
      const std::size_t idx = group[i];
      const CostEntry& cost = cost_of(cfg, idx);
      RequestRecord& rec = report.requests[idx];
      Cycles service = cost.estimate.total_cycles;
      if (wcfg.enabled) {
        const double fraction = i == 0 ? head_fraction : follower_fraction;
        service = test::reference_warm_total(cost.cold_report, fraction);
        if (i == 0 && swapped) service += kPlanSwapPenaltyCycles;
        rec.warm_fraction = fraction;
        rec.plan_swap = i == 0 && swapped;
        report.die_warm_hits[d] += fraction > 0.0 ? 1 : 0;
        report.die_plan_swaps[d] += rec.plan_swap ? 1 : 0;
      }
      if (i > 0) {
        const Cycles charged =
            batch_member_charge(service, cost.estimate.batch_saving_cycles, /*follower=*/true);
        report.weighting_cycles_saved += service - charged;
        service = charged;
      }
      ++report.die_requests[d];
      rec.die = d;
      rec.start = at;
      rec.finish = at + service;
      rec.group_size = static_cast<std::uint32_t>(group.size());
      at = rec.finish;
    }
    if (report.batch_size_counts.size() < group.size()) {
      report.batch_size_counts.resize(group.size(), 0);
    }
    ++report.batch_size_counts[group.size() - 1];

    DieState& die = dies[d];
    die.busy = true;
    die.group = std::move(group);
    die.busy_until = at;
    status[d].busy = true;
    status[d].in_service_count = die.group.size();
    status[d].busy_until = at;
  };

  auto enqueue_on_die = [&](std::size_t d, std::size_t idx, const RequestEstimate& est,
                            Cycles now) {
    if (dies[d].busy) {
      routed_estimate[idx] = estimate_die_service(status[d], est);
      status[d].affinity_fingerprint = est.fingerprint;
      dies[d].queue.push_back(idx);
      sync_queue_status(d);
      status[d].queued_cycles_estimate += routed_estimate[idx];
    } else {
      status[d].affinity_fingerprint = est.fingerprint;
      start_service(d, idx, now);
    }
  };

  auto offer = [&](std::size_t idx, Cycles now) -> bool {
    const std::vector<RequestEstimate>& ests = estimates_of(idx);
    if (admission.shed(arrivals[idx], ests, status, now)) {
      RequestRecord& rec = report.requests[idx];
      rec.shed = true;
      rec.start = now;
      rec.finish = now;
      ++completed;
      return true;
    }
    const std::size_t d = scheduler.pick(arrivals[idx], ests, status, now);
    if (d == Scheduler::kDefer) return false;
    enqueue_on_die(d, idx, ests[d], now);
    return true;
  };

  while (completed < arrivals.size()) {
    Cycles t_completion = kNever;
    for (const DieState& die : dies) {
      if (die.busy) t_completion = std::min(t_completion, die.busy_until);
    }
    const Cycles t_arrival =
        next_arrival < arrivals.size() ? arrivals[next_arrival].arrival : kNever;

    if (t_completion <= t_arrival) {
      const Cycles now = t_completion;
      for (std::size_t d = 0; d < die_count_; ++d) {
        DieState& die = dies[d];
        if (!die.busy || die.busy_until != now) continue;
        for (std::size_t idx : die.group) {
          report.die_busy_cycles[d] += report.requests[idx].service_cycles();
          ++completed;
        }
        die.group.clear();
        die.busy = false;
        status[d].busy = false;
        status[d].in_service_count = 0;
        status[d].busy_until = 0;
      }
      for (std::size_t d = 0; d < die_count_; ++d) {
        DieState& die = dies[d];
        if (die.busy || die.queue.empty()) continue;
        const std::size_t idx = die.queue.front();
        die.queue.pop_front();
        sync_queue_status(d);
        status[d].queued_cycles_estimate -=
            std::min(status[d].queued_cycles_estimate, routed_estimate[idx]);
        start_service(d, idx, now);
      }
      while (!deferred.empty()) {
        const std::size_t idx = deferred.front();
        deferred.pop_front();
        if (!offer(idx, now)) {
          deferred.push_front(idx);
          break;
        }
      }
    } else {
      const Cycles now = t_arrival;
      const std::size_t idx = next_arrival++;
      if (!deferred.empty() || !offer(idx, now)) deferred.push_back(idx);
    }
  }

  for (const RequestRecord& rec : report.requests) {
    report.makespan = std::max(report.makespan, rec.finish);
  }
  return report;
}

/// Every field of every record, plus every rollup input the loop maintains.
void expect_reports_identical(const ServingReport& got, const ServingReport& want) {
  ASSERT_EQ(got.requests.size(), want.requests.size());
  for (std::size_t i = 0; i < got.requests.size(); ++i) {
    const RequestRecord& g = got.requests[i];
    const RequestRecord& w = want.requests[i];
    ASSERT_EQ(g.stream, w.stream) << "request " << i;
    ASSERT_EQ(g.die, w.die) << "request " << i;
    ASSERT_EQ(g.arrival, w.arrival) << "request " << i;
    ASSERT_EQ(g.start, w.start) << "request " << i;
    ASSERT_EQ(g.finish, w.finish) << "request " << i;
    ASSERT_EQ(g.warm_fraction, w.warm_fraction) << "request " << i;
    ASSERT_EQ(g.plan_swap, w.plan_swap) << "request " << i;
    ASSERT_EQ(g.group_size, w.group_size) << "request " << i;
    ASSERT_EQ(g.deadline, w.deadline) << "request " << i;
    ASSERT_EQ(g.shed, w.shed) << "request " << i;
  }
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.die_busy_cycles, want.die_busy_cycles);
  EXPECT_EQ(got.die_requests, want.die_requests);
  EXPECT_EQ(got.die_warm_hits, want.die_warm_hits);
  EXPECT_EQ(got.die_plan_swaps, want.die_plan_swaps);
  EXPECT_EQ(got.batch_size_counts, want.batch_size_counts);
  EXPECT_EQ(got.weighting_cycles_saved, want.weighting_cycles_saved);
  EXPECT_EQ(got.streams, want.streams);
  EXPECT_EQ(got.die_labels, want.die_labels);
  EXPECT_DOUBLE_EQ(got.fleet_cost, want.fleet_cost);
}

EngineConfig matrix_config(bool warmth, std::uint32_t max_coalesce) {
  EngineConfig config = EngineConfig::paper_default(false);
  config.warmth.enabled = warmth;
  config.warmth.die_budget_bytes = 48 << 10;  // roughly one plan's working set
  config.batching.max_coalesce = max_coalesce;
  return config;
}

/// One (warmth, coalesce, fleet?) cell of the matrix: both traces × all
/// four schedulers × both admission policies, production vs reference.
void run_matrix_cell(bool warmth, std::uint32_t max_coalesce, bool fleet) {
  ServeFixture f(matrix_config(warmth, max_coalesce));

  // Overloaded 3:1 two-graph mix (ρ ≈ 1.5 at 4 dies) so queues, deferrals,
  // coalescing groups, and hopeless requests all actually occur. Stream a
  // carries a tight deadline (1.5× its cold service — deferring schedulers
  // shed double-digit counts of these under this load); stream b is
  // SLO-free.
  const Cycles cost_a =
      f.compiled.cost(RunRequest{f.plan_a, &f.a.features}).total_cycles;
  TraceStream a = f.stream_a();
  a.weight = 3.0;
  a.slo_cycles = static_cast<std::int64_t>(3 * cost_a / 2);
  TraceStream b = f.stream_b();
  const double gap = static_cast<double>(cost_a) / 6.0;
  const RequestTrace poisson = RequestTrace::poisson({a, b}, 60, gap, 7);
  const RequestTrace bursty =
      RequestTrace::bursty({a, b}, 60, 2.0 * gap, gap / 3.0, 8.0, 5.0, 11);

  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ReferenceCluster> reference;
  if (fleet) {
    FleetSpec spec = FleetSpec::from_designs("EEAA");
    for (FleetDieConfig& cfg : spec.configs) {
      cfg.engine.warmth.enabled = warmth;
      cfg.engine.warmth.die_budget_bytes = 48 << 10;
      cfg.engine.batching.max_coalesce = max_coalesce;
    }
    cluster = std::make_unique<Cluster>(f.compiled, spec);
    reference = std::make_unique<ReferenceCluster>(f.compiled, spec);
  } else {
    cluster = std::make_unique<Cluster>(f.compiled, 4);
    reference = std::make_unique<ReferenceCluster>(f.compiled, 4);
  }

  for (SchedulerKind kind : serve::all_scheduler_kinds()) {
    const auto scheduler = Scheduler::make(kind);
    for (AdmissionKind admission_kind :
         {AdmissionKind::kAdmitAll, AdmissionKind::kShedHopeless}) {
      const auto admission = AdmissionPolicy::make(admission_kind);
      for (const auto* trace : {&poisson, &bursty}) {
        SCOPED_TRACE(std::string(serve::to_string(kind)) + " / " +
                     serve::to_string(admission_kind) +
                     (trace == &poisson ? " / poisson" : " / bursty"));
        const ServingReport got = cluster->simulate(
            *trace, {.custom_scheduler = scheduler.get(), .custom_admission = admission.get()});
        const ServingReport want = reference->simulate(*trace, *scheduler, *admission);
        expect_reports_identical(got, want);
      }
    }
  }
}

// A config that *carries* the pipeline block — disabled, with the default
// single-variant family — must stay bit-exact with the pipeline-unaware
// reference across every scheduler and admission policy; and routing the
// production side through the SimulateOptions entry point must change
// nothing either. Guards the ISSUE's default-off contract even if the
// config defaults ever move.
TEST(ServeEquivalence, PipelineOffAndDefaultFamilyAreBitExact) {
  EngineConfig config = matrix_config(true, 8);
  config.pipeline.enabled = false;
  config.pipeline.variant_widths = {};
  ServeFixture f(config);
  const Cycles cost_a =
      f.compiled.cost(RunRequest{f.plan_a, &f.a.features}).total_cycles;
  serve::TraceStream a = f.stream_a();
  a.weight = 3.0;
  a.slo_cycles = static_cast<std::int64_t>(3 * cost_a / 2);
  const RequestTrace trace = RequestTrace::poisson(
      {a, f.stream_b()}, 60, static_cast<double>(cost_a) / 6.0, 7);
  Cluster cluster(f.compiled, 4);
  ReferenceCluster reference(f.compiled, 4);
  for (SchedulerKind kind : serve::all_scheduler_kinds()) {
    const auto scheduler = Scheduler::make(kind);
    for (AdmissionKind admission_kind :
         {AdmissionKind::kAdmitAll, AdmissionKind::kShedHopeless}) {
      const auto admission = AdmissionPolicy::make(admission_kind);
      SCOPED_TRACE(std::string(serve::to_string(kind)) + " / " +
                   serve::to_string(admission_kind));
      const ServingReport got = cluster.simulate(
          trace, {.custom_scheduler = scheduler.get(),
                  .custom_admission = admission.get()});
      const ServingReport want = reference.simulate(trace, *scheduler, *admission);
      expect_reports_identical(got, want);
      EXPECT_FALSE(got.pipeline_enabled);
      // The default family's one width-0 variant ran every slot.
      ASSERT_EQ(got.variant_counts.size(), 1u);
      EXPECT_EQ(got.variant_counts[0].first, 0u);
      EXPECT_EQ(got.variant_counts[0].second, got.total_groups());
    }
  }
}

TEST(ServeEquivalence, PlainCluster) { run_matrix_cell(false, 1, false); }
TEST(ServeEquivalence, CoalescingCluster) { run_matrix_cell(false, 8, false); }
TEST(ServeEquivalence, WarmCluster) { run_matrix_cell(true, 1, false); }
TEST(ServeEquivalence, WarmCoalescingCluster) { run_matrix_cell(true, 8, false); }
TEST(ServeEquivalence, PlainFleet) { run_matrix_cell(false, 1, true); }
TEST(ServeEquivalence, CoalescingFleet) { run_matrix_cell(false, 8, true); }
TEST(ServeEquivalence, WarmFleet) { run_matrix_cell(true, 1, true); }
TEST(ServeEquivalence, WarmCoalescingFleet) { run_matrix_cell(true, 8, true); }

// --- Scale: the indexed loop must replay production-size traces, and two
// --- replays must agree on every bit.

std::uint64_t fold_records(const ServingReport& report) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the record fields
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const RequestRecord& r : report.requests) {
    mix(r.die);
    mix(r.start);
    mix(r.finish);
    mix(r.group_size);
  }
  return h;
}

TEST(ServeEquivalence, MillionRequestDeterminismSmoke) {
  ServeFixture f(matrix_config(false, 8));
  Cluster cluster(f.compiled, 4);
  const Cycles cost_a =
      f.compiled.cost(RunRequest{f.plan_a, &f.a.features}).total_cycles;
  TraceStream a = f.stream_a();
  a.weight = 3.0;
  const RequestTrace trace = RequestTrace::poisson(
      {a, f.stream_b()}, 1'000'000, static_cast<double>(cost_a) / 4.0, 42);

  const ServingReport first = cluster.simulate(trace, {.scheduler = SchedulerKind::kShortestQueue});
  const ServingReport second = cluster.simulate(
      trace, {.scheduler = SchedulerKind::kShortestQueue});
  ASSERT_EQ(first.requests.size(), 1'000'000u);
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(fold_records(first), fold_records(second));
  EXPECT_EQ(first.completed_count(), 1'000'000u);
  // The whole trace is two streams on one config: the shared cost cache
  // must have costed exactly two triples across both replays.
  EXPECT_EQ(cluster.costed_triples(), 2u);
}

TEST(ServeEquivalence, CostCacheIsSharedAcrossSimulateCalls) {
  ServeFixture f;
  Cluster cluster(f.compiled, 4);
  EXPECT_EQ(cluster.costed_triples(), 0u);

  const RequestTrace light =
      RequestTrace::poisson({f.stream_a(), f.stream_b()}, 16, 50000.0, 1);
  const RequestTrace heavy =
      RequestTrace::poisson({f.stream_a(), f.stream_b()}, 16, 500.0, 2);

  const ServingReport first = cluster.simulate(light, {.scheduler = SchedulerKind::kFifo});
  EXPECT_EQ(cluster.costed_triples(), 2u);
  // A different load point over the same streams re-costs nothing…
  const ServingReport again = cluster.simulate(heavy, {.scheduler = SchedulerKind::kFifo});
  EXPECT_EQ(cluster.costed_triples(), 2u);
  // …and the shared entries produce the same records a fresh cluster would.
  const ServingReport fresh = Cluster(f.compiled, 4).simulate(
      heavy, {.scheduler = SchedulerKind::kFifo});
  expect_reports_identical(again, fresh);
}

}  // namespace
}  // namespace gnnie
