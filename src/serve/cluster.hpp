// The serving cluster: N modeled GNNIE dies advanced by a discrete-event
// loop in virtual time.
//
// Each die is an independent engine instance sharing the immutable compiled
// state of its config's CompiledModel (runs are stateless by construction,
// so dies never interfere). The simulation is entirely in *modeled* time: a
// request's service time is its InferenceReport::total_cycles — the same
// number a lone run() would report — and queueing delay accrues in cluster
// virtual cycles between its open-loop arrival and its service start.
//
// Event loop: the next event is either the earliest pending arrival or the
// earliest die completion (completions at time t are processed before
// arrivals at t, in die-index order, so a freed die can seat a simultaneous
// arrival). On arrival the Scheduler routes the request to a die queue or
// defers it to the global arrival-order queue; on completion the die first
// drains its own queue, then deferred requests are re-offered in arrival
// order. Everything is deterministic: a (trace, scheduler, admission,
// fleet) tuple always produces the identical ServingReport.
//
// The loop is built for multi-million-request traces: die completions sit
// in a binary-heap event queue (one immutable entry per busy die, popped in
// (time, die-index) order so the tie rule above falls out of the heap
// order); waiting requests live in an intrusive arena FIFO (one next/prev
// pair per request backs every die queue plus the global queue — no
// per-request allocation); and the same-plan-waiting questions coalescing
// asks (slot opportunity, head-slot openness) are answered by per-die and
// global per-fingerprint counts maintained incrementally on every queue
// move instead of queue scans. None of this changes any modeled number —
// the indexed loop is pinned record-for-record against a scan-based
// reference simulator (tests/test_serve_equivalence.cpp).
//
// Degenerate case, by design: one die + FIFO + a zero-gap trace reproduces
// CompiledModel::run_batch exactly — same per-request cycle counts, and a
// makespan equal to BatchReport::total_cycles.
//
// Service costs are memoized per distinct (die config, plan, features)
// triple — open-loop traces repeat the same stream request many times, and
// re-simulating a bit-identical run to rediscover its cycle count would
// dominate the simulation. The memo is exact, not an approximation, because
// runs are stateless — so it lives in a cluster-lifetime ServiceCostCache
// (serve/cost_cache.hpp) shared by every simulate() call on this cluster:
// a latency-vs-load sweep costs each triple once, at its first load point.
// simulate() is const and thread-safe — the cache fill takes a mutex, the
// plan cache is internally locked, and all other simulation state is
// call-local — so independent sweep cells over one cluster may run on
// parallel threads and still produce bit-identical reports each.
//
// Cache warmth (EngineConfig::warmth, default off): each die carries a
// DieWarmthModel — a bounded LRU residency set of plan working sets
// (serve/warmth.hpp). At service start the die's model is touched with the
// request's plan: the observed warm fraction discounts the memoized cold
// cost (ServiceCost::warm_total, core/serving.hpp), and displacing another
// plan's resident state adds kPlanSwapPenaltyCycles. The scheduler sees the
// residency state through DieStatus, and the report counts per-die warm
// hits and swaps, which feed its warm/cold latency breakdowns. With warmth
// disabled every request is charged the cold cost — bit-exact with the
// warmth-unaware simulator, including the run_batch degenerate case.
//
// Coalescing (EngineConfig::batching, default off): when a die starts a
// service it drains up to max_coalesce waiting requests sharing the head
// request's plan fingerprint — first from its own queue, then from the
// global queue — into one atomic slot, modeled as a single weighting/setup
// pass plus per-request aggregation: followers skip the weight-stream share
// of their weighting stages' exposed memory time (batch_member_charge,
// core/report.hpp). The cluster is the only slot pricer — it applies warmth,
// coalescing, and variant dispatch to the memoized one-request costs
// (CompiledModel::cost prices one request). Warmth residency is touched once
// per slot (the head pays any swap; followers see the post-load fraction),
// per-request latencies run from each member's own arrival, and a slot is
// never longer than serial service of its members by construction. The
// report records the batch-size histogram and the weighting-setup cycles
// saved. With max_coalesce = 1 every slot holds one request — bit-exact
// with the uncoalesced simulator.
//
// Intra-die pipelining (EngineConfig::pipeline, default off): each die's
// timeline splits into two overlapping resource tracks — a *stream* track
// that fetches a slot's weights from DRAM and a *compute* track that runs
// the slot — so while die d computes slot k it may already stream slot
// k+1's weights. The model is retroactive and needs no new event kinds: at
// service start the slot's weight-stream share (the head's cold weighting
// stage plus any variant setup) is laid onto the stream track starting at
// the later of the track's free time and the head's routing time —
// provably never after `now` — and the compute track runs the remainder
// from max(now, stream end). The head's record spans both tracks
// (start = stream start), follower charges chain off the head's finish
// exactly as in serial service, and a slot's pipelined finish never
// exceeds its serial finish by construction. The report records the total
// stream cycles the pipeline hid plus per-die stream-track occupancy (all
// zero with pipelining disabled, which leaves the serial charging path
// untouched — bit-exact with the single-track simulator).
//
// Plan variants (EngineConfig::pipeline.variant_widths, default empty):
// plan_variant_family derives one PlanVariant per configured width, wider
// variants paying more one-time setup (kVariantSetupCycles per extra width)
// but letting more coalesced followers share the slot's weight stream (a
// follower at slot position i rides only if i < width). Dispatch picks the
// cheapest variant for each slot at assembly time (deterministic: strict
// improvement, narrowest wins ties) and records the pick in
// RequestRecord::variant_width plus the report's per-width slot counts. An
// empty width list yields the single unbounded (width 0) variant with zero
// setup — the plain slot semantics, bit-exact — so every record carries
// width 0 and the counts hold one {0, slots} entry.
//
// Die configs (serve/fleet.hpp): every cluster is a fleet of die configs,
// each with its own CompiledModel, and the service memo is keyed by config.
// The homogeneous Cluster(model, dies) constructor is the one-config fleet
// whose config 0 is `model` itself. The FleetSpec constructor gives every
// die its own EngineConfig and compiles the reference model's (model,
// weights) once per distinct config — so the same request carries a
// different cost on every die design, which is the per-(die, request)
// RequestEstimate vector handed to Scheduler::pick and
// AdmissionPolicy::shed. A config prices the request's own plan when its
// compiled model built that plan, and re-plans the request's graph
// otherwise; sampled (GraphSAGE) plans cannot be re-planned (sampling is
// fresh per plan() call), so they serve on the homogeneous constructor
// only. Per-config costs are normalized into the *reference* model's clock
// domain, keeping the simulation in one virtual time base. Warmth
// enablement, max_coalesce, pipeline enablement, and the plan-variant
// widths must match the reference config across the fleet (they are
// serving-protocol knobs, not die properties), so one variant family serves
// every die; residency budgets may differ per die, and the plan-swap
// penalty and variant setup are fixed constants. A homogeneous FleetSpec
// over the reference config is bit-exact with the Cluster(model, dies)
// constructor.
//
// SLOs and admission (serve/slo.hpp): deadline-carrying traces
// (TraceStream::slo_cycles) stamp each record's deadline, and every offer
// first passes the AdmissionPolicy, which may shed the request — recorded
// with shed = true, start = finish = the shed time, no die attribution,
// and counted against SLO attainment but never in latency percentiles.
// The default admit-all policy sheds nothing and is bit-exact with the
// admission-unaware simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/report.hpp"
#include "core/serving.hpp"
#include "serve/fleet.hpp"
#include "serve/scheduler.hpp"
#include "serve/slo.hpp"
#include "serve/trace.hpp"

namespace gnnie::serve {

class ServiceCostCache;

/// Options for Cluster::simulate, designed for designated initializers:
/// `cluster.simulate(trace, {.scheduler = SchedulerKind::kWarmthAware})`.
/// The default-constructed value is FIFO scheduling with admit-all
/// admission. The custom_* pointers override the corresponding kind when
/// non-null (for caller-owned policy objects, e.g. a scheduler shared
/// across sweep cells); the pointee must outlive the simulate call.
struct SimulateOptions {
  SchedulerKind scheduler = SchedulerKind::kFifo;
  AdmissionKind admission = AdmissionKind::kAdmitAll;
  const Scheduler* custom_scheduler = nullptr;
  const AdmissionPolicy* custom_admission = nullptr;
};

class Cluster {
 public:
  /// `dies` independent engine instances over one compiled model: a
  /// one-config fleet whose config 0 is `model`, so requests planned by
  /// `model` (sampled GraphSAGE plans included) are priced on their own
  /// plans.
  Cluster(CompiledModel model, std::size_t dies);

  /// A heterogeneous fleet: die d runs `spec.configs[spec.assignment[d]]`.
  /// Each distinct config gets its own compile of the reference model's
  /// (model, weights) — with FleetDieConfig::cache_policy when set, else
  /// the degree-aware policy; a custom CachePolicy handed to the reference
  /// Engine does not propagate to fleet configs. Sampled (GraphSAGE) plans
  /// are rejected at simulate() time with std::invalid_argument.
  /// Throws unless the spec validates and every config matches the
  /// reference's warmth enablement, max_coalesce, pipeline enablement, and
  /// plan-variant widths (all serving-protocol knobs).
  Cluster(const CompiledModel& reference, FleetSpec spec);

  std::size_t die_count() const { return die_count_; }
  const CompiledModel& model() const { return model_; }
  const FleetSpec& fleet() const { return spec_; }
  /// True when the dies do not all share one config.
  bool heterogeneous() const { return heterogeneous_; }
  double fleet_cost() const { return spec_.total_cost(); }

  /// Runs the trace over this cluster and returns the per-request records
  /// plus the tail-latency/utilization/SLO rollup. Scheduling and admission
  /// come from `options` (default: FIFO, admit-all).
  ServingReport simulate(const RequestTrace& trace,
                         const SimulateOptions& options = {}) const;

  /// Distinct (die config, plan, features) triples costed so far by this
  /// cluster's ServiceCostCache — across all simulate() calls. A sweep that
  /// shares correctly stops growing this after its first cell.
  std::size_t costed_triples() const;

 private:
  /// The simulation loop; simulate() resolves the policy objects and lands
  /// here.
  ServingReport simulate_impl(const RequestTrace& trace, const Scheduler& scheduler,
                              const AdmissionPolicy& admission) const;

  CompiledModel model_;
  std::size_t die_count_;
  FleetSpec spec_;
  /// One compiled model per spec_.configs entry (model_ itself for the
  /// homogeneous constructor).
  std::vector<CompiledModel> config_models_;
  /// die → index into spec_.configs and config_models_.
  std::vector<std::size_t> die_config_;
  /// Per-config cycle normalization into the reference clock domain:
  /// reference_clock / config_clock.
  std::vector<double> config_scale_;
  bool heterogeneous_ = false;
  /// Cluster-lifetime (config, plan, features) → service-cost cache, shared
  /// by every simulate() call (and by copies of this cluster — entries are
  /// exact, so sharing is always safe). shared_ptr keeps Cluster copyable.
  std::shared_ptr<ServiceCostCache> cost_cache_;
};

}  // namespace gnnie::serve
