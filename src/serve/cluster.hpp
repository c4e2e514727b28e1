// The serving cluster: N modeled GNNIE dies advanced by a discrete-event
// loop in virtual time.
//
// Each die is an independent engine instance sharing the immutable compiled
// state of its config's CompiledModel (runs are stateless by construction,
// so dies never interfere). The simulation is entirely in *modeled* time,
// in one clock domain: every die and its HBM run at kClockHz
// (common/units.hpp), so a request's service time is its
// InferenceReport::total_cycles — the same number a lone run() on its die's
// config would report — and queueing delay accrues in those cycles between
// its open-loop arrival and its service start.
//
// Event loop. Each simulate() call builds one SimState (private to
// cluster.cpp) that owns the call's state and names the loop's operations:
//   * run — the next event is the earliest die completion or the earliest
//     pending arrival; completions at time t go first, in die-index order,
//     so a freed die can seat a simultaneous arrival.
//   * offer — admission may shed the request; otherwise the Scheduler picks
//     a die or defers the request to the global arrival-order queue. The
//     scheduler sees each die's DieStatus and one RequestEstimate per die
//     (estimates_of), never the loop's own state.
//   * route — the request joins the die's queue, or starts a slot at once
//     on an idle die.
//   * complete_batch — every die finishing at t frees; each freed die
//     first drains its own queue, then the global queue is re-offered head
//     by head in arrival order.
//   * start_service — assemble_slot grows the slot from its head,
//     price_slot charges it and lays out its timeline, and the slot's
//     completion joins the event heap.
// Everything is deterministic: a (trace, scheduler, admission, fleet)
// tuple always produces the identical ServingReport.
//
// The loop is built for multi-million-request traces: die completions sit
// in a binary min-heap (one immutable entry per busy die, popped in (time,
// die-index) order, so the tie rule above falls out of the heap order);
// waiting requests live in counted queues — an intrusive FIFO over one
// next/prev link pair per request (no per-request allocation) plus per-
// fingerprint waiting counts kept on every queue move, so the questions
// coalescing asks (slot opportunity, head-slot openness) are lookups, not
// queue scans. The indexed loop is pinned record-for-record against a
// scan-based reference simulator (tests/test_serve_equivalence.cpp).
//
// Degenerate case, by design: one die + FIFO + a zero-gap trace is the
// batch API — it services the requests back to back, each taking exactly
// its CompiledModel::run total_cycles, and the makespan is their sum.
//
// Service costs are memoized per distinct (die config, plan, features)
// triple in a cluster-lifetime ServiceCostCache (serve/cost_cache.hpp)
// shared by every simulate() call on this cluster — exact, not an
// approximation, because runs are stateless — so a latency-vs-load sweep
// costs each triple once, at its first load point. simulate() is const and
// thread-safe: the cache fill takes a mutex, CompiledModel is immutable,
// and all other state lives in the call's SimState, so independent
// sweep cells over one cluster may run on parallel threads and still
// produce bit-identical reports each.
//
// Slot pricing (price_slot) is the only place a service slot is charged;
// it applies the serving knobs below to the memoized one-request costs
// (CompiledModel::cost prices one request). Each knob defaults off.
//
// Cache warmth (EngineConfig::warmth): each die carries a DieWarmthModel —
// a bounded LRU residency set of plan working sets (serve/warmth.hpp),
// touched once per slot with the slot's plan. The head sees the fraction
// resident on arrival, followers the post-load fraction; the warm fraction
// discounts the memoized cold cost (ServiceCost::warm_total), and
// displacing another plan's state adds kPlanSwapPenaltyCycles to the head.
// The scheduler sees residency through DieStatus, and the report counts
// per-die warm hits and swaps. With warmth disabled every request is
// charged the cold cost.
//
// Coalescing (EngineConfig::batching): a slot holds its head plus up to
// max_coalesce−1 waiting requests sharing the head's plan fingerprint,
// drained first from the die's own queue, then from the global queue. The
// slot is atomic — the die stays busy until every member drains — and is
// modeled as a single weighting/setup pass plus per-request aggregation:
// followers skip the weight-stream share of their weighting stages'
// exposed memory time (batch_member_charge, core/serving.hpp), so a slot is
// never longer than serial service of its members. Per-request latencies
// run from each member's own arrival; the report records the batch-size
// histogram and the weighting-setup cycles saved. At max_coalesce = 1
// every slot holds exactly its head.
//
// Intra-die pipelining (EngineConfig::pipeline): each die's timeline has
// two tracks — a *stream* track that fetches a slot's weights from DRAM
// and a *compute* track that runs the slot — so while die d computes slot
// k it may already stream slot k+1's weights. The model is retroactive and
// needs no new event kinds: at service start the head's stream share (its
// cold weighting stage plus any variant setup) is laid onto the stream
// track as late as possible while still ending by `now` when it can, never
// before the track freed or the head was routed, and its compute runs from
// the stream's end. The head's record spans both tracks (start = stream
// start), followers chain off the head's finish, and a pipelined slot never
// finishes after its serial finish. The report records the stream cycles
// the pipeline hid plus per-die stream-track occupancy. With pipelining
// disabled the stream share is zero and the head starts at `now`. A die's
// busy cycles are its slots' spans from service start to slot end, so
// stream time hidden under the previous slot is counted once, as hidden,
// and utilization never exceeds 1.
//
// Plan variants (EngineConfig::pipeline.variant_widths, default empty):
// plan_variant_family derives one PlanVariant per configured width, wider
// variants paying more one-time setup (kVariantSetupCycles per extra width)
// but letting more coalesced followers share the slot's weight stream (a
// follower at slot position i rides only if i < width). Dispatch picks the
// cheapest variant for each slot at assembly time (deterministic: strict
// improvement, narrowest wins ties) and records the pick in
// RequestRecord::variant_width plus the report's per-width slot counts. An
// empty width list yields the single unbounded (width 0) zero-setup
// variant, so every record carries width 0 and the counts hold one {0,
// slots} entry.
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
// only. Warmth enablement, max_coalesce, pipeline enablement and the
// plan-variant widths must match the reference config across the fleet
// (they define what a service slot means, not a die's design), so one
// variant family serves every die; residency budgets
// may differ per die, and the plan-swap penalty and variant setup are
// fixed constants. A homogeneous FleetSpec over the reference config is
// bit-exact with the Cluster(model, dies) constructor.
//
// SLOs and admission (serve/slo.hpp): deadline-carrying traces
// (TraceStream::slo_cycles) stamp each record's deadline, and every offer
// first passes the AdmissionPolicy, which may shed the request — recorded
// with shed = true, start = finish = the shed time, no die attribution,
// and counted against SLO attainment but never in latency percentiles.
// The default admit-all policy sheds nothing.
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
/// `cluster.simulate(trace, {.scheduler = SchedulerKind::kSloAware})`.
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
  /// (model, weights) under the degree-aware policy; a custom CachePolicy
  /// handed to the reference Engine does not propagate to fleet configs.
  /// Sampled (GraphSAGE) plans are rejected at simulate() time with
  /// std::invalid_argument.
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
  CompiledModel model_;
  std::size_t die_count_;
  FleetSpec spec_;
  /// One compiled model per spec_.configs entry (model_ itself for the
  /// homogeneous constructor); die d runs config spec_.assignment[d].
  std::vector<CompiledModel> config_models_;
  bool heterogeneous_ = false;
  /// Cluster-lifetime (config, plan, features) → service-cost cache, shared
  /// by every simulate() call (and by copies of this cluster — entries are
  /// exact, so sharing is always safe). shared_ptr keeps Cluster copyable.
  std::shared_ptr<ServiceCostCache> cost_cache_;
};

}  // namespace gnnie::serve
