// Pluggable request dispatch for the serving cluster.
//
// A Scheduler decides, for each arriving (or re-offered) request, which die
// queue it joins — or defers it to the cluster's global arrival-order queue
// to wait for a free die. Four policies ship:
//
//   * FIFO — one global queue: a request is dispatched only when a die is
//     idle, so service starts cluster-wide in arrival order. On one die
//     this services the trace back to back, each request taking exactly
//     its CompiledModel::run cycles.
//   * shortest-queue — join the die with the fewest in-flight requests
//     (queued + in service) at arrival time; classic load balancing.
//   * graph-affinity — like shortest-queue, but prefer dies whose last
//     routed request used the same GraphPlan (matching fingerprint): those
//     dies' plan/cache state matches the request's graph, the DGI/DCI-style
//     locality argument. Falls back to an untouched die, then to the least
//     loaded one.
//   * slo-aware — route by predicted *slack* against the request's deadline
//     over the per-die estimate vector (heterogeneous fleets give every die
//     its own service estimate, serve/fleet.hpp): among dies predicted to
//     meet the deadline, pick the slowest-finishing one — degrading to a
//     cheaper die keeps the fast dies free for requests that need them.
//     When no die can meet the deadline it minimizes lateness. A
//     deadline-free request goes to the die with the earliest *predicted
//     completion*: remaining busy time + the queued-work backlog + this
//     request's warm/cold service estimate against the die's residency
//     state (estimate_die_service) — warmth-aware routing, which with the
//     warmth model disabled is pure predicted-completion load balancing.
//
// pick() receives one RequestEstimate per die: on a heterogeneous fleet the
// same request costs differently per die design, so estimates are a
// per-(die, request) vector (index-aligned with the DieStatus span). On a
// homogeneous cluster all entries are identical.
//
// Schedulers are stateless (all routing state lives in the DieStatus
// snapshots the Cluster maintains), so a (trace, scheduler kind, cluster)
// triple always simulates to the same ServingReport.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "core/serving.hpp"
#include "serve/trace.hpp"

namespace gnnie::serve {

class DieWarmthModel;

enum class SchedulerKind {
  kFifo,
  kShortestQueue,
  kGraphAffinity,
  kSloAware,
};

const char* to_string(SchedulerKind kind);
const std::vector<SchedulerKind>& all_scheduler_kinds();

/// Per-die snapshot handed to the scheduler at each dispatch decision.
struct DieStatus {
  std::size_t queue_depth = 0;  ///< waiting requests (excludes those in service)
  bool busy = false;            ///< a service slot is running right now
  /// Requests inside the running service slot (0 when idle; 1 when busy
  /// with coalescing off; the group size when a coalesced slot runs).
  /// in_flight() counts these, so a die mid-way through an 8-request slot
  /// does not masquerade as nearly idle to load balancers.
  std::size_t in_service_count = 0;
  Cycles busy_until = 0;        ///< finish time of the running slot (if busy)
  /// Plan fingerprint of the last request routed to this die (0 = none yet)
  /// — the graph whose plan/cache state the die will hold once its queue
  /// drains. Graph-affinity routes on this.
  std::uint64_t affinity_fingerprint = 0;
  /// Summed service estimates (made at routing time) of the requests
  /// waiting in this die's queue — the scheduler-visible backlog.
  Cycles queued_cycles_estimate = 0;
  /// Plan fingerprint of the request at the head of this die's queue —
  /// the plan whose service slot the next coalesced group forms around —
  /// published only while that slot can still absorb another same-plan
  /// request (0 when the queue is empty, coalescing is off, or the queue
  /// already holds max_coalesce requests of the head's plan). Schedulers
  /// that want to ride a slot (EngineConfig::batching) route same-plan
  /// requests here.
  std::uint64_t queue_head_fingerprint = 0;
  /// The die's cache-residency model, null when warmth is disabled
  /// (EngineConfig::warmth). Read-only for schedulers.
  const DieWarmthModel* warmth = nullptr;

  std::size_t in_flight() const { return queue_depth + in_service_count; }
};

/// Cluster-computed service-cost estimate handed to pick() alongside each
/// request: the request's cost record on the estimated die's config plus
/// the routing metadata (plan identity, working set, per-die coalescing
/// opportunity) the record cannot know. The record is the same whichever
/// serving knobs are on; each reader applies them itself
/// (estimate_die_service prices the cold cost on a die without a warmth
/// model, and the ride discount only when coalesce_count > 1).
struct RequestEstimate {
  /// The request's ServiceCost on this die's config — the cluster's
  /// memoized entry, valid for the whole simulate() call.
  const ServiceCost* cost = nullptr;
  /// The request's plan fingerprint (GraphPlan::fingerprint), the same on
  /// every die: the identity affinity routing and coalescing key on.
  std::uint64_t fingerprint = 0;
  /// GraphPlan::warm_working_set_bytes of the plan this die's config prices.
  Bytes working_set_bytes = 0;
  /// The same-plan backlog THIS die's next slot could actually drain: 1 +
  /// the same-plan requests waiting in this die's own queue plus the
  /// global queue, capped at EngineConfig::batching.max_coalesce. Per-die
  /// because a service slot can only coalesce from those two queues —
  /// same-plan requests parked on other dies' queues are unreachable and
  /// are deliberately not counted (an earlier cluster-wide count promised
  /// phantom batch savings a slot could never collect). Used as the > 1
  /// gate paired with DieStatus::queue_head_fingerprint. Always 1 with
  /// coalescing off.
  std::uint32_t coalesce_count = 1;
  /// Stream-track cycles of a slot headed by this request, filled only
  /// when intra-die pipelining is enabled (EngineConfig::pipeline):
  /// the share of its service a busy die would overlap with its current
  /// slot's compute. 0 keeps estimates bit-exact with the pipeline-unaware
  /// scheduler.
  Cycles pipeline_stream_cycles = 0;
};

/// Routing-time service estimate of a request on one die: the cold cost on
/// a die without a warmth model; else the warm cost if the die's residency
/// (or its last routed plan — it will be resident by the time the queue
/// drains) matches, else the cold cost plus kPlanSwapPenaltyCycles when the
/// die holds some other plan's state; minus the coalescing ride discount
/// (ServiceCost::batch_saving_cycles) when the die's head-of-line slot is
/// joinable for this plan; minus the pipelined stream share
/// (RequestEstimate::pipeline_stream_cycles) when the request would start
/// behind other work. The cluster uses the same estimate to maintain
/// DieStatus::queued_cycles_estimate, so the slo-aware scheduler's
/// predicted completions are self-consistent — including the ride
/// discount.
Cycles estimate_die_service(const DieStatus& die, const RequestEstimate& estimate);

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual SchedulerKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// Sentinel: leave the request in the cluster's global FIFO; it is
  /// re-offered every time a die completes.
  static constexpr std::size_t kDefer = static_cast<std::size_t>(-1);

  /// Dispatch decision for one request: a die index to enqueue it on, or
  /// kDefer. `estimates` holds this request's service estimate on each die
  /// (index-aligned with `dies`; identical entries on a homogeneous
  /// cluster). Must be deterministic in (request, estimates, dies, now) —
  /// ties broken by die index — so simulations are reproducible.
  virtual std::size_t pick(const TracedRequest& request,
                           std::span<const RequestEstimate> estimates,
                           std::span<const DieStatus> dies, Cycles now) const = 0;

  static std::unique_ptr<Scheduler> make(SchedulerKind kind);
};

}  // namespace gnnie::serve
