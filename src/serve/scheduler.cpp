#include "serve/scheduler.hpp"

#include <limits>

#include "common/require.hpp"
#include "serve/warmth.hpp"

namespace gnnie::serve {

namespace {

/// Warmth component of the routing-time estimate (no coalescing applied).
Cycles estimate_warmth_service(const DieStatus& die, const RequestEstimate& estimate) {
  const ServiceCost& cost = *estimate.cost;
  if (die.warmth == nullptr) return cost.total_cycles;  // warmth disabled
  if (die.warmth->is_resident(estimate.fingerprint)) {
    // Interpolate cold → fully-warm by the resident fraction: a working
    // set larger than the die budget is truncated on load, so residency
    // can be partial and the die is slower than its fully-warm estimate.
    const double f =
        die.warmth->warm_fraction(estimate.fingerprint, estimate.working_set_bytes);
    const Cycles saving = cost.total_cycles - cost.warm_cycles;
    return cost.total_cycles - static_cast<Cycles>(f * static_cast<double>(saving));
  }
  // The last plan routed here will be resident by the time the queue
  // drains — treat it as warm-to-be.
  if (die.affinity_fingerprint == estimate.fingerprint) return cost.warm_cycles;
  // Cold on this die; displacing resident state also costs the swap
  // penalty. (A die with spare budget may not actually swap — this is a
  // routing-time upper estimate, not the charge.)
  return cost.total_cycles + (die.warmth->resident_bytes() > 0 ? kPlanSwapPenaltyCycles : 0);
}

}  // namespace

Cycles estimate_die_service(const DieStatus& die, const RequestEstimate& estimate) {
  Cycles service = estimate_warmth_service(die, estimate);
  if (estimate.coalesce_count > 1 &&
      die.queue_head_fingerprint == estimate.fingerprint) {
    // The die's head-of-line slot is joinable for this plan: the request
    // rides it as a coalesced follower, its own weighting setup amortized
    // away. Lives here — not in individual schedulers — so pick() and the
    // cluster's queued-backlog accounting price the ride identically.
    service -= std::min(service, estimate.cost->batch_saving_cycles);
  }
  if (estimate.pipeline_stream_cycles > 0 && (die.busy || die.queue_depth > 0)) {
    // Intra-die pipelining: a slot that starts behind other work overlaps
    // its weight stream with the predecessor's compute, so the service the
    // die visibly adds shrinks by the stream-track share. Only filled when
    // EngineConfig::pipeline is on, so pipeline-off estimates are
    // untouched.
    service -= std::min(service, estimate.pipeline_stream_cycles);
  }
  return service;
}

namespace {

/// Die with the fewest in-flight requests, lowest index on ties.
std::size_t least_loaded(std::span<const DieStatus> dies) {
  std::size_t best = 0;
  for (std::size_t d = 1; d < dies.size(); ++d) {
    if (dies[d].in_flight() < dies[best].in_flight()) best = d;
  }
  return best;
}

struct FifoScheduler final : Scheduler {
  SchedulerKind kind() const override { return SchedulerKind::kFifo; }

  std::size_t pick(const TracedRequest&, std::span<const RequestEstimate>,
                   std::span<const DieStatus> dies, Cycles) const override {
    // Global FIFO: only dispatch onto an idle die; otherwise wait in the
    // arrival-order queue. Starts therefore happen in arrival order.
    for (std::size_t d = 0; d < dies.size(); ++d) {
      if (!dies[d].busy && dies[d].queue_depth == 0) return d;
    }
    return kDefer;
  }
};

struct ShortestQueueScheduler final : Scheduler {
  SchedulerKind kind() const override { return SchedulerKind::kShortestQueue; }

  std::size_t pick(const TracedRequest&, std::span<const RequestEstimate>,
                   std::span<const DieStatus> dies, Cycles) const override {
    return least_loaded(dies);
  }
};

struct GraphAffinityScheduler final : Scheduler {
  SchedulerKind kind() const override { return SchedulerKind::kGraphAffinity; }

  std::size_t pick(const TracedRequest&, std::span<const RequestEstimate> estimates,
                   std::span<const DieStatus> dies, Cycles) const override {
    // 1. Least-loaded die already holding this graph's plan state.
    std::size_t best = kDefer;
    for (std::size_t d = 0; d < dies.size(); ++d) {
      if (dies[d].affinity_fingerprint != estimates[d].fingerprint) continue;
      if (best == kDefer || dies[d].in_flight() < dies[best].in_flight()) best = d;
    }
    if (best != kDefer) return best;
    // 2. An untouched die (claim it for this graph rather than thrash a
    //    die that is warm for another graph).
    for (std::size_t d = 0; d < dies.size(); ++d) {
      if (dies[d].affinity_fingerprint == 0) return d;
    }
    // 3. Every die is warm for some other graph: spill to the least loaded.
    return least_loaded(dies);
  }
};

/// Predicted completion of the request on die `d`: drain what the die
/// already owes (remaining service + routed backlog), then this request at
/// its per-die estimate — the slo-aware scheduler's drain model.
Cycles predicted_finish(const DieStatus& die, const RequestEstimate& estimate,
                        Cycles now) {
  const Cycles drained =
      (die.busy && die.busy_until > now ? die.busy_until : now) +
      die.queued_cycles_estimate;
  return drained + estimate_die_service(die, estimate);
}

struct SloAwareScheduler final : Scheduler {
  SchedulerKind kind() const override { return SchedulerKind::kSloAware; }

  std::size_t pick(const TracedRequest& request,
                   std::span<const RequestEstimate> estimates,
                   std::span<const DieStatus> dies, Cycles now) const override {
    // Route by predicted slack. Deadline-carrying requests go to the
    // *slowest* die still predicted to meet the deadline — on a
    // heterogeneous fleet that degrades loose-SLO requests onto cheap dies
    // and keeps the fast ones free for tight deadlines; if no die meets the
    // deadline, minimize lateness. Deadline-free requests take the earliest
    // predicted completion, lowest index on ties: a warm die wins until its
    // backlog outweighs the cold penalty elsewhere — locality that yields
    // to load, rather than affinity's locality-at-any-cost.
    // estimate_die_service already includes the coalescing ride discount
    // when the die's head-of-line slot is joinable for this plan, so a
    // matching die wins ties against an equally-loaded cold die.
    std::size_t earliest = 0;
    Cycles earliest_finish = std::numeric_limits<Cycles>::max();
    std::size_t meeting = kDefer;  // latest-finishing die with finish <= deadline
    Cycles meeting_finish = 0;
    for (std::size_t d = 0; d < dies.size(); ++d) {
      const Cycles finish = predicted_finish(dies[d], estimates[d], now);
      if (finish < earliest_finish) {
        earliest_finish = finish;
        earliest = d;
      }
      if (request.has_slo() && finish <= request.deadline &&
          (meeting == kDefer || finish > meeting_finish)) {
        meeting = d;
        meeting_finish = finish;
      }
    }
    if (!request.has_slo()) return earliest;
    return meeting != kDefer ? meeting : earliest;
  }
};

}  // namespace

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo:
      return "fifo";
    case SchedulerKind::kShortestQueue:
      return "shortest-queue";
    case SchedulerKind::kGraphAffinity:
      return "graph-affinity";
    case SchedulerKind::kSloAware:
      return "slo-aware";
  }
  return "?";
}

const std::vector<SchedulerKind>& all_scheduler_kinds() {
  static const std::vector<SchedulerKind> kinds = {
      SchedulerKind::kFifo, SchedulerKind::kShortestQueue, SchedulerKind::kGraphAffinity,
      SchedulerKind::kSloAware};
  return kinds;
}

std::unique_ptr<Scheduler> Scheduler::make(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo:
      return std::make_unique<FifoScheduler>();
    case SchedulerKind::kShortestQueue:
      return std::make_unique<ShortestQueueScheduler>();
    case SchedulerKind::kGraphAffinity:
      return std::make_unique<GraphAffinityScheduler>();
    case SchedulerKind::kSloAware:
      return std::make_unique<SloAwareScheduler>();
  }
  GNNIE_REQUIRE(false, "unknown scheduler kind");
  return nullptr;
}

}  // namespace gnnie::serve
