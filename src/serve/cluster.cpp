#include "serve/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/audit.hpp"
#include "common/require.hpp"
#include "serve/cost_cache.hpp"
#include "serve/warmth.hpp"

namespace gnnie::serve {

Cluster::Cluster(CompiledModel model, std::size_t dies)
    : model_(std::move(model)),
      die_count_(dies),
      cost_cache_(std::make_shared<ServiceCostCache>()) {
  GNNIE_REQUIRE(dies >= 1, "a cluster needs at least one die");
  // A one-config fleet whose config 0 is the model itself, so the
  // requests' own plans (GraphSAGE's sampled ones included) price as is.
  spec_ = FleetSpec::homogeneous(model_.config(), dies);
  spec_.configs[0].cache_policy = model_.cache_policy().kind();
  config_models_.push_back(model_);
  die_config_.assign(dies, 0);
  config_scale_.assign(1, 1.0);
}

Cluster::Cluster(const CompiledModel& reference, FleetSpec spec)
    : model_(reference),
      die_count_(spec.die_count()),
      spec_(std::move(spec)),
      cost_cache_(std::make_shared<ServiceCostCache>()) {
  spec_.validate();
  const EngineConfig& ref = model_.config();
  config_models_.reserve(spec_.configs.size());
  config_scale_.reserve(spec_.configs.size());
  for (const FleetDieConfig& cfg : spec_.configs) {
    // Warmth enablement and the coalescing width are serving-protocol
    // knobs, not die properties — a fleet mixing them would change what a
    // "service slot" means per die and silently skew comparisons.
    GNNIE_REQUIRE(cfg.engine.warmth.enabled == ref.warmth.enabled,
                  "fleet configs must match the reference warmth enablement");
    GNNIE_REQUIRE(cfg.engine.batching.max_coalesce == ref.batching.max_coalesce,
                  "fleet configs must match the reference max_coalesce");
    GNNIE_REQUIRE(cfg.engine.pipeline.enabled == ref.pipeline.enabled,
                  "fleet configs must match the reference pipeline enablement");
    GNNIE_REQUIRE(cfg.engine.pipeline.variant_widths == ref.pipeline.variant_widths,
                  "fleet configs must match the reference plan-variant widths");
    const CachePolicyKind policy = cfg.cache_policy.value_or(CachePolicyKind::kDegreeAware);
    config_models_.push_back(Engine(cfg.engine, CachePolicy::make(policy))
                                 .compile(model_.model(), model_.weights()));
    config_scale_.push_back(ref.clock_hz / cfg.engine.clock_hz);
  }
  die_config_ = spec_.assignment;
  for (std::size_t c : die_config_) {
    if (c != die_config_.front()) heterogeneous_ = true;
  }
}

std::size_t Cluster::costed_triples() const { return cost_cache_->size(); }

namespace {

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Mutable per-die simulation state (the Scheduler only ever sees the
/// DieStatus snapshot view). Queues live in the shared request arena, not
/// here, so a die is just its running slot.
struct DieState {
  bool busy = false;
  /// Indices of the coalesced group in service (slot order; size 1 when
  /// coalescing is off). The die is busy until the whole slot drains —
  /// groups are atomic. Reused across slots, so its capacity is paid once.
  std::vector<std::size_t> group;
};

/// The die-completion event queue: one (finish time, die) entry per busy
/// die, popped in (time, die-index) order — lexicographic pair order makes
/// simultaneous completions finish in die-index order, exactly the rule the
/// scan-based loop applied. An entry is immutable once pushed (a slot's
/// finish never moves) and a die never holds two, so the heap needs no
/// decrease-key or lazy deletion.
class CompletionHeap {
 public:
  explicit CompletionHeap(std::size_t dies) { items_.reserve(dies); }

  bool empty() const { return items_.empty(); }
  Cycles next_time() const { return items_.front().first; }

  void push(Cycles at, std::size_t die) {
    items_.emplace_back(at, die);
    std::size_t i = items_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (items_[parent] <= items_[i]) break;
      std::swap(items_[parent], items_[i]);
      i = parent;
    }
  }

  /// Audit-only (GNNIE_AUDIT): full re-check of the heap's structural
  /// invariants — the binary-heap key order over (time, die) pairs, and the
  /// one-entry-per-busy-die discipline that lets the loop skip decrease-key
  /// and lazy deletion. O(n²) in busy dies, which is small by construction.
  bool audit_valid() const {
    for (std::size_t i = 1; i < items_.size(); ++i) {
      if (items_[(i - 1) / 2] > items_[i]) return false;
    }
    for (std::size_t i = 0; i < items_.size(); ++i) {
      for (std::size_t j = i + 1; j < items_.size(); ++j) {
        if (items_[i].second == items_[j].second) return false;
      }
    }
    return true;
  }

  /// Removes and returns the die of the earliest event.
  std::size_t pop_die() {
    const std::size_t die = items_.front().second;
    items_.front() = items_.back();
    items_.pop_back();
    std::size_t i = 0;
    while (true) {
      const std::size_t left = 2 * i + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = i;
      if (left < items_.size() && items_[left] < items_[smallest]) smallest = left;
      if (right < items_.size() && items_[right] < items_[smallest]) smallest = right;
      if (smallest == i) break;
      std::swap(items_[i], items_[smallest]);
      i = smallest;
    }
    return die;
  }

 private:
  std::vector<std::pair<Cycles, std::size_t>> items_;
};

/// An intrusive FIFO over the shared per-request link arena: requests spend
/// their whole waiting life in exactly one queue, so one next/prev pair per
/// request backs every die queue plus the global queue with zero per-request
/// allocation. Supports the three moves the simulator makes: append, put
/// back at the head (a failed re-offer), and mid-queue removal (coalescing
/// drain).
struct ArenaFifo {
  std::uint32_t head = kNone;
  std::uint32_t tail = kNone;
  std::size_t count = 0;
};

}  // namespace

ServingReport Cluster::simulate(const RequestTrace& trace,
                                const SimulateOptions& options) const {
  // Resolve the policy objects once, then run the one real loop. Owned
  // policies are stateless, so making them per call costs nothing against
  // a simulation.
  std::unique_ptr<Scheduler> owned_scheduler;
  const Scheduler* scheduler = options.custom_scheduler;
  if (scheduler == nullptr) {
    owned_scheduler = Scheduler::make(options.scheduler);
    scheduler = owned_scheduler.get();
  }
  std::unique_ptr<AdmissionPolicy> owned_admission;
  const AdmissionPolicy* admission = options.custom_admission;
  if (admission == nullptr) {
    if (options.admission == AdmissionKind::kAdmitAll) {
      admission = &AdmissionPolicy::admit_all();
    } else {
      owned_admission = AdmissionPolicy::make(options.admission);
      admission = owned_admission.get();
    }
  }
  return simulate_impl(trace, *scheduler, *admission);
}

ServingReport Cluster::simulate_impl(const RequestTrace& trace,
                                     const Scheduler& scheduler,
                                     const AdmissionPolicy& admission) const {
  const EngineConfig& config = model_.config();
  const WarmthConfig& wcfg = config.warmth;
  const std::uint32_t max_coalesce = config.batching.max_coalesce;
  const std::size_t config_count = config_models_.size();

  // Intra-die pipelining and the plan-variant family. The fleet
  // constructor pins enablement and widths to the reference config, and
  // setup costs are the fixed kVariantSetupCycles, so one family serves
  // every die. The default family is one unbounded zero-setup variant, so
  // dispatch always picks it.
  const bool pipeline_on = config.pipeline.enabled;
  const std::vector<PlanVariant> family = plan_variant_family(config);

  ServingReport report;
  report.dies = die_count_;
  report.scheduler = scheduler.name();
  report.clock_hz = config.clock_hz;
  report.die_busy_cycles.assign(die_count_, 0);
  report.warmth_enabled = wcfg.enabled;
  report.die_requests.assign(die_count_, 0);
  report.die_warm_hits.assign(die_count_, 0);
  report.die_plan_swaps.assign(die_count_, 0);
  report.max_coalesce = max_coalesce;
  report.pipeline_enabled = pipeline_on;
  report.die_stream_cycles.assign(die_count_, 0);
  // One counter per family member, family order, so a pick's family index
  // indexes this histogram directly.
  report.variant_counts.reserve(family.size());
  for (const PlanVariant& v : family) {
    report.variant_counts.emplace_back(v.width, 0);
  }
  report.streams = trace.stream_count();
  report.fleet_cost = spec_.total_cost();
  report.die_labels.reserve(die_count_);
  for (std::size_t d = 0; d < die_count_; ++d) {
    report.die_labels.push_back(spec_.configs[die_config_[d]].label);
  }
  report.requests.resize(trace.size());

  const std::vector<TracedRequest>& arrivals = trace.requests();
  GNNIE_REQUIRE(arrivals.size() < kNone, "trace too large for 32-bit request indices");
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    report.requests[i].stream = arrivals[i].stream;
    report.requests[i].arrival = arrivals[i].arrival;
    report.requests[i].deadline = arrivals[i].deadline;
  }

  // Config-native cycles → reference virtual cycles. The == 1.0 fast path
  // is a guarantee, not an optimization: equal clocks must not round.
  auto scale_cycles = [&](Cycles cycles, std::size_t cfg) -> Cycles {
    const double s = config_scale_[cfg];
    if (s == 1.0) return cycles;
    return static_cast<Cycles>(std::llround(static_cast<double>(cycles) * s));
  };

  // ---- Per-stream resolution --------------------------------------------
  // Every request is one of the trace's streams, so all per-request cost
  // and identity lookups collapse to dense per-stream tables resolved up
  // front: the plan fingerprint, a dense fingerprint index (distinct
  // fingerprints ≤ streams — used for the incremental waiting counts), and
  // a raw ServiceCost pointer per (config, stream) so the hot path never
  // searches the cache. Costs come from the cluster-lifetime
  // ServiceCostCache: runs are stateless, so entries are exact and shared
  // across simulate() calls — a load sweep over one cluster costs each
  // triple once. A config prices the request's own plan when its compiled
  // model built that plan (config 0 of the homogeneous constructor);
  // otherwise it re-plans the request's graph (deterministic, so a
  // structurally identical plan with the same fingerprint) and costs that.
  const std::size_t stream_count = trace.stream_count();
  std::vector<std::uint64_t> stream_fp(stream_count);
  std::vector<std::uint32_t> stream_fpi(stream_count);
  std::vector<std::uint64_t> distinct_fp;
  for (std::size_t s = 0; s < stream_count; ++s) {
    stream_fp[s] = trace.stream(s).plan->fingerprint();
    std::size_t i = 0;
    while (i < distinct_fp.size() && distinct_fp[i] != stream_fp[s]) ++i;
    if (i == distinct_fp.size()) distinct_fp.push_back(stream_fp[s]);
    stream_fpi[s] = static_cast<std::uint32_t>(i);
  }
  const std::size_t fp_slots = distinct_fp.size();

  // Lazily resolved so a stream no request ever touches is never costed
  // (and a sampled plan is rejected only when a request actually needs it
  // re-planned).
  std::vector<const CostEntry*> resolved(config_count * stream_count, nullptr);
  auto cost_at = [&](std::size_t cfg, std::size_t s) -> const CostEntry& {
    const CostEntry*& slot = resolved[cfg * stream_count + s];
    if (slot == nullptr) {
      const TraceStream& stream = trace.stream(s);
      const ServiceCostCache::Key key{cfg, stream.plan.get(), stream.features};
      slot = &cost_cache_->get(key, [&]() -> CostEntry {
        const CompiledModel& priced_on = config_models_[cfg];
        CostEntry entry;
        RunRequest routed;
        routed.plan = stream.plan;
        routed.features = stream.features;
        if (!priced_on.owns(*stream.plan)) {
          // Sampling is fresh per plan() call, so a re-plan could not
          // reproduce the request's sampled adjacencies.
          GNNIE_REQUIRE(stream.plan->sampled_layer_count() == 0,
                        "sampled (GraphSAGE) plans cannot be re-planned for a fleet die config");
          routed.plan = priced_on.plan(stream.plan->graph());
        }
        entry.plan = routed.plan;
        entry.working_set = routed.plan->warm_working_set_bytes();
        // One cold run per triple: entry.cost.head carries the
        // cold/warm/stage-split scalars, entry.cost.warm_stages the exact
        // per-stage warmth surface (warm_total(f) reproduces
        // warm_total_cycles on the cold report bit-for-bit). Policy gating
        // (warmth off, coalescing off) and slot pricing happen at
        // charge/estimate time, not here — the entry is policy-independent
        // by design.
        entry.cost = priced_on.cost(routed);
        return entry;
      });
    }
    return *slot;
  };
  auto cost_of = [&](std::size_t cfg, std::size_t idx) -> const CostEntry& {
    return cost_at(cfg, arrivals[idx].stream);
  };
  auto fingerprint_of = [&](std::size_t idx) -> std::uint64_t {
    return stream_fp[arrivals[idx].stream];
  };
  auto fpi_of = [&](std::size_t idx) -> std::uint32_t {
    return stream_fpi[arrivals[idx].stream];
  };

  // ---- Arena-backed queues and incremental waiting counts ---------------
  // One next/prev pair per request backs every queue; per-(die, fingerprint)
  // and global per-fingerprint waiting counts are maintained on every queue
  // move, so the coalescing-opportunity and head-slot-openness questions the
  // old loop answered by scanning whole queues are O(1) lookups.
  std::vector<std::uint32_t> q_next(arrivals.size(), kNone);
  std::vector<std::uint32_t> q_prev(arrivals.size(), kNone);
  std::vector<ArenaFifo> die_queue(die_count_);
  ArenaFifo deferred;  // the global arrival-order queue
  std::vector<std::uint32_t> die_fp_count(die_count_ * fp_slots, 0);
  std::vector<std::uint32_t> deferred_fp_count(fp_slots, 0);

  auto fifo_push_back = [&](ArenaFifo& q, std::uint32_t idx) {
    q_prev[idx] = q.tail;
    q_next[idx] = kNone;
    if (q.tail == kNone) {
      q.head = idx;
    } else {
      q_next[q.tail] = idx;
    }
    q.tail = idx;
    ++q.count;
  };
  auto fifo_push_front = [&](ArenaFifo& q, std::uint32_t idx) {
    q_next[idx] = q.head;
    q_prev[idx] = kNone;
    if (q.head == kNone) {
      q.tail = idx;
    } else {
      q_prev[q.head] = idx;
    }
    q.head = idx;
    ++q.count;
  };
  auto fifo_remove = [&](ArenaFifo& q, std::uint32_t idx) {
    const std::uint32_t prev = q_prev[idx];
    const std::uint32_t next = q_next[idx];
    if (prev == kNone) {
      q.head = next;
    } else {
      q_next[prev] = next;
    }
    if (next == kNone) {
      q.tail = prev;
    } else {
      q_prev[next] = prev;
    }
    --q.count;
  };

#if GNNIE_AUDIT_ENABLED
  // Audit-only invariant re-derivations (compiled out in Release — each is
  // O(state) work on paths the indexes exist to keep O(1)). The link walk
  // is capped so the audit leg's million-request smokes stay tractable:
  // long queues get endpoint + prefix checks, short ones a full recount.
  constexpr std::size_t kAuditWalkCap = 64;
  auto audit_fifo_links = [&](const ArenaFifo& q) -> bool {
    if ((q.head == kNone) != (q.count == 0)) return false;
    if ((q.tail == kNone) != (q.count == 0)) return false;
    if (q.count == 0) return true;
    if (q_prev[q.head] != kNone || q_next[q.tail] != kNone) return false;
    std::size_t walked = 0;
    std::uint32_t it = q.head;
    std::uint32_t last = kNone;
    while (it != kNone && walked < kAuditWalkCap) {
      if (q_prev[it] != last) return false;
      last = it;
      it = q_next[it];
      ++walked;
    }
    if (it == kNone) return walked == q.count && last == q.tail;
    return q.count > kAuditWalkCap;  // prefix verified; rest uncounted
  };
  // Per-fingerprint waiting-count conservation: the incremental counters
  // must equal a from-scratch recount of the queue they index.
  auto audit_counts = [&](const ArenaFifo& q, const std::uint32_t* counts) -> bool {
    std::uint64_t sum = 0;
    for (std::size_t f = 0; f < fp_slots; ++f) sum += counts[f];
    if (sum != q.count) return false;
    if (q.count > kAuditWalkCap) return true;  // conservation sum only
    std::vector<std::uint32_t> tally(fp_slots, 0);
    for (std::uint32_t it = q.head; it != kNone; it = q_next[it]) ++tally[fpi_of(it)];
    for (std::size_t f = 0; f < fp_slots; ++f) {
      if (tally[f] != counts[f]) return false;
    }
    return true;
  };
  auto audit_die_queue = [&](std::size_t d) -> bool {
    return audit_fifo_links(die_queue[d]) &&
           audit_counts(die_queue[d], &die_fp_count[d * fp_slots]);
  };
  auto audit_deferred = [&]() -> bool {
    return audit_fifo_links(deferred) &&
           audit_counts(deferred, deferred_fp_count.data());
  };
#endif

  auto die_enqueue = [&](std::size_t d, std::uint32_t idx) {
    fifo_push_back(die_queue[d], idx);
    ++die_fp_count[d * fp_slots + fpi_of(idx)];
    GNNIE_AUDIT_ASSERT(audit_die_queue(d),
                       "die queue links/fingerprint counts diverged after enqueue");
  };
  auto die_remove = [&](std::size_t d, std::uint32_t idx) {
    fifo_remove(die_queue[d], idx);
    --die_fp_count[d * fp_slots + fpi_of(idx)];
    GNNIE_AUDIT_ASSERT(audit_die_queue(d),
                       "die queue links/fingerprint counts diverged after remove");
  };
  auto defer_push_back = [&](std::uint32_t idx) {
    fifo_push_back(deferred, idx);
    ++deferred_fp_count[fpi_of(idx)];
    GNNIE_AUDIT_ASSERT(audit_deferred(),
                       "deferred queue links/fingerprint counts diverged after push");
  };
  auto defer_push_front = [&](std::uint32_t idx) {
    fifo_push_front(deferred, idx);
    ++deferred_fp_count[fpi_of(idx)];
    GNNIE_AUDIT_ASSERT(audit_deferred(),
                       "deferred queue links/fingerprint counts diverged after re-offer");
  };
  auto defer_remove = [&](std::uint32_t idx) {
    fifo_remove(deferred, idx);
    --deferred_fp_count[fpi_of(idx)];
    GNNIE_AUDIT_ASSERT(audit_deferred(),
                       "deferred queue links/fingerprint counts diverged after remove");
  };

  // Same-plan requests this die's next slot for `fpi` could actually drain:
  // its own queue plus the global queue. (Requests queued on OTHER dies are
  // invisible to this die's slot — they are deliberately not counted.)
  auto waiting_same_plan_on_die = [&](std::size_t d, std::uint32_t fpi) -> std::size_t {
    return die_fp_count[d * fp_slots + fpi] + deferred_fp_count[fpi];
  };

  // The per-(die, request) estimate vector handed to pick()/shed(): one
  // entry per distinct config, copied out per die (identical entries on a
  // homogeneous cluster apart from the per-die coalesce count). Scratch
  // buffers reused across offers.
  std::vector<RequestEstimate> die_estimates(die_count_);
  std::vector<RequestEstimate> config_estimates(config_count);
  std::vector<char> config_ready(config_count, 0);
  auto estimates_of = [&](std::size_t idx) -> const std::vector<RequestEstimate>& {
    const std::uint64_t fp = fingerprint_of(idx);
    const std::uint32_t fpi = fpi_of(idx);
    std::fill(config_ready.begin(), config_ready.end(), 0);
    for (std::size_t d = 0; d < die_count_; ++d) {
      const std::size_t cfg = die_config_[d];
      if (!config_ready[cfg]) {
        const CostEntry& entry = cost_of(cfg, idx);
        const ServiceCostSummary& head = entry.cost.head;
        RequestEstimate est;
        est.fingerprint = fp;
        est.working_set_bytes = entry.working_set;
        // The cluster owns the policy gates: the memo entry is
        // policy-independent, the estimate reflects what this simulation
        // will actually charge (warmth off → warm == cold, no penalty;
        // coalescing off → no follower saving; pipeline off → no stream
        // share). All scaled into the reference clock domain.
        est.cost.cold_cycles = scale_cycles(head.cold_cycles, cfg);
        est.cost.warm_cycles =
            wcfg.enabled ? scale_cycles(head.warm_cycles, cfg) : est.cost.cold_cycles;
        est.cost.swap_penalty_cycles =
            wcfg.enabled ? scale_cycles(kPlanSwapPenaltyCycles, cfg) : 0;
        est.cost.batch_saving_cycles =
            max_coalesce > 1 ? scale_cycles(head.batch_saving_cycles, cfg) : 0;
        est.cost.weighting_cycles = scale_cycles(head.weighting_cycles, cfg);
        est.cost.aggregation_cycles = scale_cycles(head.aggregation_cycles, cfg);
        est.pipeline_stream_cycles =
            pipeline_on ? scale_cycles(head.weighting_cycles, cfg) : 0;
        config_estimates[cfg] = est;
        config_ready[cfg] = 1;
      }
      die_estimates[d] = config_estimates[cfg];
      // Per-die: 1 + the same-plan requests THIS die's next slot could
      // drain (own queue + the global queue), capped at the slot width.
      die_estimates[d].coalesce_count =
          max_coalesce > 1
              ? static_cast<std::uint32_t>(std::min<std::size_t>(
                    max_coalesce, 1 + waiting_same_plan_on_die(d, fpi)))
              : 1;
    }
    return die_estimates;
  };

  std::vector<DieState> dies(die_count_);
  std::vector<DieStatus> status(die_count_);
  std::vector<DieWarmthModel> warmth;
  if (wcfg.enabled) {
    warmth.reserve(die_count_);
    for (std::size_t d = 0; d < die_count_; ++d) {
      warmth.emplace_back(config_models_[die_config_[d]].config().warmth_die_budget());
    }
    for (std::size_t d = 0; d < die_count_; ++d) status[d].warmth = &warmth[d];
  }
  // Routing-time service estimate of each queued request, so the die's
  // queued-backlog estimate can be released when service starts.
  std::vector<Cycles> routed_estimate(arrivals.size(), 0);
  // Pipelining state: per-die stream-track free time (the stream port
  // serves one slot's weights at a time — it never overlaps two slots) and
  // each request's routing time (a slot's weight stream cannot start
  // before the cluster knew the request would run on this die). Both are
  // only read when pipeline_on.
  std::vector<Cycles> stream_free(die_count_, 0);
  std::vector<Cycles> routed_time(arrivals.size(), 0);
  // Slot-assembly scratch (reused across slots): each member's serial
  // charge and follower saving in the config's own clock domain.
  std::vector<Cycles> member_service;
  std::vector<Cycles> member_saving;
  member_service.reserve(std::max<std::uint32_t>(1, max_coalesce));
  member_saving.reserve(std::max<std::uint32_t>(1, max_coalesce));
  CompletionHeap completions(die_count_);
  std::size_t next_arrival = 0;
  std::size_t completed = 0;

  auto sync_queue_status = [&](std::size_t d) {
    status[d].queue_depth = die_queue[d].count;
    // Publish the head-of-line plan only while the head's upcoming slot
    // can still absorb another same-plan request — once the queue already
    // holds max_coalesce of them, a newcomer would run in a later slot and
    // must not be promised the ride discount.
    std::uint64_t head_fp = 0;
    if (die_queue[d].count != 0 && max_coalesce > 1) {
      const std::uint32_t head = die_queue[d].head;
      if (die_fp_count[d * fp_slots + fpi_of(head)] < max_coalesce) {
        head_fp = fingerprint_of(head);
      }
    }
    status[d].queue_head_fingerprint = head_fp;
  };

  // Start one service slot on die `d`: the head request plus — when
  // coalescing is on — up to max_coalesce−1 waiting requests sharing the
  // head's plan fingerprint, drained first from this die's own queue, then
  // from the global arrival-order queue. The slot is atomic: the die stays
  // busy until every member drains, warmth residency is touched once, and
  // followers are charged with their weighting setup amortized away. This
  // is the only code that prices a service slot: warmth, swap penalty,
  // coalescing, and variant dispatch all apply here, to the memoized
  // one-request costs.
  auto start_service = [&](std::size_t d, std::size_t head, Cycles now) {
    const std::size_t cfg = die_config_[d];
    const std::uint64_t fp = fingerprint_of(head);
    DieState& die = dies[d];
    die.group.clear();
    die.group.push_back(head);
    if (max_coalesce > 1) {
      const std::uint32_t fpi = fpi_of(head);
      // The waiting counts bound both walks: stop as soon as every
      // same-plan waiter has been taken, not at the end of the queue.
      std::uint32_t it = die_queue[d].head;
      while (it != kNone && die.group.size() < max_coalesce &&
             die_fp_count[d * fp_slots + fpi] > 0) {
        const std::uint32_t next = q_next[it];
        if (fpi_of(it) == fpi) {
          status[d].queued_cycles_estimate -=
              std::min(status[d].queued_cycles_estimate, routed_estimate[it]);
          die.group.push_back(it);
          die_remove(d, it);
        }
        it = next;
      }
      sync_queue_status(d);
      std::uint32_t jt = deferred.head;
      while (jt != kNone && die.group.size() < max_coalesce &&
             deferred_fp_count[fpi] > 0) {
        const std::uint32_t next = q_next[jt];
        if (fpi_of(jt) == fpi) {
          die.group.push_back(jt);
          defer_remove(jt);
        }
        jt = next;
      }
    }
#if GNNIE_AUDIT_ENABLED
    // Slot-assembly invariants: a slot is nonempty, never wider than the
    // coalescing cap, and every member shares the head's plan fingerprint
    // (the premise of the one-weighting-pass cost model).
    auto audit_group = [&]() -> bool {
      if (die.group.empty() || die.group.size() > std::max<std::uint32_t>(1, max_coalesce)) {
        return false;
      }
      for (std::size_t idx : die.group) {
        if (fingerprint_of(idx) != fp) return false;
      }
      return true;
    };
#endif
    GNNIE_AUDIT_ASSERT(audit_group(), "coalesced slot violates its assembly invariants");

    // One residency touch per slot. The head sees the fraction resident on
    // arrival; followers run back-to-back behind it and see the post-load
    // fraction — exactly what serial service would have charged them, so a
    // coalesced slot can only subtract from the serial sum, never add.
    double head_fraction = 0.0;
    double follower_fraction = 0.0;
    bool swapped = false;
    if (wcfg.enabled) {
      const Bytes working_set = cost_of(cfg, head).working_set;
      const DieWarmthModel::Touch touch = warmth[d].touch(fp, working_set);
      head_fraction = touch.warm_fraction;
      follower_fraction = warmth[d].warm_fraction(fp, working_set);
      swapped = touch.swapped;
    }

    // ---- Pass 1: per-member stand-alone charges --------------------------
    // Each member's serial charge in the config's own clock domain (warmth
    // discount and the head's swap penalty applied; no follower discount
    // yet — that depends on the variant picked below). Warmth bookkeeping
    // happens here, in slot order, exactly as the single-pass loop recorded
    // it.
    member_service.clear();
    member_saving.clear();
    for (std::size_t i = 0; i < die.group.size(); ++i) {
      const std::size_t idx = die.group[i];
      const CostEntry& entry = cost_of(cfg, idx);
      Cycles service = entry.cost.head.cold_cycles;
      if (wcfg.enabled) {
        RequestRecord& rec = report.requests[idx];
        const double fraction = i == 0 ? head_fraction : follower_fraction;
        service = entry.cost.warm_total(fraction);
        if (i == 0 && swapped) service += kPlanSwapPenaltyCycles;
        rec.warm_fraction = fraction;
        rec.plan_swap = i == 0 && swapped;
        report.die_warm_hits[d] += fraction > 0.0 ? 1 : 0;
        report.die_plan_swaps[d] += rec.plan_swap ? 1 : 0;
      }
      member_service.push_back(service);
      member_saving.push_back(entry.cost.head.batch_saving_cycles);
    }

    // ---- Variant dispatch ------------------------------------------------
    // Pick the family member minimizing this slot's total charge (setup +
    // every member under the variant's stream-share width). Strict
    // improvement over the width-ordered family means the narrowest variant
    // wins ties — deterministic in the assembled slot alone, so the same
    // trace dispatches identically across simulate() calls and cluster
    // copies.
    std::size_t chosen = 0;
    if (family.size() > 1) {
      Cycles best_total = kNever;
      for (std::size_t v = 0; v < family.size(); ++v) {
        Cycles total = family[v].setup_cycles;
        for (std::size_t i = 0; i < die.group.size(); ++i) {
          const bool rides = i > 0 && (family[v].width == 0 || i < family[v].width);
          total += batch_member_charge(member_service[i], member_saving[i], rides);
        }
        if (total < best_total) {
          best_total = total;
          chosen = v;
        }
      }
    }
    const PlanVariant& variant = family[chosen];
    ++report.variant_counts[chosen].second;

    // ---- Pass 2: timeline assembly ---------------------------------------
    // Charged in the config's own clock domain, scaled into reference
    // cycles only once fully assembled (warmth discount, swap penalty, and
    // follower saving are all config-native quantities).
    Cycles at = now;
    for (std::size_t i = 0; i < die.group.size(); ++i) {
      const std::size_t idx = die.group[i];
      RequestRecord& rec = report.requests[idx];
      Cycles service = member_service[i];
      if (i > 0) {
        // Follower within the variant's stream-share width: the slot's
        // weights are already streaming; its own weighting setup share is
        // saved (batch_member_charge). The saving touches weighting stages,
        // the warmth discount aggregation stages — disjoint. Beyond the
        // width the follower still runs in the slot but pays its own
        // weighting.
        const bool rides = variant.width == 0 || i < variant.width;
        const Cycles charged = batch_member_charge(service, member_saving[i], rides);
        if (rides) report.weighting_cycles_saved += scale_cycles(service - charged, cfg);
        service = charged;
      }
      ++report.die_requests[d];
      rec.die = d;
      rec.group_size = static_cast<std::uint32_t>(die.group.size());
      rec.variant_width = variant.width;
      if (i == 0 && pipeline_on) {
        // Two-track head: lay the slot's weight stream (the head's cold
        // weighting stage plus variant setup) onto the stream track as
        // late as possible while still ending by `now` when it can — and
        // never before the track freed or the head was routed — then run
        // the compute remainder from max(now, stream end). The record
        // spans both tracks, so its service covers exactly stream +
        // compute, and a pipelined slot never finishes later than its
        // serial service would have.
        service += variant.setup_cycles;  // one-time, charged to the head
        const Cycles stream_work = std::min(
            service, cost_of(cfg, idx).cost.head.weighting_cycles + variant.setup_cycles);
        const Cycles stream_scaled = scale_cycles(stream_work, cfg);
        GNNIE_AUDIT_ASSERT(stream_free[d] <= now && routed_time[idx] <= now,
                           "stream track ran ahead of simulation time");
        Cycles w_start = std::max(stream_free[d], routed_time[idx]);
        Cycles w_end = w_start + stream_scaled;
        if (w_end < now) {  // just-in-time: no idle gap inside the record
          w_start = now - stream_scaled;
          w_end = now;
        }
        GNNIE_AUDIT_ASSERT(w_start >= stream_free[d],
                           "stream track overlapped two slots");
        stream_free[d] = w_end;
        const Cycles compute_begin = std::max(now, w_end);
        report.pipeline_hidden_cycles += std::min(w_end, now) - w_start;
        report.die_stream_cycles[d] += w_end - w_start;
        rec.start = w_start;
        rec.finish = compute_begin + scale_cycles(service - stream_work, cfg);
        GNNIE_AUDIT_ASSERT(
            rec.finish <= now + scale_cycles(service, cfg) + (config_scale_[cfg] == 1.0 ? 0 : 1),
            "pipelined slot finished later than its serial service");
        GNNIE_AUDIT_ASSERT(rec.service_cycles() ==
                               stream_scaled + scale_cycles(service - stream_work, cfg),
                           "stream + compute tracks do not conserve the head's cycles");
      } else {
        if (i == 0) service += variant.setup_cycles;  // one-time, head-charged
        rec.start = at;
        rec.finish = at + scale_cycles(service, cfg);
      }
      at = rec.finish;
    }
    if (report.batch_size_counts.size() < die.group.size()) {
      report.batch_size_counts.resize(die.group.size(), 0);
    }
    ++report.batch_size_counts[die.group.size() - 1];

    die.busy = true;
    completions.push(at, d);
    GNNIE_AUDIT_ASSERT(completions.audit_valid(),
                       "completion heap key order/uniqueness violated after push");
    status[d].busy = true;
    status[d].in_service_count = die.group.size();
    status[d].busy_until = at;
  };

  // Route one request to die `d`: it joins the die's queue (starting
  // immediately if the die is idle) and the die's affinity flips to the
  // request's graph. `est` is the offer-time estimate the scheduler saw.
  auto enqueue_on_die = [&](std::size_t d, std::size_t idx, const RequestEstimate& est,
                            Cycles now) {
    // The moment the cluster commits the request to this die — the earliest
    // its weight stream may start when it later heads a pipelined slot.
    routed_time[idx] = now;
    if (dies[d].busy) {
      // Queued: remember the routing-time estimate in the die's visible
      // backlog (released when service starts). Estimated before the
      // affinity flip so it reflects the die state the scheduler saw.
      routed_estimate[idx] = estimate_die_service(status[d], est);
      status[d].affinity_fingerprint = est.fingerprint;
      die_enqueue(d, static_cast<std::uint32_t>(idx));
      sync_queue_status(d);
      status[d].queued_cycles_estimate += routed_estimate[idx];
    } else {
      GNNIE_ASSERT(die_queue[d].count == 0, "an idle die cannot hold a queue");
      status[d].affinity_fingerprint = est.fingerprint;
      start_service(d, idx, now);
    }
  };

  // True → the request is consumed: routed to a die, or shed. False → the
  // scheduler deferred it to the global queue.
  auto offer = [&](std::size_t idx, Cycles now) -> bool {
    const std::vector<RequestEstimate>& ests = estimates_of(idx);
    if (admission.shed(arrivals[idx], ests, status, now)) {
      // Terminal: recorded at the shed time with no service and no die
      // attribution; counts as a missed deadline, never as latency.
      RequestRecord& rec = report.requests[idx];
      rec.shed = true;
      rec.start = now;
      rec.finish = now;
      ++completed;
      return true;
    }
    const std::size_t d = scheduler.pick(arrivals[idx], ests, status, now);
    if (d == Scheduler::kDefer) return false;
    GNNIE_REQUIRE(d < die_count_, "scheduler picked a die outside the cluster");
    enqueue_on_die(d, idx, ests[d], now);
    return true;
  };

  // Dies freed by the completion batch in flight (die-index order, courtesy
  // of the heap's tie rule). Outside this window an idle die always has an
  // empty queue — work is handed out before the loop advances — so only
  // freed dies can need a refill.
  std::vector<std::size_t> freed;
  freed.reserve(die_count_);

  while (completed < arrivals.size()) {
    // Next event: earliest completion vs earliest pending arrival;
    // completions win ties so freed dies can seat simultaneous arrivals.
    const Cycles t_completion = completions.empty() ? kNever : completions.next_time();
    const Cycles t_arrival =
        next_arrival < arrivals.size() ? arrivals[next_arrival].arrival : kNever;
    GNNIE_ASSERT(t_completion != kNever || t_arrival != kNever,
                 "simulation stalled with requests outstanding");

    if (t_completion <= t_arrival) {
      const Cycles now = t_completion;
      // Finish every die completing at `now` (die-index order), then hand
      // out new work — first from each die's own queue, then the global
      // queue in arrival order. A slot started during the refill phase may
      // finish in zero cycles; its event stays in the heap and is processed
      // by the next loop iteration, after this batch's refills and
      // re-offers — the same order the scan-based loop produced.
      freed.clear();
      while (!completions.empty() && completions.next_time() == now) {
        freed.push_back(completions.pop_die());
        GNNIE_AUDIT_ASSERT(completions.audit_valid(),
                           "completion heap key order/uniqueness violated after pop");
      }
      for (std::size_t d : freed) {
        DieState& die = dies[d];
        // The slot's members sum to exactly the die's busy span.
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
      for (std::size_t d : freed) {
        if (die_queue[d].count == 0) continue;
        const std::uint32_t idx = die_queue[d].head;
        die_remove(d, idx);
        sync_queue_status(d);
        status[d].queued_cycles_estimate -=
            std::min(status[d].queued_cycles_estimate, routed_estimate[idx]);
        start_service(d, idx, now);
      }
      // Re-offer the global queue head by head. The head is popped before
      // the offer so a coalescing service slot it seats never re-drains the
      // head itself out of `deferred`.
      while (deferred.count != 0) {
        const std::uint32_t idx = deferred.head;
        defer_remove(idx);
        if (!offer(idx, now)) {
          defer_push_front(idx);
          break;
        }
      }
    } else {
      const Cycles now = t_arrival;
      const std::size_t idx = next_arrival++;
      // A deferred backlog means this arrival queues behind it (the global
      // queue is strictly arrival-ordered).
      if (deferred.count != 0 || !offer(idx, now)) {
        defer_push_back(static_cast<std::uint32_t>(idx));
      }
    }
  }

  for (const RequestRecord& rec : report.requests) {
    report.makespan = std::max(report.makespan, rec.finish);
  }
  return report;
}

}  // namespace gnnie::serve
