#include "serve/cluster.hpp"

#include <algorithm>
#include <functional>
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
  config_models_.push_back(model_);
}

Cluster::Cluster(const CompiledModel& reference, FleetSpec spec)
    : model_(reference),
      die_count_(spec.die_count()),
      spec_(std::move(spec)),
      cost_cache_(std::make_shared<ServiceCostCache>()) {
  spec_.validate();
  const EngineConfig& ref = model_.config();
  config_models_.reserve(spec_.configs.size());
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
    config_models_.push_back(Engine(cfg.engine).compile(model_.model(), model_.weights()));
  }
  for (std::size_t c : spec_.assignment) {
    if (c != spec_.assignment.front()) heterogeneous_ = true;
  }
}

std::size_t Cluster::costed_triples() const { return cost_cache_->size(); }

namespace {

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
/// Audit-only cap on a queue walk, so the audit leg's million-request
/// smokes stay tractable: long queues get endpoint + prefix checks, short
/// ones a full recount.
constexpr std::size_t kAuditWalkCap = 64;

/// The die-completion event queue: a min-heap of one (finish time, die)
/// entry per busy die, popped in (time, die-index) order — lexicographic
/// pair order makes simultaneous completions finish in die-index order,
/// exactly the rule the scan-based loop applied. Entries are unique (a die
/// never holds two), so the keys alone fix the pop order; and an entry is
/// immutable once pushed (a slot's finish never moves), so the heap needs
/// no decrease-key or lazy deletion.
class CompletionHeap {
 public:
  explicit CompletionHeap(std::size_t dies) { items_.reserve(dies); }

  bool empty() const { return items_.empty(); }
  Cycles next_time() const { return items_.front().first; }

  void push(Cycles at, std::size_t die) {
    items_.emplace_back(at, die);
    std::push_heap(items_.begin(), items_.end(), std::greater<>{});
  }

  /// Removes and returns the die of the earliest event.
  std::size_t pop_die() {
    std::pop_heap(items_.begin(), items_.end(), std::greater<>{});
    const std::size_t die = items_.back().second;
    items_.pop_back();
    return die;
  }

  /// Audit-only (GNNIE_AUDIT): the heap order over (time, die) pairs, and
  /// the one-entry-per-busy-die discipline that lets the loop skip
  /// decrease-key and lazy deletion. O(n²) in busy dies, which is small by
  /// construction.
  bool audit_valid() const {
    if (!std::is_heap(items_.begin(), items_.end(), std::greater<>{})) return false;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      for (std::size_t j = i + 1; j < items_.size(); ++j) {
        if (items_[i].second == items_[j].second) return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::pair<Cycles, std::size_t>> items_;
};

/// One request's links in the shared queue arena: a waiting request sits in
/// exactly one queue, so one next/prev pair per request backs every die
/// queue plus the global queue with zero per-request allocation.
struct Link {
  std::uint32_t next = kNone;
  std::uint32_t prev = kNone;
};

/// A waiting queue — a die's own, or the global arrival-order one: an
/// intrusive FIFO over the link arena plus its per-fingerprint waiting
/// counts, kept on every move so the questions coalescing asks (slot
/// opportunity, head-slot openness) are O(1) lookups instead of scans.
struct CountedQueue {
  std::uint32_t head = kNone;
  std::uint32_t tail = kNone;
  std::size_t count = 0;
  std::vector<std::uint32_t> waiting;  ///< per dense fingerprint index
};

/// One cold run of `stream`'s request on `priced_on`: the request's own
/// plan when `priced_on` built it, else a re-plan of its graph
/// (deterministic, so the same fingerprint). The entry is policy-independent
/// by design: warmth, coalescing and slot pricing apply at estimate/charge
/// time, not here.
CostEntry cost_entry(const CompiledModel& priced_on, const TraceStream& stream) {
  CostEntry entry;
  RunRequest routed{stream.plan, stream.features};
  if (!priced_on.owns(*stream.plan)) {
    // Sampling is fresh per plan() call, so a re-plan could not reproduce
    // the request's sampled adjacencies.
    GNNIE_REQUIRE(stream.plan->sampled_layer_count() == 0,
                  "sampled (GraphSAGE) plans cannot be re-planned for a fleet die config");
    routed.plan = priced_on.plan(stream.plan->graph());
  }
  entry.plan = routed.plan;
  entry.cost = priced_on.cost(routed);
  return entry;
}

/// A die's loop-private state; the Scheduler sees only its DieStatus.
struct DieState {
  CountedQueue queue;
  /// The running slot's requests, head first. The die is busy until the
  /// whole slot drains (slots are atomic). Reused across slots, so its
  /// capacity is paid once.
  std::vector<std::uint32_t> slot;
  /// Stream-track free time: the stream port serves one slot's weights at
  /// a time, never two.
  Cycles stream_free = 0;
};

/// The state of one simulate() call and the event loop's operations over
/// it: queue moves, per-die estimates, slot assembly, slot pricing and
/// timeline, route, offer, and the completion batch; run() drives them.
/// Everything here is call-local; only the ServiceCostCache is shared
/// across calls.
class SimState {
 public:
  SimState(const Cluster& cluster, const std::vector<CompiledModel>& config_models,
           ServiceCostCache& cost_cache, const RequestTrace& trace,
           const Scheduler& scheduler, const AdmissionPolicy& admission)
      : config_models_(config_models),
        die_config_(cluster.fleet().assignment),
        cost_cache_(cost_cache),
        trace_(trace),
        arrivals_(trace.requests()),
        scheduler_(scheduler),
        admission_(admission),
        warmth_on_(cluster.model().config().warmth.enabled),
        max_coalesce_(cluster.model().config().batching.max_coalesce),
        pipeline_on_(cluster.model().config().pipeline.enabled),
        family_(plan_variant_family(cluster.model().config())),
        dies_(cluster.die_count()),
        status_(cluster.die_count()),
        die_estimates_(cluster.die_count()),
        completions_(cluster.die_count()) {
    GNNIE_REQUIRE(arrivals_.size() < kNone, "trace too large for 32-bit request indices");
    const std::size_t die_count = dies_.size();
    report_.dies = die_count;
    report_.scheduler = scheduler.name();
    report_.die_busy_cycles.assign(die_count, 0);
    report_.warmth_enabled = warmth_on_;
    report_.die_requests.assign(die_count, 0);
    report_.die_warm_hits.assign(die_count, 0);
    report_.die_plan_swaps.assign(die_count, 0);
    report_.max_coalesce = max_coalesce_;
    report_.pipeline_enabled = pipeline_on_;
    report_.die_stream_cycles.assign(die_count, 0);
    // One counter per family member, family order, so a pick's family
    // index indexes this histogram directly.
    for (const PlanVariant& v : family_) report_.variant_counts.emplace_back(v.width, 0);
    report_.streams = trace.stream_count();
    report_.fleet_cost = cluster.fleet_cost();
    for (std::size_t c : die_config_) {
      report_.die_labels.push_back(cluster.fleet().configs[c].label);
    }
    report_.requests.resize(arrivals_.size());
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
      report_.requests[i].stream = arrivals_[i].stream;
      report_.requests[i].arrival = arrivals_[i].arrival;
      report_.requests[i].deadline = arrivals_[i].deadline;
    }
    links_.resize(arrivals_.size());
    routed_time_.assign(arrivals_.size(), 0);
    routed_estimate_.assign(arrivals_.size(), 0);

    // Every request is one of the trace's streams, so identity lookups
    // collapse to dense per-stream tables: the plan fingerprint and a dense
    // fingerprint index (distinct fingerprints ≤ streams) that keys the
    // queues' waiting counts. Costs resolve lazily per (config, stream).
    const std::size_t streams = trace.stream_count();
    stream_fp_.resize(streams);
    stream_fpi_.resize(streams);
    std::vector<std::uint64_t> distinct_fp;
    for (std::size_t s = 0; s < streams; ++s) {
      stream_fp_[s] = trace.stream(s).plan->fingerprint();
      std::size_t i = 0;
      while (i < distinct_fp.size() && distinct_fp[i] != stream_fp_[s]) ++i;
      if (i == distinct_fp.size()) distinct_fp.push_back(stream_fp_[s]);
      stream_fpi_[s] = static_cast<std::uint32_t>(i);
    }
    resolved_.assign(config_models.size() * streams, nullptr);
    deferred_.waiting.assign(distinct_fp.size(), 0);
    for (DieState& die : dies_) die.queue.waiting.assign(distinct_fp.size(), 0);
    if (warmth_on_) {
      warmth_.reserve(die_count);
      for (std::size_t c : die_config_) {
        warmth_.emplace_back(config_models[c].config().warmth_die_budget());
      }
      for (std::size_t d = 0; d < die_count; ++d) status_[d].warmth = &warmth_[d];
    }
    freed_.reserve(die_count);
  }

  /// Runs the trace to completion. The next event is the earliest die
  /// completion or the earliest pending arrival; completions win ties so
  /// freed dies can seat simultaneous arrivals.
  ServingReport run() {
    while (completed_ < arrivals_.size()) {
      const Cycles t_completion = completions_.empty() ? kNever : completions_.next_time();
      const Cycles t_arrival =
          next_arrival_ < arrivals_.size() ? arrivals_[next_arrival_].arrival : kNever;
      GNNIE_ASSERT(t_completion != kNever || t_arrival != kNever,
                   "simulation stalled with requests outstanding");
      if (t_completion <= t_arrival) {
        complete_batch(t_completion);
      } else {
        const auto idx = static_cast<std::uint32_t>(next_arrival_++);
        // A deferred backlog means this arrival queues behind it (the
        // global queue is strictly arrival-ordered).
        if (deferred_.count != 0 || !offer(idx, t_arrival)) push_back(deferred_, idx);
      }
    }
    for (const RequestRecord& rec : report_.requests) {
      report_.makespan = std::max(report_.makespan, rec.finish);
    }
    return std::move(report_);
  }

 private:
  // ---- Per-stream lookups ----------------------------------------------

  std::uint64_t fingerprint_of(std::uint32_t idx) const {
    return stream_fp_[arrivals_[idx].stream];
  }
  std::uint32_t fpi_of(std::uint32_t idx) const { return stream_fpi_[arrivals_[idx].stream]; }

  /// Request `idx`'s memoized cost on config `cfg`, from the cluster-lifetime
  /// ServiceCostCache (runs are stateless, so entries are exact and shared
  /// across simulate() calls). Resolved once per (config, stream) into a raw
  /// pointer, so the hot path never searches the cache, and lazily, so a
  /// stream no request touches is never costed (and a sampled plan is
  /// rejected only when a request needs it re-planned).
  const CostEntry& cost_of(std::size_t cfg, std::uint32_t idx) {
    const std::size_t s = arrivals_[idx].stream;
    const CostEntry*& slot = resolved_[cfg * trace_.stream_count() + s];
    if (slot != nullptr) return *slot;
    const TraceStream& stream = trace_.stream(s);
    const CompiledModel& priced_on = config_models_[cfg];
    slot = &cost_cache_.get({cfg, stream.plan.get(), stream.features},
                            [&priced_on, &stream] { return cost_entry(priced_on, stream); });
    return *slot;
  }

  // ---- Queue moves -------------------------------------------------------

  void push_back(CountedQueue& q, std::uint32_t idx) {
    links_[idx] = {kNone, q.tail};
    (q.tail == kNone ? q.head : links_[q.tail].next) = idx;
    q.tail = idx;
    ++q.count;
    ++q.waiting[fpi_of(idx)];
    GNNIE_AUDIT_ASSERT(audit_queue(q), "queue links/fingerprint counts diverged after push");
  }

  /// Puts a failed re-offer back at the head of its queue.
  void push_front(CountedQueue& q, std::uint32_t idx) {
    links_[idx] = {q.head, kNone};
    (q.head == kNone ? q.tail : links_[q.head].prev) = idx;
    q.head = idx;
    ++q.count;
    ++q.waiting[fpi_of(idx)];
    GNNIE_AUDIT_ASSERT(audit_queue(q), "queue links/fingerprint counts diverged after re-offer");
  }

  /// Unlinks `idx` from anywhere in `q` (the coalescing drain takes from
  /// the middle).
  void remove(CountedQueue& q, std::uint32_t idx) {
    const Link link = links_[idx];
    (link.prev == kNone ? q.head : links_[link.prev].next) = link.next;
    (link.next == kNone ? q.tail : links_[link.next].prev) = link.prev;
    --q.count;
    --q.waiting[fpi_of(idx)];
    GNNIE_AUDIT_ASSERT(audit_queue(q), "queue links/fingerprint counts diverged after remove");
  }

  /// Audit-only: re-derives a queue's links and waiting counts by a walk
  /// (capped at kAuditWalkCap links; a longer queue gets its endpoints, a
  /// linked prefix and the count-conservation sum checked).
  bool audit_queue(const CountedQueue& q) const {
    if ((q.head == kNone) != (q.count == 0) || (q.tail == kNone) != (q.count == 0)) return false;
    std::uint64_t sum = 0;
    for (std::uint32_t c : q.waiting) sum += c;
    if (sum != q.count) return false;
    if (q.count == 0) return true;
    if (links_[q.head].prev != kNone || links_[q.tail].next != kNone) return false;
    std::vector<std::uint32_t> tally(q.waiting.size(), 0);
    std::size_t walked = 0;
    std::uint32_t last = kNone;
    std::uint32_t it = q.head;
    for (; it != kNone && walked < kAuditWalkCap; it = links_[it].next, ++walked) {
      if (links_[it].prev != last) return false;
      last = it;
      ++tally[fpi_of(it)];
    }
    if (it != kNone) return q.count > kAuditWalkCap;  // prefix verified; rest uncounted
    return walked == q.count && last == q.tail && tally == q.waiting;
  }

  /// Publishes die d's queue to its DieStatus: the depth, and the
  /// head-of-line plan only while the head's upcoming slot can still absorb
  /// another same-plan request — once the queue already holds max_coalesce
  /// of them, a newcomer would run in a later slot and must not be promised
  /// the ride discount. (At max_coalesce 1 the head alone fills its slot, so
  /// no plan is ever published.)
  void publish_queue(std::size_t d) {
    const CountedQueue& q = dies_[d].queue;
    status_[d].queue_depth = q.count;
    status_[d].queue_head_fingerprint =
        q.count != 0 && q.waiting[fpi_of(q.head)] < max_coalesce_ ? fingerprint_of(q.head) : 0;
  }

  // ---- Per-die estimates -------------------------------------------------

  /// The per-(die, request) estimate vector handed to pick()/shed(): each
  /// die's entry points at the request's memoized cost on the die's config
  /// and carries that die's coalescing opportunity. The memo entry is the
  /// same whichever serving knobs are on; its readers apply the warmth and
  /// coalescing knobs (estimate_die_service, shed-hopeless), and the stream
  /// share is filled only with pipelining on.
  const std::vector<RequestEstimate>& estimates_of(std::uint32_t idx) {
    const std::uint32_t fpi = fpi_of(idx);
    const std::uint64_t fingerprint = fingerprint_of(idx);
    for (std::size_t d = 0; d < dies_.size(); ++d) {
      const CostEntry& entry = cost_of(die_config_[d], idx);
      RequestEstimate& est = die_estimates_[d];
      est.cost = &entry.cost;
      est.fingerprint = fingerprint;
      est.working_set_bytes = entry.plan->warm_working_set_bytes();
      est.pipeline_stream_cycles = pipeline_on_ ? entry.cost.weighting_cycles : 0;
      // 1 + the same-plan requests THIS die's next slot could drain (its
      // own queue + the global queue), capped at the slot width. Requests
      // queued on other dies are unreachable and deliberately not counted.
      est.coalesce_count = static_cast<std::uint32_t>(std::min<std::size_t>(
          max_coalesce_, 1 + dies_[d].queue.waiting[fpi] + deferred_.waiting[fpi]));
    }
    return die_estimates_;
  }

  // ---- Slot assembly -----------------------------------------------------

  /// Moves waiting request `idx` from `q` into die d's slot and releases its
  /// routing-time estimate from the die's visible backlog (zero for a
  /// request taken from the global queue: it was never routed).
  void take(std::size_t d, CountedQueue& q, std::uint32_t idx) {
    remove(q, idx);
    Cycles& backlog = status_[d].queued_cycles_estimate;
    backlog -= std::min(backlog, routed_estimate_[idx]);
    dies_[d].slot.push_back(idx);
  }

  /// Grows die d's slot from its head: up to max_coalesce − 1 waiting
  /// requests sharing the head's plan fingerprint, drained first from the
  /// die's own queue, then from the global arrival-order queue. The waiting
  /// counts bound both walks: each stops as soon as every same-plan waiter
  /// has been taken, not at the end of the queue.
  void assemble_slot(std::size_t d) {
    std::vector<std::uint32_t>& slot = dies_[d].slot;
    const std::uint32_t fpi = fpi_of(slot.front());
    for (CountedQueue* q : {&dies_[d].queue, &deferred_}) {
      for (std::uint32_t it = q->head;
           it != kNone && slot.size() < max_coalesce_ && q->waiting[fpi] > 0;) {
        const std::uint32_t next = links_[it].next;
        if (fpi_of(it) == fpi) take(d, *q, it);
        it = next;
      }
    }
    publish_queue(d);
    GNNIE_AUDIT_ASSERT(audit_slot(slot), "coalesced slot violates its assembly invariants");
  }

  /// Audit-only: a slot is nonempty, never wider than the coalescing cap,
  /// and every member shares the head's plan fingerprint (the premise of
  /// the one-weighting-pass cost model).
  bool audit_slot(const std::vector<std::uint32_t>& slot) const {
    if (slot.empty() || slot.size() > max_coalesce_) return false;
    for (std::uint32_t idx : slot) {
      if (fingerprint_of(idx) != fingerprint_of(slot.front())) return false;
    }
    return true;
  }

  // ---- Slot pricing and timeline -----------------------------------------

  /// Prices die d's assembled slot starting at `now` and lays out its
  /// records; returns the slot's end. This is the only code that prices a
  /// service slot: warmth, swap penalty, coalescing, variant dispatch and
  /// the stream track all apply here, to the memoized one-request costs.
  Cycles price_slot(std::size_t d, Cycles now) {
    const std::size_t cfg = die_config_[d];
    const std::vector<std::uint32_t>& slot = dies_[d].slot;
    const std::uint32_t head = slot.front();

    // One residency touch per slot. The head sees the fraction resident on
    // arrival; followers run back-to-back behind it and see the post-load
    // fraction — exactly what serial service would have charged them, so a
    // coalesced slot can only subtract from the serial sum, never add.
    double head_fraction = 0.0;
    double follower_fraction = 0.0;
    bool swapped = false;
    if (warmth_on_) {
      const Bytes working_set = cost_of(cfg, head).plan->warm_working_set_bytes();
      const DieWarmthModel::Touch touch = warmth_[d].touch(fingerprint_of(head), working_set);
      head_fraction = touch.warm_fraction;
      follower_fraction = warmth_[d].warm_fraction(fingerprint_of(head), working_set);
      swapped = touch.swapped;
    }

    // Pass 1: each member's stand-alone charge (warmth discount and the
    // head's swap penalty applied; the follower discount depends on the
    // variant picked below). Warmth bookkeeping happens here, in slot order.
    member_service_.clear();
    member_saving_.clear();
    for (std::size_t i = 0; i < slot.size(); ++i) {
      const CostEntry& entry = cost_of(cfg, slot[i]);
      Cycles service = entry.cost.total_cycles;
      if (warmth_on_) {
        RequestRecord& rec = report_.requests[slot[i]];
        rec.warm_fraction = i == 0 ? head_fraction : follower_fraction;
        rec.plan_swap = i == 0 && swapped;
        service = entry.cost.warm_total(rec.warm_fraction);
        if (rec.plan_swap) service += kPlanSwapPenaltyCycles;
        report_.die_warm_hits[d] += rec.warm_fraction > 0.0 ? 1 : 0;
        report_.die_plan_swaps[d] += rec.plan_swap ? 1 : 0;
      }
      member_service_.push_back(service);
      member_saving_.push_back(entry.cost.batch_saving_cycles);
    }

    // Variant dispatch: the family member minimizing the slot's total
    // charge (setup + every member under the variant's stream-share width).
    // Strict improvement over the width-ordered family means the narrowest
    // variant wins ties — deterministic in the assembled slot alone.
    std::size_t chosen = 0;
    Cycles best_total = kNever;
    for (std::size_t v = 0; v < family_.size(); ++v) {
      Cycles total = family_[v].setup_cycles;
      for (std::size_t i = 0; i < slot.size(); ++i) {
        total += batch_member_charge(member_service_[i], member_saving_[i], rides(v, i));
      }
      if (total < best_total) {
        best_total = total;
        chosen = v;
      }
    }
    const PlanVariant& variant = family_[chosen];
    ++report_.variant_counts[chosen].second;

    // Pass 2: the timeline. The head pays the variant's one-time setup and
    // spans both tracks: its weight stream (cold weighting stage + setup;
    // none with pipelining off) is laid onto the stream track as late as
    // possible while still ending by `now` when it can — never before the
    // track freed or the head was routed — and its compute runs from the
    // stream's end. Followers chain off the head's finish.
    const Cycles head_service = member_service_[0] + variant.setup_cycles;
    const Cycles stream =
        pipeline_on_
            ? std::min(head_service,
                       cost_of(cfg, head).cost.weighting_cycles + variant.setup_cycles)
            : 0;
    DieState& die = dies_[d];
    GNNIE_AUDIT_ASSERT(die.stream_free <= now && routed_time_[head] <= now,
                       "stream track ran ahead of simulation time");
    const Cycles head_start =
        std::max({die.stream_free, routed_time_[head], now - std::min(now, stream)});
    die.stream_free = head_start + stream;
    report_.pipeline_hidden_cycles += now - head_start;
    report_.die_stream_cycles[d] += stream;
    Cycles at = head_start;
    for (std::size_t i = 0; i < slot.size(); ++i) {
      RequestRecord& rec = report_.requests[slot[i]];
      Cycles service = head_service;
      if (i > 0) {
        // A rider skips its weighting setup share (batch_member_charge);
        // the saving touches weighting stages, the warmth discount
        // aggregation stages — disjoint. Beyond the variant's width a
        // follower still runs in the slot but pays its own weighting.
        service = batch_member_charge(member_service_[i], member_saving_[i], rides(chosen, i));
        report_.weighting_cycles_saved += member_service_[i] - service;
      }
      ++report_.die_requests[d];
      rec.die = d;
      rec.group_size = static_cast<std::uint32_t>(slot.size());
      rec.variant_width = variant.width;
      rec.start = at;
      rec.finish = at + service;
      at = rec.finish;
    }
    GNNIE_AUDIT_ASSERT(report_.requests[head].finish <= now + head_service,
                       "pipelined slot finished later than its serial service");
    if (report_.batch_size_counts.size() < slot.size()) {
      report_.batch_size_counts.resize(slot.size(), 0);
    }
    ++report_.batch_size_counts[slot.size() - 1];
    return at;
  }

  /// Whether slot position `i` rides variant `v`'s weight stream: every
  /// follower under an unbounded (width 0) variant, else positions below
  /// the width.
  bool rides(std::size_t v, std::size_t i) const {
    return i > 0 && (family_[v].width == 0 || i < family_[v].width);
  }

  /// Starts die d's slot (its head already seated) at `now`: assembles,
  /// prices, and schedules its completion. The die's busy span — slot end
  /// minus `now` — is charged once per slot, so a pipelined head's stream
  /// time hidden under the previous slot is not counted twice.
  void start_service(std::size_t d, Cycles now) {
    assemble_slot(d);
    const Cycles end = price_slot(d, now);
    report_.die_busy_cycles[d] += end - now;
    completions_.push(end, d);
    GNNIE_AUDIT_ASSERT(completions_.audit_valid(),
                       "completion heap key order/uniqueness violated after push");
    status_[d].busy = true;
    status_[d].in_service_count = dies_[d].slot.size();
    status_[d].busy_until = end;
  }

  // ---- Route and offer ---------------------------------------------------

  /// Routes request `idx` to die `d`: it joins the die's queue, or starts a
  /// slot at once on an idle die, and the die's affinity flips to the
  /// request's plan. `est` is the offer-time estimate the scheduler saw.
  void route(std::size_t d, std::uint32_t idx, const RequestEstimate& est, Cycles now) {
    // The moment the cluster commits the request to this die — the
    // earliest its weight stream may start when it heads a pipelined slot.
    routed_time_[idx] = now;
    DieStatus& status = status_[d];
    if (status.busy) {
      // Queued: its routing-time estimate joins the die's visible backlog
      // (released when service starts), estimated before the affinity flip
      // so it reflects the die state the scheduler saw.
      routed_estimate_[idx] = estimate_die_service(status, est);
      status.queued_cycles_estimate += routed_estimate_[idx];
      status.affinity_fingerprint = est.fingerprint;
      push_back(dies_[d].queue, idx);
      publish_queue(d);
    } else {
      GNNIE_ASSERT(dies_[d].queue.count == 0, "an idle die cannot hold a queue");
      status.affinity_fingerprint = est.fingerprint;
      dies_[d].slot.push_back(idx);
      start_service(d, now);
    }
  }

  /// True → the request is consumed: routed to a die, or shed. False → the
  /// scheduler deferred it to the global queue.
  bool offer(std::uint32_t idx, Cycles now) {
    const std::vector<RequestEstimate>& ests = estimates_of(idx);
    if (admission_.shed(arrivals_[idx], ests, status_, now)) {
      // Terminal: recorded at the shed time with no service and no die
      // attribution; counts as a missed deadline, never as latency.
      RequestRecord& rec = report_.requests[idx];
      rec.shed = true;
      rec.start = now;
      rec.finish = now;
      ++completed_;
      return true;
    }
    const std::size_t d = scheduler_.pick(arrivals_[idx], ests, status_, now);
    if (d == Scheduler::kDefer) return false;
    GNNIE_REQUIRE(d < dies_.size(), "scheduler picked a die outside the cluster");
    route(d, idx, ests[d], now);
    return true;
  }

  // ---- Completion batch --------------------------------------------------

  /// Finishes every die completing at `now` (die-index order, courtesy of
  /// the heap's tie rule), then hands out new work — first from each freed
  /// die's own queue, then the global queue in arrival order. Outside this
  /// batch an idle die always has an empty queue, so only freed dies can
  /// need a refill. A slot started here may finish in zero cycles; its event
  /// stays in the heap for the next loop iteration, after this batch's
  /// refills and re-offers — the order the scan-based loop produced.
  void complete_batch(Cycles now) {
    freed_.clear();
    while (!completions_.empty() && completions_.next_time() == now) {
      freed_.push_back(completions_.pop_die());
      GNNIE_AUDIT_ASSERT(completions_.audit_valid(),
                         "completion heap key order/uniqueness violated after pop");
    }
    for (std::size_t d : freed_) {
      completed_ += dies_[d].slot.size();
      dies_[d].slot.clear();
      status_[d].busy = false;
      status_[d].in_service_count = 0;
      status_[d].busy_until = 0;
    }
    for (std::size_t d : freed_) {
      if (dies_[d].queue.count == 0) continue;
      take(d, dies_[d].queue, dies_[d].queue.head);
      start_service(d, now);
    }
    // Re-offer the global queue head by head. The head is unlinked before
    // the offer so a coalescing slot it seats never re-drains it.
    while (deferred_.count != 0) {
      const std::uint32_t idx = deferred_.head;
      remove(deferred_, idx);
      if (!offer(idx, now)) {
        push_front(deferred_, idx);
        break;
      }
    }
  }

  // ---- Inputs ------------------------------------------------------------
  const std::vector<CompiledModel>& config_models_;
  const std::vector<std::size_t>& die_config_;  ///< die → config index
  ServiceCostCache& cost_cache_;
  const RequestTrace& trace_;
  const std::vector<TracedRequest>& arrivals_;
  const Scheduler& scheduler_;
  const AdmissionPolicy& admission_;
  // Serving-protocol knobs, pinned fleet-wide to the reference config, so
  // one variant family serves every die.
  const bool warmth_on_;
  const std::uint32_t max_coalesce_;
  const bool pipeline_on_;
  const std::vector<PlanVariant> family_;

  // ---- Per-stream tables -------------------------------------------------
  std::vector<std::uint64_t> stream_fp_;
  std::vector<std::uint32_t> stream_fpi_;
  std::vector<const CostEntry*> resolved_;  ///< config × stream → cache entry

  // ---- Loop state --------------------------------------------------------
  ServingReport report_;
  std::vector<Link> links_;
  std::vector<DieState> dies_;
  CountedQueue deferred_;  ///< the global arrival-order queue
  std::vector<DieStatus> status_;
  std::vector<DieWarmthModel> warmth_;  ///< per die; empty with warmth off
  std::vector<RequestEstimate> die_estimates_;
  /// Per request: when it was routed to a die (the earliest its slot's
  /// weight stream may start) and the routing-time service estimate it
  /// added to that die's backlog.
  std::vector<Cycles> routed_time_;
  std::vector<Cycles> routed_estimate_;
  /// Slot-pricing buffers, reused across slots: each member's stand-alone
  /// charge and follower saving.
  std::vector<Cycles> member_service_;
  std::vector<Cycles> member_saving_;
  CompletionHeap completions_;
  std::vector<std::size_t> freed_;  ///< dies freed by the completion batch
  std::size_t next_arrival_ = 0;
  std::size_t completed_ = 0;
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
  return SimState(*this, config_models_, *cost_cache_, trace, *scheduler, *admission).run();
}

}  // namespace gnnie::serve
