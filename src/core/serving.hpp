// The GNNIE serving API: compile once, plan per graph, run many.
//
//   Engine engine(EngineConfig::paper_default(false));
//   CompiledModel model = engine.compile(model_config, weights);
//   auto plan = model.plan(graph);                 // cached per graph
//   InferenceResult r = model.run({plan, &features});
//   BatchResult b = model.run_batch(requests);     // many features, one plan
//
// The lifecycle splits GNNIE's per-graph planning work (§IV-C weighting
// bins, §VI degree-aware cache layout) from per-request execution:
//
//   * Engine::compile validates the model/weights pairing once, sizes the
//     DRAM layout, and precomputes every layer's weighting geometry.
//   * CompiledModel::plan binds one graph: the cache policy's DRAM layout
//     order, its inverse positions, reverse adjacencies for sampled
//     (directed) layers — everything reusable across runs on that graph.
//     Plans are cached inside the CompiledModel and shared.
//   * CompiledModel::run / run_batch execute requests against a plan.
//     Every run builds its accelerator state (HbmModel) fresh, so runs are
//     stateless by construction: back-to-back runs report identical stats.
//   * CompiledModel::cost prices a service slot (CostQuery → ServiceCost)
//     for the serving cluster: warmth, coalescing, and plan variants in one
//     query, answered with the weighting/aggregation stage split.
//
// The cache behavior is selected by a CachePolicy instance handed to the
// Engine (core/cache_policy.hpp); a null policy means degree-aware.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aggregation.hpp"
#include "core/cache_policy.hpp"
#include "core/engine_config.hpp"
#include "core/report.hpp"
#include "core/weighting.hpp"
#include "graph/csr.hpp"
#include "nn/model.hpp"
#include "sparse/sparse_matrix.hpp"

namespace gnnie {

class CompiledModel;

/// One member of a plan's compiled variant family (GraphPlan::variants):
/// geometry specialized for a slot shape. A variant of width w fuses at
/// most w coalesced slot members over one weight stream — members beyond
/// position w re-stream weights serially (no follower saving) — and adds
/// `setup_cycles` of one-time reconfiguration to the slot (charged on the
/// stream track). Width 0 is the unbounded default variant: every follower
/// shares the stream, zero setup — exactly the pre-variant slot model.
struct PlanVariant {
  std::uint32_t width = 0;
  Cycles setup_cycles = 0;
};

/// The variant family `config.pipeline` prescribes, ascending width order,
/// never empty (no widths configured → the single unbounded default
/// variant). plan() compiles exactly this family into every GraphPlan;
/// exposed so the serving cluster derives the identical family without a
/// plan in hand.
std::vector<PlanVariant> plan_variant_family(const EngineConfig& config);

/// Per-graph planning output: the cache policy's DRAM layout and the
/// per-layer adjacency bindings, computed once and reused by every run on
/// the same graph. The planned Csr is referenced, not copied — it must
/// outlive the plan; sampled adjacencies (GraphSAGE) are owned by the plan.
class GraphPlan {
 public:
  const Csr& graph() const { return *graph_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// Graph shape at plan time. run() re-checks these (O(1)) to catch the
  /// common case of the planned Csr being reassigned in place; full
  /// structural revalidation (the fingerprint) happens on plan() hits.
  VertexId planned_vertex_count() const { return planned_vertices_; }
  EdgeId planned_edge_count() const { return planned_edges_; }
  const CachePolicy& policy() const { return *policy_; }

  /// Layout order exists only for subgraph-machinery policies on models
  /// that aggregate over the full graph (everything except GraphSAGE).
  bool has_layout() const { return !order_.empty(); }
  const std::vector<VertexId>& order() const { return order_; }
  const std::vector<VertexId>& positions() const { return positions_; }

  /// Initial α values (unprocessed edge endpoints per vertex) for
  /// aggregation over the planned graph, precomputed so runs skip the
  /// per-run derivation. Empty when the policy never reads α (on-demand).
  bool has_initial_alpha() const { return !initial_alpha_.empty(); }
  const std::vector<std::uint32_t>& initial_alpha() const { return initial_alpha_; }

  /// Input-buffer capacity (vertices) precomputed for aggregation at one of
  /// the model's feature widths; 0 for widths the plan did not precompute
  /// (callers then fall back to the per-run derivation).
  std::uint64_t cache_capacity_for_width(std::size_t feature_width) const {
    for (const auto& [width, capacity] : agg_capacities_) {
      if (width == feature_width) return capacity;
    }
    return 0;
  }

  /// Dual-cache plan artifact: the pinned hub-region size chosen by the
  /// split search over the recorded access trace (cache::best_dual_split)
  /// for aggregation at one of the model's feature widths. nullopt for
  /// other widths and for every policy other than kDualCache (no other
  /// policy reads it).
  std::optional<std::uint64_t> dual_pinned_for_width(std::size_t feature_width) const {
    for (const auto& [width, pinned] : dual_pinned_) {
      if (width == feature_width) return pinned;
    }
    return std::nullopt;
  }

  /// On-chip bytes of the plan's cached feature working set (the largest
  /// aggregation working set across the model's feature widths / sampled
  /// layers). The serving cluster's per-die warmth model tracks residency
  /// in this unit (serve/warmth.hpp).
  Bytes warm_working_set_bytes() const { return warm_working_set_bytes_; }

  /// The plan's compiled variant family (EngineConfig::pipeline — the
  /// AR-1/AR-8-style geometry variants; see PipelineConfig), ascending
  /// width order, never empty. With no family configured this is the
  /// single unbounded default variant {width 0, setup 0} — the pre-variant
  /// slot model. CompiledModel::cost and the serving cluster dispatch the
  /// cheapest member per slot.
  const std::vector<PlanVariant>& variants() const { return variants_; }

 private:
  struct SampledBinding {
    Csr graph;
    // Layout and reverse adjacency exist only for subgraph-machinery
    // policies; the on-demand engine reads neither.
    std::vector<VertexId> order;
    std::vector<VertexId> positions;
    std::optional<ReverseAdjacency> reverse;
    // Plan-level aggregation precompute: α₀ (degree + reverse in-degree;
    // GraphSAGE bindings are directed) and the input-buffer capacity for
    // this layer's feature width.
    std::vector<std::uint32_t> initial_alpha;
    std::size_t capacity_width = 0;
    std::uint64_t capacity = 0;
    Bytes working_set_bytes = 0;  ///< on-chip bytes of this layer's working set
    /// Dual-cache pinned-region size for this layer's sampled adjacency
    /// (kNoDualPinnedHint unless the policy is kDualCache).
    std::uint64_t dual_pinned = kNoDualPinnedHint;

    SampledBinding(Csr g, const CachePolicy& pol, const EngineConfig& config,
                   std::size_t feature_width);
  };

 public:
  /// GraphSAGE: one sampled adjacency bound per layer. The binding type is
  /// private — consume it via `const auto&`.
  std::size_t sampled_layer_count() const { return sampled_.size(); }
  const SampledBinding& sampled(std::size_t layer) const { return sampled_[layer]; }
  const Csr& sampled_graph(std::size_t layer) const { return sampled_[layer].graph; }

 private:
  friend class CompiledModel;

  GraphPlan() = default;

  /// The CompiledModel state that built this plan. A weak reference, so a
  /// plan outliving its model is detected (expired) rather than aliasing a
  /// reallocated state object.
  std::weak_ptr<const void> owner_;
  const Csr* graph_ = nullptr;
  std::uint64_t fingerprint_ = 0;
  VertexId planned_vertices_ = 0;
  EdgeId planned_edges_ = 0;
  std::shared_ptr<const CachePolicy> policy_;
  std::vector<VertexId> order_;
  std::vector<VertexId> positions_;
  std::vector<SampledBinding> sampled_;
  std::vector<std::uint32_t> initial_alpha_;
  /// (feature width → input-buffer capacity) for every width the model's
  /// aggregation stages run at. Tiny (a handful of entries), so a flat
  /// vector beats a map.
  std::vector<std::pair<std::size_t, std::uint64_t>> agg_capacities_;
  /// (feature width → dual-cache pinned size); filled only for kDualCache.
  std::vector<std::pair<std::size_t, std::uint64_t>> dual_pinned_;
  Bytes warm_working_set_bytes_ = 0;
  /// Compiled variant family (plan_variant_family(config)); never empty.
  std::vector<PlanVariant> variants_;
};

using GraphPlanPtr = std::shared_ptr<const GraphPlan>;

/// One inference request: a plan (graph binding) plus that request's input
/// features. Batch results correlate with requests by position.
struct RunRequest {
  GraphPlanPtr plan;
  const SparseMatrix* features = nullptr;
};

struct BatchResult {
  std::vector<InferenceResult> results;  ///< one per request, request order
  BatchReport report;
};

/// One service-cost question: how long does this slot of requests run?
/// The parameter surface of CompiledModel::cost — the slot's members, its
/// warmth, and its plan variant in one struct. Designed for designated
/// initializers: `{.requests = reqs, .warm_fraction = 0.5}`.
struct CostQuery {
  /// Slot members, head first. All must share one plan fingerprint;
  /// requests[1..] are coalesced followers of the head's weight stream.
  std::span<const RunRequest> requests;
  /// Share of the plan's working set resident at slot start, in [0, 1],
  /// applied to every member (apply_warmth_discount).
  double warm_fraction = 0.0;
  /// Plan variant to price the slot under: 0 picks the cheapest member of
  /// the plan's family (dispatch's rule); a nonzero width selects that
  /// family member explicitly (it must exist).
  std::uint32_t variant_width = 0;
};

/// Scalar summary of one request's staged service cost on one engine
/// config — the POD slice of ServiceCost that routing code copies around
/// (serve::RequestEstimate embeds one per (die, request)). All cycles are
/// in the priced config's clock domain until a caller scales them.
struct ServiceCostSummary {
  Cycles cold_cycles = 0;           ///< lone cold service (run total)
  Cycles warm_cycles = 0;           ///< lone fully-warm service (fraction 1)
  Cycles swap_penalty_cycles = 0;   ///< plan-swap penalty of the priced config
  Cycles batch_saving_cycles = 0;   ///< saving as a coalesced follower
  Cycles weighting_cycles = 0;      ///< cold weighting-stage share (streamable)
  Cycles aggregation_cycles = 0;    ///< cold remainder (cannot overlap a stream)
};

/// Answer to one CostQuery: the slot's charged timing, split into the
/// weighting (weight-stream) and aggregation (compute) stages, plus the
/// head request's parametric surface so serving memos can re-price the same
/// slot at any warmth without re-running the engine. Callers needing
/// per-layer detail use run().
struct ServiceCost {
  // -- The queried slot, charged at the query's warmth/coalesce/variant --
  std::vector<Cycles> request_cycles;  ///< charged cycles per member, slot order
  Cycles total_cycles = 0;             ///< slot service time (Σ members + setup)
  Cycles serial_cycles = 0;            ///< same members serviced serially, no variant
  Cycles weighting_cycles = 0;   ///< charged weighting-stage share (incl. setup)
  Cycles aggregation_cycles = 0; ///< charged aggregation-stage share
  /// The slot's stream-track work: the head's cold weighting-stage share
  /// plus the dispatched variant's setup — what an intra-die pipeline may
  /// overlap with the previous slot's compute (PipelineConfig).
  Cycles stream_cycles = 0;
  Cycles warmth_discount_cycles = 0;   ///< Σ members' (cold − warm serial)
  Cycles weighting_saved_cycles = 0;   ///< Σ follower stream savings collected
  std::uint32_t variant_width = 0;     ///< dispatched variant (0 = default)

  // -- Head-request parametric surface (warmth-independent) --
  ServiceCostSummary head;
  /// The head's per-stage warmth surface (warmth_stages_of its cold run):
  /// warm_total(f) re-prices the head's lone service at any fraction,
  /// bit-exact with warm_total_cycles on the cold report.
  std::vector<WarmthStage> warm_stages;

  /// head.cold_cycles discounted to warm fraction `f` (exact arithmetic
  /// order of warm_total_cycles; f = 0 returns cold, f = 1 returns
  /// head.warm_cycles).
  Cycles warm_total(double warm_fraction) const;
};

/// A validated (model, weights, accelerator config, cache policy) bundle.
/// Immutable and cheaply copyable (shared state); safe to hand to several
/// serving threads, each running requests independently.
class CompiledModel {
 public:
  const ModelConfig& model() const;
  const EngineConfig& config() const;
  const GnnWeights& weights() const;
  const CachePolicy& cache_policy() const;
  const DramLayout& dram_layout() const;
  /// Precomputed §IV-A geometry of layer `l`'s weighting stage.
  const WeightingGeometry& layer_geometry(std::size_t l) const;
  /// Peak TOPS of the configured array (Table IV "Peak").
  double peak_tops() const;

  /// Plans (or returns the cached plan for) one graph. GraphSAGE models
  /// must pass one sampled adjacency per layer (sample_neighborhood) —
  /// those plans are not cached, since sampling is fresh per call; all
  /// other plans are cached per graph object and revalidated against the
  /// graph's structure fingerprint on every hit. The cache is a bounded
  /// LRU (EngineConfig::plan_cache_capacity, default 16 graphs): the
  /// least-recently planned graph is evicted first, and re-planning an
  /// evicted graph reproduces the identical plan (planning is
  /// deterministic). Evicted plans held by in-flight requests stay valid —
  /// eviction drops the cache's reference, not the plan.
  GraphPlanPtr plan(const Csr& g, std::vector<Csr> sampled_per_layer = {}) const;

  /// True when `plan` was built by this model's plan() — the only plans
  /// run() and cost() accept.
  bool owns(const GraphPlan& plan) const;

  /// Executes one request. Stateless: builds fresh accelerator state per
  /// call, so identical requests produce bit-identical outputs and reports.
  InferenceResult run(const RunRequest& request) const;

  /// Prices one service slot (see CostQuery): every distinct (plan,
  /// features) member is simulated once (runs are stateless, the in-call
  /// memo is exact), warmth discounts each member's aggregation stages
  /// (apply_warmth_discount, core/report.hpp), followers of a coalesced
  /// slot skip their weight-stream share, and the slot is dispatched onto
  /// the cheapest plan variant (or the one the query names). The single
  /// cost entry point: a one-request query at warm_fraction f charges
  /// exactly warm_total_cycles(run(request).report, f). All members must
  /// share one plan fingerprint (distinct plan objects of the same graph —
  /// e.g. across a plan-cache eviction — are fine).
  ServiceCost cost(const CostQuery& query) const;

  /// Convenience single-request query: cost({{&request, 1}, warm_fraction}).
  ServiceCost cost(const RunRequest& request, double warm_fraction = 0.0) const;

  /// Services requests sequentially on the modeled accelerator and returns
  /// per-request results plus the aggregate batch report (makespan,
  /// summed DRAM traffic, latency spread).
  BatchResult run_batch(std::span<const RunRequest> requests) const;

  /// Opaque compile output (definition in serving.cpp).
  struct State;

 private:
  friend class Engine;
  explicit CompiledModel(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Entry point of the serving lifecycle: owns the accelerator configuration
/// and the cache policy, and compiles models against them.
class Engine {
 public:
  /// `policy` null → the degree-aware policy (CP, §VI).
  explicit Engine(EngineConfig config = EngineConfig::paper_default(true),
                  std::shared_ptr<const CachePolicy> policy = nullptr);

  const EngineConfig& config() const { return config_; }
  const CachePolicy& cache_policy() const { return *policy_; }
  /// Peak TOPS of the configured array (Table IV "Peak").
  double peak_tops() const;

  /// Validates the model/weights pairing, sizes the DRAM layout, and
  /// precomputes per-layer weighting geometry. The overload taking a
  /// shared_ptr avoids copying large weight sets.
  CompiledModel compile(const ModelConfig& model, const GnnWeights& weights) const;
  CompiledModel compile(const ModelConfig& model,
                        std::shared_ptr<const GnnWeights> weights) const;

 private:
  EngineConfig config_;
  std::shared_ptr<const CachePolicy> policy_;
};

}  // namespace gnnie
