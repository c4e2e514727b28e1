// The GNNIE serving API: compile once, plan per graph, run many.
//
//   Engine engine(EngineConfig::paper_default(false));
//   CompiledModel model = engine.compile(model_config, weights);
//   GraphPlanPtr plan = model.plan(graph);         // keep it: one per graph
//   InferenceResult r = model.run({plan, &features});
//   ServiceCost c = model.cost({plan, &features}); // serving cost record
//
// The lifecycle splits GNNIE's per-graph planning work (§IV-C weighting
// bins, §VI degree-aware cache layout) from per-request execution. A
// CompiledModel is an immutable compile output, and its three calls are
// pure functions of their arguments:
//
//   * Engine::compile validates the model/weights pairing once, sizes the
//     DRAM layout, and precomputes every layer's weighting geometry.
//   * CompiledModel::plan binds one graph: the cache policy's DRAM layout
//     order, its inverse positions, reverse adjacencies for sampled
//     (directed) layers — everything reusable across runs on that graph.
//     Each call builds a fresh plan; callers keep the GraphPlanPtr.
//   * CompiledModel::run executes one request against a plan. Every run
//     builds its accelerator state (HbmModel) fresh, so runs are stateless
//     by construction: back-to-back runs report identical stats. Batches
//     of requests are served by serve::Cluster (serve/cluster.hpp).
//   * CompiledModel::cost runs one request and returns its ServiceCost:
//     the cold and fully-warm totals, the §IV weighting share, the
//     follower saving, and the per-stage warmth surface. The serving
//     cluster memoizes one per (config, plan, features) and prices every
//     service slot from it.
//
// The cache behavior is selected by a CachePolicy instance handed to the
// Engine (core/cache_policy.hpp); a null policy means degree-aware.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// One member of a config's plan-variant family (plan_variant_family):
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
/// variant); a width-w member's setup is (w − 1) · kVariantSetupCycles.
/// The serving cluster dispatches each slot onto the cheapest member.
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
  /// common case of the planned Csr being reassigned in place.
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
};

using GraphPlanPtr = std::shared_ptr<const GraphPlan>;

/// One inference request: a plan (graph binding) plus that request's input
/// features.
struct RunRequest {
  GraphPlanPtr plan;
  const SparseMatrix* features = nullptr;
};

// ---------------------------------------------------------------------------
// The serving cost model. GNNIE runs every layer weighting-first, then
// aggregates (§III Eq. 5), and a request's serving price follows that split:
//
//   * Warmth (EngineConfig::warmth). A run on a die where fraction f of the
//     plan's cached working set is already resident skips that share of each
//     aggregation stage's *exposed* DRAM-fetch time: the memory cycles not
//     hidden behind compute (total − compute), scaled by the read share of
//     the stage's DRAM traffic (input_fetch_bytes / dram_bytes — write-backs
//     still happen warm). The discount is 0 at f = 0 (a cold run costs
//     exactly its run() total), monotone in f, and can never push a stage
//     below its compute time — warm cost ≤ cold cost always.
//   * Coalescing (EngineConfig::batching). Same-plan requests serviced in
//     one die slot stream each weighting pass's weight columns from DRAM
//     once — the weight-stationary array already holds them when a
//     follower's features stream through — and the per-plan setup
//     (weighting geometry, FM bin boundaries over the z-histogram) is
//     charged once for the slot. Followers therefore skip the weight-stream
//     share of each weighting stage's exposed memory time, while
//     aggregation, attention, and activation remain per request: GNNIE's
//     aggregation is graph- and value-dependent, so it cannot batch. The
//     saving is ≥ 0 and never exceeds the stage's exposed memory time, so a
//     coalesced slot is never longer than the serial sum of its members.
//   * Pipelining (EngineConfig::pipeline). A die's stream track overlaps a
//     slot's weighting share with the previous slot's compute; the
//     remainder (aggregation, attention, activation) cannot overlap.
//
// The coalescing saving touches only weighting stages and the warmth
// discount only aggregation stages, so the two compose without interaction.

/// One aggregation stage's warmth surface: its exposed DRAM-fetch time and
/// the read share of its traffic — all the warm discount needs.
struct WarmthStage {
  Cycles exposed_cycles = 0;
  double fetch_share = 0.0;
};

/// One request's service cost on one engine config (CompiledModel::cost),
/// built once from its cold run: it prices the request at any warmth, as a
/// slot head or a coalesced follower, without re-running the engine. The
/// serving cluster memoizes one per (config, plan, features); its slot
/// pricing, schedulers, and admission read it directly. All cycles are at
/// kClockHz. Callers needing per-layer detail use run().
struct ServiceCost {
  /// Lone cold service: run(request).report.total_cycles.
  Cycles total_cycles = 0;
  /// Lone fully-warm service, warm_total(1.0) — kept because routing reads
  /// it on every offer.
  Cycles warm_cycles = 0;
  /// The weighting share of total_cycles: every weighting stage's total
  /// (GIN's second linear and DiffPool's coarsening matmuls included) —
  /// the part a pipelined die streams under the previous slot.
  Cycles weighting_cycles = 0;
  /// Cycles a coalesced follower saves against serial service, summed over
  /// the same weighting stages.
  Cycles batch_saving_cycles = 0;
  /// The aggregation stages that can discount (those with DRAM traffic),
  /// in layer order; a stage without traffic discounts 0 at every fraction.
  std::vector<WarmthStage> warm_stages;

  /// total_cycles discounted to `warm_fraction` in [0, 1]: 0 returns
  /// total_cycles, 1 returns warm_cycles. The one way to price a request
  /// warm.
  Cycles warm_total(double warm_fraction) const;
};

/// Charge of one slot member given its (already warmth-discounted) serial
/// cost and its follower saving: the head pays serial, followers subtract
/// the saving, clamped so a slot is never longer than serial service. The
/// single encoding of the member-charge rule the serving cluster prices
/// slots with.
inline Cycles batch_member_charge(Cycles serial_cycles, Cycles follower_saving,
                                  bool follower) {
  if (!follower) return serial_cycles;
  return serial_cycles - (follower_saving < serial_cycles ? follower_saving : serial_cycles);
}

/// A validated (model, weights, accelerator config, cache policy) bundle.
/// Immutable and cheaply copyable (shared state, never written after
/// compile); safe to hand to several serving threads, each planning and
/// running requests independently.
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

  /// Builds a fresh plan for one graph on every call. GraphSAGE models must
  /// pass one sampled adjacency per layer (sample_neighborhood). Planning is
  /// deterministic: two plans of one graph are distinct objects with equal
  /// fingerprint, layout and precomputes, and run bit-identically. The
  /// serving cluster keys coalescing and affinity on fingerprint(), not on
  /// the plan object.
  GraphPlanPtr plan(const Csr& g, std::vector<Csr> sampled_per_layer = {}) const;

  /// True when `plan` was built by this model's plan() — the only plans
  /// run() and cost() accept.
  bool owns(const GraphPlan& plan) const;

  /// Executes one request. Stateless: builds fresh accelerator state per
  /// call, so identical requests produce bit-identical outputs and reports.
  InferenceResult run(const RunRequest& request) const;

  /// Runs `request` once and returns its service cost: total_cycles is
  /// exactly run(request).report.total_cycles, and the rest is derived from
  /// that run's report (ServiceCost::warm_total prices it warm). Coalesced
  /// slots, plan variants, and swap penalties are priced by the serving
  /// cluster (serve/cluster.hpp), not here.
  ServiceCost cost(const RunRequest& request) const;

  /// Opaque compile output (definition in serving.cpp).
  struct State;

 private:
  friend class Engine;
  explicit CompiledModel(std::shared_ptr<const State> state) : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
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
