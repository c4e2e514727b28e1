// Edge Aggregation on the CPE array (§V-C) driven by the graph-specific
// cache policy (§VI).
//
// Subgraph mode (policies with uses_subgraph_machinery()): vertices live in
// DRAM in the policy's layout_order() — descending-degree-bin order for the
// degree-aware policy (CP), plain vertex-id order for the §VIII-E ID-order
// baseline. The input buffer holds n of them — the current *subgraph*. Each
// iteration processes every unprocessed edge whose endpoints are both
// cached, decrementing each endpoint's unprocessed-edge count α. Vertices
// with α < γ are evicted (dictionary order, r per iteration) and replaced
// by the next vertices in the DRAM order; fully-processed vertices and
// cache blocks are skipped. A pass over the whole order is a Round (Fig. 10
// histograms are recorded at Round boundaries). All DRAM fetches walk
// forward through the layout — sequential by construction. If a whole
// Round makes (almost) no progress, a livelock sweep finishes the residue
// through the same edge walk, pulling each endpoint on demand instead of
// requiring it cached (random DRAM reads, reported as such).
//
// Edge discovery in subgraph mode: a walk of vertex u visits only u's
// *live list*, the CSR entries still pending at u's last walk (ascending),
// drops those it finds processed and keeps those whose other endpoint is
// not cached, so a refetched vertex rescans only its pending work. An
// undirected edge is processed once, from whichever endpoint is walked
// first, and its second CSR entry is marked through a per-run mirror
// index (for the entry u→w, u's index in w's list). Undirected subgraph
// tasks therefore need a symmetric adjacency with ascending neighbor
// lists and no self-loops (the engine adds each vertex's self term
// itself); the run checks this while building the index and throws
// std::invalid_argument otherwise. Directed tasks discover x→u from u's
// side through the ReverseAdjacency.
//
// On-demand mode (on-demand, dual-cache and belady-oracle policies):
// vertices are processed in ID order and each vertex pulls its neighbors' ηw
// on demand through a cache::ReplacementBuffer built from the policy's
// replacement(); each neighbor miss is a random DRAM read. The accesses are
// exactly cache::AccessTrace::from_graph, so replaying that trace through
// the same buffer (cache/replay.hpp) reproduces the run's fetch count.
//
// The policy comes from AggregationTask::policy (the serving path binds it
// from the GraphPlan); tasks without one run the degree-aware policy.
//
// The engine is functional (produces the aggregated feature matrix for the
// GNN kind at hand) and timed (cycles, DRAM traffic, α histograms). One
// ledger in aggregation.cpp charges every mode's cycles and DRAM traffic,
// epoch by epoch (the subgraph fill and each iteration, each on-demand
// window of n targets, the sweep): compute from the epoch's accumulations
// (spread over every MAC plus the adder-tree depth under load balancing,
// else the busiest home CPE; the sweep always balances and skips the
// adder tree) and SFU work, memory from the HbmModel, and the epoch costs
// the larger of the two. The engine needs an HbmModel; null throws.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/histogram.hpp"
#include "core/cache_policy.hpp"
#include "core/engine_config.hpp"
#include "graph/csr.hpp"
#include "mem/hbm.hpp"
#include "nn/matrix.hpp"

namespace gnnie {

/// Reverse adjacency with forward-edge indices, for directed tasks: for
/// vertex u, lists (x, forward_edge_index) pairs such that u appears in
/// x's neighbor list at that index. Precomputable once per graph (the
/// GraphPlan binds one per sampled adjacency) and reusable across runs.
struct ReverseAdjacency {
  std::vector<EdgeId> offsets;
  std::vector<VertexId> sources;
  std::vector<EdgeId> forward_index;

  explicit ReverseAdjacency(const Csr& g);
};

/// Sentinel for AggregationTask::dual_pinned_hint: no plan-level precompute,
/// so the run searches the dual-cache split itself (cache::best_dual_split
/// over the trace).
inline constexpr std::uint64_t kNoDualPinnedHint =
    std::numeric_limits<std::uint64_t>::max();

enum class AggKind {
  kGcnNormalizedSum,  ///< Σ hw_j/√(d̃i·d̃j), self loop included (GCN)
  kPlainSum,          ///< self_weight·hw_i + Σ hw_j (GIN with 1+ε, generic sum)
  kMax,               ///< elementwise max over {i} ∪ N(i) (GraphSAGE pooling)
  kGatSoftmax,        ///< softmax(LeakyReLU(e1_i + e2_j))-weighted sum (GAT)
};

struct AggregationTask {
  const Csr* graph = nullptr;
  /// Directed adjacency (GraphSAGE sampled neighborhoods): an edge u→w in
  /// `graph` (w listed under u) contributes w's features to u only.
  bool directed = false;
  const Matrix* hw = nullptr;  ///< weighted features ηw, |V| × F
  AggKind kind = AggKind::kPlainSum;
  float self_weight = 1.0f;
  /// GAT per-vertex, per-head attention partial products (Eq. 7), laid out
  /// [v·heads + h]; required for kGatSoftmax.
  const std::vector<float>* e1 = nullptr;
  const std::vector<float>* e2 = nullptr;
  std::uint32_t gat_heads = 1;
  float leaky_slope = 0.2f;
  /// Cache policy driving layout and fetch behavior. Null → degree-aware.
  const CachePolicy* policy = nullptr;
  /// Precomputed layout order / inverse positions (GraphPlan reuse). Must
  /// be consistent with `policy->layout_order(*graph)`; null → computed on
  /// the fly. Both or neither must be set.
  const std::vector<VertexId>* order = nullptr;
  const std::vector<VertexId>* positions = nullptr;
  /// Precomputed reverse adjacency for directed tasks; null → built here.
  const ReverseAdjacency* reverse = nullptr;
  /// Plan-level precompute of the initial α values (unprocessed edge
  /// endpoints per vertex: degree, plus reverse in-degree for directed
  /// tasks). Null → derived here. Must equal what this engine would derive
  /// — it is used verbatim.
  const std::vector<std::uint32_t>* initial_alpha = nullptr;
  /// Plan-level precompute of the input-buffer capacity (vertices) for this
  /// task's graph and feature width. 0 → derived here via
  /// cache_capacity_for (the derived value is never 0). Must equal the
  /// derived value.
  std::uint64_t cache_capacity_hint = 0;
  /// Plan-level precompute of the dual-cache pinned-region size for this
  /// task (GraphPlan::dual_pinned_for_width): the run pins the top-p hubs
  /// of the exact degree order, p clamped to the capacity. kNoDualPinnedHint
  /// → searched per run. Only read by the kDualPinnedLru replacement
  /// discipline.
  std::uint64_t dual_pinned_hint = kNoDualPinnedHint;
  /// When non-null, the engine appends its vertex access sequence here:
  /// on-demand modes log every input-buffer access (the reference string
  /// the cache/ subsystem replays); subgraph mode logs each DRAM vertex
  /// fetch. Recording does not perturb the run.
  std::vector<VertexId>* access_log = nullptr;
};

struct AggregationReport {
  Cycles compute_cycles = 0;
  Cycles memory_cycles = 0;
  Cycles total_cycles = 0;
  std::uint64_t iterations = 0;
  std::uint64_t rounds = 0;
  std::uint64_t edges_processed = 0;       ///< undirected pairs (or directed edges)
  std::uint64_t accum_ops = 0;             ///< F-wide accumulate operations
  std::uint64_t macs = 0;                  ///< accum_ops × F, at the width this run aggregated
  std::uint64_t sfu_ops = 0;               ///< exp/divide operations (GAT)
  std::uint64_t dram_accesses = 0;
  std::uint64_t random_dram_accesses = 0;  ///< on-demand misses (baseline mode)
  Bytes dram_bytes = 0;
  /// DRAM bytes *read* to fill the input working set (properties, adjacency
  /// slices, spilled-partial reloads); the rest of dram_bytes is write-back
  /// traffic. This is the component a warm residency skips (see
  /// ServiceCost in core/serving.hpp).
  Bytes input_fetch_bytes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t refetches = 0;             ///< vertices fetched after round 1
  /// Input-buffer lookups / hits in the on-demand modes (zero in subgraph
  /// mode, whose residency is governed by α/γ rather than per-access
  /// replacement). hits/accesses is the hit rate the cache/ trace replays
  /// reproduce exactly.
  std::uint64_t buffer_accesses = 0;
  std::uint64_t buffer_hits = 0;
  /// Subgraph-mode evictions forced by a full set (§VI/Fig. 9 model) rather
  /// than the α < γ rule — what the set-aware layout exists to reduce.
  std::uint64_t set_conflict_evictions = 0;
  /// Dual-cache mode: vertices preloaded into the pinned hub region.
  std::uint64_t dual_pinned_vertices = 0;
  std::uint64_t partial_spills = 0;        ///< incomplete partials pushed to DRAM
  std::uint64_t gamma_escalations = 0;     ///< dynamic-γ deadlock recoveries
  /// True if the run fell back to the on-demand residue sweep (a full
  /// Round made no progress — pathological γ / buffer combinations).
  bool livelock_sweep = false;
  std::uint32_t final_gamma = 0;
  std::uint64_t cache_capacity_vertices = 0;
  /// Which cache policy actually drove the run.
  CachePolicyKind policy = CachePolicyKind::kDegreeAware;
  /// α histogram over cached vertices at each Round boundary (Fig. 10).
  std::vector<Histogram> alpha_round_histograms;
};

class AggregationEngine {
 public:
  /// `hbm` times every DRAM access of a run; null throws
  /// std::invalid_argument.
  AggregationEngine(const EngineConfig& config, HbmModel* hbm, const DramLayout& layout = {});

  /// Runs aggregation under the task's CachePolicy (degree-aware when
  /// task.policy is null). Returns the aggregated matrix.
  Matrix run(const AggregationTask& task, AggregationReport* report = nullptr);

  /// Input-buffer capacity in vertices for aggregation over `g` at one
  /// feature width: the derivation task.cache_capacity_hint must reproduce.
  /// run() falls back to it when the task carries no hint; GraphPlan
  /// precomputes one value per distinct feature width so runs skip it.
  static std::uint64_t cache_capacity_for(const EngineConfig& config, const Csr& g,
                                          std::size_t feature_width, AggKind kind);

  /// On-chip bytes the cached feature working set occupies for aggregation
  /// over `g` at one feature width: cache capacity (vertices) × the same
  /// per-vertex footprint cache_capacity_for divides by. This is the unit
  /// of the serving layer's per-die cache-residency (warmth) model — a plan
  /// is "warm" on a die when these bytes are already resident.
  static Bytes working_set_bytes_for(const EngineConfig& config, const Csr& g,
                                     std::size_t feature_width, AggKind kind);

  /// Initial α values for aggregation over `g`: the degree, plus the
  /// reverse in-degree for directed tasks (reverse != nullptr). The one
  /// derivation shared by the per-run fallback and the GraphPlan
  /// precompute, so the two can never drift apart.
  static std::vector<std::uint32_t> initial_alpha_for(const Csr& g,
                                                      const ReverseAdjacency* reverse);

 private:
  struct FunctionalState;  // the aggregated matrix under construction

  void run_subgraph(const AggregationTask& task, const CachePolicy& policy,
                    FunctionalState& state, AggregationReport& rep);
  void run_on_demand(const AggregationTask& task, const CachePolicy& policy,
                     FunctionalState& state, AggregationReport& rep);

  const EngineConfig& config_;
  HbmModel* hbm_;
  DramLayout layout_;
};

}  // namespace gnnie
