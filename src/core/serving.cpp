#include "core/serving.hpp"

#include <algorithm>

#include "cache/access_trace.hpp"
#include "cache/alloc.hpp"
#include "common/require.hpp"
#include "core/attention.hpp"
#include "graph/reorder.hpp"
#include "nn/ops.hpp"

namespace gnnie {

std::vector<PlanVariant> plan_variant_family(const EngineConfig& config) {
  std::vector<PlanVariant> family;
  if (config.pipeline.variant_widths.empty()) {
    family.push_back(PlanVariant{});  // the unbounded default variant
    return family;
  }
  family.reserve(config.pipeline.variant_widths.size());
  for (std::uint32_t width : config.pipeline.variant_widths) {
    PlanVariant v;
    v.width = width;
    v.setup_cycles = static_cast<Cycles>(width - 1) * kVariantSetupCycles;
    family.push_back(v);
  }
  return family;
}

// ---------------------------------------------------------------------------
// The serving cost model (described next to ServiceCost in serving.hpp)

namespace {

/// The warmth surface of one aggregation stage with DRAM traffic.
WarmthStage warmth_stage_of(const AggregationReport& agg) {
  WarmthStage stage;
  // Exposed memory time: total = Σ_iters max(compute, memory) ≥ Σ compute,
  // and ≤ compute + memory, so this is in [0, memory_cycles].
  stage.exposed_cycles =
      agg.total_cycles > agg.compute_cycles ? agg.total_cycles - agg.compute_cycles : 0;
  stage.fetch_share = std::min(1.0, static_cast<double>(agg.input_fetch_bytes) /
                                        static_cast<double>(agg.dram_bytes));
  return stage;
}

/// Cycles one stage saves at the given warm fraction: exposed fetch time ×
/// read share × fraction, so 0 at fraction 0 and never above the stage's
/// memory time.
Cycles warmth_stage_discount(const WarmthStage& stage, double warm_fraction) {
  if (warm_fraction <= 0.0) return 0;
  return static_cast<Cycles>(warm_fraction * static_cast<double>(stage.exposed_cycles) *
                             stage.fetch_share);
}

/// Cycles one coalesced follower saves on one weighting stage: the weight
/// share of the stage's exposed memory time.
Cycles batching_discount_cycles(const WeightingReport& w) {
  if (w.dram_stream_bytes == 0) return 0;
  // Exposed memory time of the stage: total = Σ_passes max(compute, memory)
  // ≥ compute, and ≤ compute + memory, so this lands in [0, memory_cycles].
  const Cycles exposed =
      w.total_cycles > w.compute_cycles ? w.total_cycles - w.compute_cycles : 0;
  const double weight_share =
      std::min(1.0, static_cast<double>(w.weight_stream_bytes) /
                        static_cast<double>(w.dram_stream_bytes));
  return static_cast<Cycles>(static_cast<double>(exposed) * weight_share);
}

}  // namespace

Cycles ServiceCost::warm_total(double warm_fraction) const {
  GNNIE_REQUIRE(warm_fraction >= 0.0 && warm_fraction <= 1.0,
                "warm fraction must be in [0, 1]");
  Cycles total = total_cycles;
  for (const WarmthStage& stage : warm_stages) {
    total -= warmth_stage_discount(stage, warm_fraction);
  }
  return total;
}

// ---------------------------------------------------------------------------
// GraphPlan

GraphPlan::SampledBinding::SampledBinding(Csr g, const CachePolicy& pol,
                                          const EngineConfig& config,
                                          std::size_t feature_width)
    : graph(std::move(g)) {
  if (pol.uses_subgraph_machinery()) {
    order = pol.layout_order(graph);
    positions = order_positions(order);
    reverse.emplace(graph);
    // α₀ for the directed sampled adjacency, via the engine's own shared
    // derivation so the hint cannot drift from the per-run fallback.
    initial_alpha = AggregationEngine::initial_alpha_for(graph, &*reverse);
  }
  capacity_width = feature_width;
  capacity = AggregationEngine::cache_capacity_for(config, graph, feature_width,
                                                   AggKind::kMax);
  working_set_bytes =
      AggregationEngine::working_set_bytes_for(config, graph, feature_width, AggKind::kMax);
  if (pol.kind() == CachePolicyKind::kDualCache) {
    // Per-plan dual-cache artifact: search the pinned/LRU split over this
    // layer's recorded access trace so runs skip the per-run search.
    dual_pinned =
        cache::best_dual_split(cache::AccessTrace::from_graph(graph), capacity, graph).pinned;
  }
}

// ---------------------------------------------------------------------------
// CompiledModel state

struct CompiledModel::State {
  EngineConfig config;
  ModelConfig model;
  std::shared_ptr<const GnnWeights> weights;
  std::shared_ptr<const CachePolicy> policy;
  DramLayout layout;
  std::vector<WeightingGeometry> layer_geom;        // main (embedding) layers
  std::vector<WeightingGeometry> pool_geom;         // DiffPool pool layers
  std::optional<WeightingGeometry> gin_mlp2_geom;   // GIN second linear
};

const ModelConfig& CompiledModel::model() const { return state_->model; }
const EngineConfig& CompiledModel::config() const { return state_->config; }
const GnnWeights& CompiledModel::weights() const { return *state_->weights; }
const CachePolicy& CompiledModel::cache_policy() const { return *state_->policy; }
const DramLayout& CompiledModel::dram_layout() const { return state_->layout; }

const WeightingGeometry& CompiledModel::layer_geometry(std::size_t l) const {
  GNNIE_REQUIRE(l < state_->layer_geom.size(), "layer index out of range");
  return state_->layer_geom[l];
}

double CompiledModel::peak_tops() const { return state_->config.peak_tops(); }

// ---------------------------------------------------------------------------
// Engine

Engine::Engine(EngineConfig config, std::shared_ptr<const CachePolicy> policy)
    : config_(std::move(config)), policy_(std::move(policy)) {
  config_.validate();
  if (policy_ == nullptr) policy_ = CachePolicy::make(CachePolicyKind::kDegreeAware);
}

double Engine::peak_tops() const { return config_.peak_tops(); }

CompiledModel Engine::compile(const ModelConfig& model, const GnnWeights& weights) const {
  return compile(model, std::make_shared<const GnnWeights>(weights));
}

CompiledModel Engine::compile(const ModelConfig& model,
                              std::shared_ptr<const GnnWeights> weights) const {
  GNNIE_REQUIRE(weights != nullptr, "weights must be provided");
  GNNIE_REQUIRE(model.input_dim > 0, "model.input_dim must be set");
  GNNIE_REQUIRE(model.num_layers > 0, "need at least one layer");
  GNNIE_REQUIRE(weights->layers.size() == model.num_layers, "weights/config layer mismatch");

  auto state = std::make_shared<CompiledModel::State>();
  state->config = config_;
  state->model = model;
  state->weights = std::move(weights);
  state->policy = policy_;

  // Validate each layer's parameter shapes once, at compile time, instead
  // of rediscovering mismatches one engine stage at a time mid-run.
  Bytes weight_footprint = 0;
  for (std::uint32_t l = 0; l < model.num_layers; ++l) {
    const LayerWeights& lw = state->weights->layers[l];
    const std::uint32_t f_in = model.layer_input_dim(l);
    const std::uint32_t f_out = model.layer_output_dim(l);
    GNNIE_REQUIRE(lw.w.rows() == f_in && lw.w.cols() == f_out,
                  "layer weight matrix does not match the model dimensions");
    if (model.kind == GnnKind::kGat) {
      GNNIE_REQUIRE(lw.a1.size() == f_out && lw.a2.size() == f_out,
                    "GAT attention vectors must match the layer output width");
      GNNIE_REQUIRE(model.gat_heads > 0 && f_out % model.gat_heads == 0,
                    "gat_heads must divide the layer output width");
    }
    if (model.kind == GnnKind::kGinConv) {
      GNNIE_REQUIRE(lw.w2.rows() == f_out && lw.w2.cols() == f_out &&
                        lw.b1.size() == f_out && lw.b2.size() == f_out,
                    "GIN MLP parameters must match the layer output width");
    }
    state->layer_geom.push_back(WeightingGeometry::for_dims(config_, f_in, f_out));
    weight_footprint += static_cast<Bytes>(f_in) * f_out * kWeightBytes;
  }
  if (model.kind == GnnKind::kGinConv) {
    state->gin_mlp2_geom =
        WeightingGeometry::for_dims(config_, model.hidden_dim, model.hidden_dim);
    weight_footprint += static_cast<Bytes>(model.num_layers) * model.hidden_dim *
                        model.hidden_dim * kWeightBytes;
  }
  if (model.kind == GnnKind::kDiffPool) {
    GNNIE_REQUIRE(state->weights->pool_layers.size() == model.num_layers,
                  "DiffPool needs one pool layer per embedding layer");
    for (std::uint32_t l = 0; l < model.num_layers; ++l) {
      const LayerWeights& lw = state->weights->pool_layers[l];
      const std::uint32_t f_in = model.layer_input_dim(l);
      const std::uint32_t f_out =
          (l + 1 == model.num_layers) ? model.pool_clusters : model.layer_output_dim(l);
      GNNIE_REQUIRE(lw.w.rows() == f_in && lw.w.cols() == f_out,
                    "pool layer weight matrix does not match the model dimensions");
      state->pool_geom.push_back(WeightingGeometry::for_dims(config_, f_in, f_out));
      weight_footprint += static_cast<Bytes>(f_in) * f_out * kWeightBytes;
    }
  } else {
    GNNIE_REQUIRE(state->weights->pool_layers.empty(),
                  "only DiffPool models carry pool layers");
  }

  // Size the DRAM layout: weights stream from weight_base and must fit the
  // region before the next one (feature_base) begins.
  GNNIE_REQUIRE(state->layout.weight_base < state->layout.feature_base,
                "DRAM layout must place the weight region before the feature region");
  const std::uint64_t weight_region_bytes =
      state->layout.feature_base - state->layout.weight_base;
  GNNIE_REQUIRE(weight_footprint < weight_region_bytes,
                "model weights exceed the DRAM weight region");

  return CompiledModel(std::move(state));
}

// ---------------------------------------------------------------------------
// Planning

namespace {

/// The aggregation kind each model kind drives (mirrors Executor::run_layer's
/// dispatch; needed at plan time to precompute input-buffer capacities).
AggKind agg_kind_of(GnnKind kind) {
  switch (kind) {
    case GnnKind::kGcn:
    case GnnKind::kDiffPool:
      return AggKind::kGcnNormalizedSum;
    case GnnKind::kGraphSage:
      return AggKind::kMax;
    case GnnKind::kGat:
      return AggKind::kGatSoftmax;
    case GnnKind::kGinConv:
      return AggKind::kPlainSum;
  }
  return AggKind::kPlainSum;  // unreachable
}

/// Every feature width the model's aggregation stages run at: the embedding
/// layers' output widths, plus the pool layers' widths and the Ã·S pass
/// (pool_clusters wide) for DiffPool.
std::vector<std::size_t> aggregation_widths(const ModelConfig& model) {
  std::vector<std::size_t> widths;
  auto add = [&](std::size_t w) {
    if (std::find(widths.begin(), widths.end(), w) == widths.end()) widths.push_back(w);
  };
  for (std::uint32_t l = 0; l < model.num_layers; ++l) add(model.layer_output_dim(l));
  if (model.kind == GnnKind::kDiffPool) {
    for (std::uint32_t l = 0; l < model.num_layers; ++l) {
      add(l + 1 == model.num_layers ? model.pool_clusters : model.layer_output_dim(l));
    }
  }
  return widths;
}

}  // namespace

GraphPlanPtr CompiledModel::plan(const Csr& g, std::vector<Csr> sampled_per_layer) const {
  const State& s = *state_;
  if (s.model.kind == GnnKind::kGraphSage) {
    GNNIE_REQUIRE(sampled_per_layer.size() == s.model.num_layers,
                  "GraphSAGE needs one sampled adjacency per layer");
    for (const Csr& sg : sampled_per_layer) {
      GNNIE_REQUIRE(sg.vertex_count() == g.vertex_count(),
                    "sampled adjacency must cover the planned graph");
    }
  } else {
    GNNIE_REQUIRE(sampled_per_layer.empty(),
                  "only GraphSAGE models take sampled adjacencies");
  }

  auto plan = std::shared_ptr<GraphPlan>(new GraphPlan());
  plan->owner_ = std::shared_ptr<const void>(state_, state_.get());
  plan->graph_ = &g;
  plan->fingerprint_ = g.structure_fingerprint();
  plan->planned_vertices_ = g.vertex_count();
  plan->planned_edges_ = g.edge_count();
  plan->policy_ = s.policy;
  if (s.model.kind == GnnKind::kGraphSage) {
    plan->sampled_.reserve(sampled_per_layer.size());
    for (std::uint32_t l = 0; l < sampled_per_layer.size(); ++l) {
      plan->sampled_.emplace_back(std::move(sampled_per_layer[l]), *s.policy, s.config,
                                  s.model.layer_output_dim(l));
      plan->warm_working_set_bytes_ =
          std::max(plan->warm_working_set_bytes_, plan->sampled_.back().working_set_bytes);
    }
  } else {
    if (s.policy->uses_subgraph_machinery()) {
      plan->order_ = s.policy->layout_order(g);
      plan->positions_ = order_positions(plan->order_);
      // α₀ for undirected aggregation over the planned graph, via the
      // engine's own shared derivation.
      plan->initial_alpha_ = AggregationEngine::initial_alpha_for(g, nullptr);
    }
    const AggKind kind = agg_kind_of(s.model.kind);
    for (std::size_t width : aggregation_widths(s.model)) {
      plan->agg_capacities_.emplace_back(
          width, AggregationEngine::cache_capacity_for(s.config, g, width, kind));
      plan->warm_working_set_bytes_ =
          std::max(plan->warm_working_set_bytes_,
                   AggregationEngine::working_set_bytes_for(s.config, g, width, kind));
    }
    if (s.policy->kind() == CachePolicyKind::kDualCache) {
      // Dual-cache plan artifact: one split search per distinct capacity,
      // over the trace the on-demand engine will deterministically replay.
      const cache::AccessTrace trace = cache::AccessTrace::from_graph(g);
      for (const auto& [width, capacity] : plan->agg_capacities_) {
        plan->dual_pinned_.emplace_back(width,
                                        cache::best_dual_split(trace, capacity, g).pinned);
      }
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Execution: one request = one Executor = one fresh HbmModel. Stateless by
// construction — nothing a run touches outlives the run.

namespace {

void add_bias_inplace(Matrix& m, const std::vector<float>& bias) {
  GNNIE_REQUIRE(bias.size() == m.cols(), "bias width mismatch");
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += bias[c];
  }
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) t.at(c, r) = m.at(r, c);
  }
  return t;
}

struct Executor {
  const CompiledModel::State& s;
  const GraphPlan& plan;
  HbmModel hbm;

  Executor(const CompiledModel::State& state, const GraphPlan& p)
      : s(state), plan(p), hbm(state.config.hbm) {}

  Cycles activation_cost(std::size_t elements) const {
    // The Activation unit applies σ as results stream to the output buffer —
    // one element per CPE-column lane per cycle.
    const std::uint64_t lanes = s.config.array.total_cpes();
    return (elements + lanes - 1) / lanes;
  }

  /// Binds the plan's per-graph precomputation into an aggregation task.
  /// task.hw must already be set — the capacity hint is keyed by its width.
  void bind_plan(AggregationTask& task, std::size_t layer) {
    task.policy = &plan.policy();
    const std::size_t f = task.hw->cols();
    if (s.model.kind == GnnKind::kGraphSage) {
      const auto& binding = plan.sampled(layer);
      task.graph = &binding.graph;
      if (binding.reverse.has_value()) task.reverse = &*binding.reverse;
      if (!binding.order.empty()) {
        task.order = &binding.order;
        task.positions = &binding.positions;
      }
      if (!binding.initial_alpha.empty()) task.initial_alpha = &binding.initial_alpha;
      if (f == binding.capacity_width) {
        task.cache_capacity_hint = binding.capacity;
        task.dual_pinned_hint = binding.dual_pinned;
      }
    } else {
      task.graph = &plan.graph();
      if (plan.has_layout()) {
        task.order = &plan.order();
        task.positions = &plan.positions();
      }
      if (plan.has_initial_alpha()) task.initial_alpha = &plan.initial_alpha();
      task.cache_capacity_hint = plan.cache_capacity_for_width(f);
      if (const auto pinned = plan.dual_pinned_for_width(f)) task.dual_pinned_hint = *pinned;
    }
  }

  Matrix run_layer(std::size_t l, const LayerWeights& lw, const WeightingGeometry& geom,
                   const Matrix* dense_in, const SparseMatrix* sparse_in,
                   bool final_activation, LayerReport& lr) {
    const ModelConfig& model = s.model;
    WeightingEngine weighting(s.config, &hbm, s.layout);
    AggregationEngine aggregation(s.config, &hbm, s.layout);

    // --- Weighting: ηw = h · W (weighting-first, §III Eq. 5). ---
    Matrix hw = sparse_in != nullptr ? weighting.run(*sparse_in, lw.w, &lr.weighting, &geom)
                                     : weighting.run(*dense_in, lw.w, &lr.weighting, &geom);
    lr.total_cycles += lr.weighting.total_cycles;

    // --- GAT attention partial products (Eq. 7). ---
    AttentionResult att;
    if (model.kind == GnnKind::kGat) {
      AttentionEngine attention(s.config, &hbm, s.layout);
      AttentionReport arep;
      att = attention.run(hw, lw.a1, lw.a2, &arep, model.gat_heads);
      lr.attention = arep;
      lr.total_cycles += arep.total_cycles;
    }

    // --- Edge aggregation, driven by the cache policy. ---
    // The same kind the plan sized its cache capacities for; then each
    // kind's extras.
    AggregationTask task;
    task.hw = &hw;
    task.kind = agg_kind_of(model.kind);
    bind_plan(task, l);
    task.directed = model.kind == GnnKind::kGraphSage;
    if (model.kind == GnnKind::kGat) {
      task.e1 = &att.e1;
      task.e2 = &att.e2;
      task.gat_heads = model.gat_heads;
      task.leaky_slope = model.leaky_slope;
    }
    if (model.kind == GnnKind::kGinConv) task.self_weight = 1.0f + model.gin_eps;
    Matrix out = aggregation.run(task, &lr.aggregation);
    lr.total_cycles += lr.aggregation.total_cycles;

    // --- GIN: the rest of the MLP — bias, ReLU, second dense linear. ---
    if (model.kind == GnnKind::kGinConv) {
      add_bias_inplace(out, lw.b1);
      relu_inplace(out);
      lr.activation_cycles += activation_cost(out.data().size());
      WeightingReport w2rep;
      out = weighting.run(out, lw.w2, &w2rep,
                          s.gin_mlp2_geom.has_value() ? &*s.gin_mlp2_geom : nullptr);
      lr.mlp2 = w2rep;
      lr.total_cycles += w2rep.total_cycles;
      add_bias_inplace(out, lw.b2);
    }

    if (final_activation) {
      relu_inplace(out);
      lr.activation_cycles += activation_cost(out.data().size());
    }
    lr.total_cycles += lr.activation_cycles;
    return out;
  }

  Matrix run_diffpool(const SparseMatrix& x0, InferenceReport& rep) {
    const GnnWeights& weights = *s.weights;
    // Embedding GNN (Eq. 3): GCN layers with ReLU.
    Matrix z;
    for (std::size_t l = 0; l < weights.layers.size(); ++l) {
      LayerReport lr;
      z = run_layer(l, weights.layers[l], s.layer_geom[l], l == 0 ? nullptr : &z,
                    l == 0 ? &x0 : nullptr, /*final_activation=*/true, lr);
      rep.total_cycles += lr.total_cycles;
      rep.layers.push_back(std::move(lr));
    }
    // Pooling GNN (Eq. 4): GCN layers; the last one emits logits → softmax.
    Matrix sm;
    for (std::size_t l = 0; l < weights.pool_layers.size(); ++l) {
      const bool last = l + 1 == weights.pool_layers.size();
      LayerReport lr;
      sm = run_layer(l, weights.pool_layers[l], s.pool_geom[l], l == 0 ? nullptr : &sm,
                     l == 0 ? &x0 : nullptr, /*final_activation=*/!last, lr);
      rep.total_cycles += lr.total_cycles;
      rep.layers.push_back(std::move(lr));
    }
    row_softmax_inplace(sm);  // SFU exp + divide per assignment entry
    const std::uint64_t softmax_ops = 2ull * sm.rows() * sm.cols();
    const Cycles softmax_cycles =
        (softmax_ops + kSfuLanes - 1) / kSfuLanes + kSfuExpLatency;

    // Coarsening: Xc = SᵀZ and Ac = Sᵀ(ÃS) — dense matmuls on the CPE array
    // plus one more aggregation pass for ÃS.
    LayerReport coarsen;
    WeightingEngine weighting(s.config, &hbm, s.layout);
    AggregationEngine aggregation(s.config, &hbm, s.layout);
    const Matrix st = transpose(sm);

    Matrix xc = weighting.run(st, z, &coarsen.weighting);
    coarsen.total_cycles += coarsen.weighting.total_cycles;

    AggregationTask as_task;
    as_task.hw = &sm;
    as_task.kind = AggKind::kGcnNormalizedSum;
    bind_plan(as_task, 0);
    Matrix as = aggregation.run(as_task, &coarsen.aggregation);
    coarsen.total_cycles += coarsen.aggregation.total_cycles;

    WeightingReport ac_rep;
    Matrix ac = weighting.run(st, as, &ac_rep);
    coarsen.mlp2 = ac_rep;
    coarsen.total_cycles += ac_rep.total_cycles + softmax_cycles;
    coarsen.activation_cycles = softmax_cycles;
    rep.total_cycles += coarsen.total_cycles;
    rep.total_sfu_ops += softmax_ops;
    rep.layers.push_back(std::move(coarsen));

    (void)ac;  // Ac feeds the next DiffPool level; the evaluation reports Xc.
    return xc;
  }
};

}  // namespace

bool CompiledModel::owns(const GraphPlan& plan) const {
  const std::shared_ptr<const void> owner = plan.owner_.lock();
  return owner != nullptr && owner.get() == state_.get();
}

InferenceResult CompiledModel::run(const RunRequest& request) const {
  const State& s = *state_;
  GNNIE_REQUIRE(request.plan != nullptr, "request needs a GraphPlan (CompiledModel::plan)");
  GNNIE_REQUIRE(request.features != nullptr, "request needs input features");
  GNNIE_REQUIRE(owns(*request.plan),
                "plan was created by a different (or destroyed) CompiledModel");
  const Csr& g = request.plan->graph();
  // O(1) staleness guard: catches the planned Csr being reassigned in
  // place.
  GNNIE_REQUIRE(g.vertex_count() == request.plan->planned_vertex_count() &&
                    g.edge_count() == request.plan->planned_edge_count(),
                "planned graph changed since plan() — re-plan it");
  const SparseMatrix& x0 = *request.features;
  GNNIE_REQUIRE(x0.row_count() == g.vertex_count(), "features/graph mismatch");
  GNNIE_REQUIRE(x0.col_count() == s.model.input_dim, "features must match model.input_dim");

  Executor exec(s, *request.plan);
  InferenceResult result;
  InferenceReport& rep = result.report;

  if (s.model.kind == GnnKind::kDiffPool) {
    result.output = exec.run_diffpool(x0, rep);
  } else {
    Matrix h;
    for (std::uint32_t l = 0; l < s.model.num_layers; ++l) {
      LayerReport lr;
      h = exec.run_layer(l, s.weights->layers[l], s.layer_geom[l], l == 0 ? nullptr : &h,
                         l == 0 ? &x0 : nullptr, /*final_activation=*/true, lr);
      rep.total_cycles += lr.total_cycles;
      rep.layers.push_back(std::move(lr));
    }
    result.output = std::move(h);
  }

  for (const LayerReport& lr : rep.layers) {
    rep.total_macs += lr.weighting.macs;
    if (lr.attention) rep.total_macs += lr.attention->macs;
    if (lr.mlp2) rep.total_macs += lr.mlp2->macs;
    rep.total_macs += lr.aggregation.macs;
    rep.total_accum_ops += lr.aggregation.accum_ops;
    rep.total_sfu_ops += lr.aggregation.sfu_ops;
  }
  rep.dram = exec.hbm.stats();
  rep.dram_energy = exec.hbm.energy();
  return result;
}

ServiceCost CompiledModel::cost(const RunRequest& request) const {
  const InferenceReport cold = run(request).report;
  ServiceCost cost;
  cost.total_cycles = cold.total_cycles;
  for (const LayerReport& lr : cold.layers) {
    cost.weighting_cycles += lr.weighting.total_cycles;
    cost.batch_saving_cycles += batching_discount_cycles(lr.weighting);
    if (lr.mlp2) {
      cost.weighting_cycles += lr.mlp2->total_cycles;
      cost.batch_saving_cycles += batching_discount_cycles(*lr.mlp2);
    }
    if (lr.aggregation.dram_bytes != 0) {
      cost.warm_stages.push_back(warmth_stage_of(lr.aggregation));
    }
  }
  cost.warm_cycles = cost.warm_total(1.0);
  return cost;
}

}  // namespace gnnie
