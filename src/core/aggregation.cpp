#include "core/aggregation.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "cache/access_trace.hpp"
#include "cache/alloc.hpp"
#include "cache/replay.hpp"
#include "common/audit.hpp"
#include "common/require.hpp"
#include "graph/reorder.hpp"

namespace gnnie {

/// Functional state shared by both execution modes. All modes accumulate
/// into `out`; GAT additionally tracks the softmax denominator.
struct AggregationEngine::FunctionalState {
  Matrix out;
  std::vector<float> denom;          // GAT softmax denominators, [v·heads + h]
  std::vector<float> inv_sqrt_deg;   // GCN normalization 1/√(deg+1)
  std::uint32_t heads = 1;
  std::size_t f_head = 0;

  /// exp(LeakyReLU(e1_dst,h + e2_src,h)), saturated like the SFU.
  float gat_score(const AggregationTask& task, VertexId dst, VertexId src,
                  std::uint32_t hd) const {
    const float e = (*task.e1)[dst * heads + hd] + (*task.e2)[src * heads + hd];
    return std::exp(std::min(60.0f, e >= 0.0f ? e : task.leaky_slope * e));
  }

  FunctionalState(const AggregationTask& task) {
    const Csr& g = *task.graph;
    const Matrix& hw = *task.hw;
    out = Matrix(hw.rows(), hw.cols());
    heads = task.gat_heads;
    f_head = heads > 0 ? hw.cols() / heads : hw.cols();
    if (task.kind == AggKind::kGcnNormalizedSum) {
      inv_sqrt_deg.resize(g.vertex_count());
      for (VertexId v = 0; v < g.vertex_count(); ++v) {
        inv_sqrt_deg[v] = 1.0f / std::sqrt(static_cast<float>(g.degree(v)) + 1.0f);
      }
    }
    if (task.kind == AggKind::kGatSoftmax) {
      GNNIE_REQUIRE(heads > 0 && hw.cols() % heads == 0,
                    "gat_heads must divide the feature width");
      denom.assign(static_cast<std::size_t>(g.vertex_count()) * heads, 0.0f);
    }

    // Self contributions ({i} ∪ N(i) semantics) applied once up front.
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      auto self = hw.row(v);
      auto dst = out.row(v);
      switch (task.kind) {
        case AggKind::kGcnNormalizedSum:
          axpy(inv_sqrt_deg[v] * inv_sqrt_deg[v], self, dst);
          break;
        case AggKind::kPlainSum:
          axpy(task.self_weight, self, dst);
          break;
        case AggKind::kMax:
          std::copy(self.begin(), self.end(), dst.begin());
          break;
        case AggKind::kGatSoftmax:
          for (std::uint32_t hd = 0; hd < heads; ++hd) {
            const float s = gat_score(task, v, v, hd);
            for (std::size_t c = hd * f_head; c < (hd + 1) * f_head; ++c) {
              dst[c] += s * self[c];
            }
            denom[v * heads + hd] += s;
          }
          break;
      }
    }
  }

  /// One directed contribution: features of `src` flow into `dst`.
  void contribute(const AggregationTask& task, VertexId dst, VertexId src) {
    const Matrix& hw = *task.hw;
    auto d = out.row(dst);
    auto s = hw.row(src);
    switch (task.kind) {
      case AggKind::kGcnNormalizedSum:
        axpy(inv_sqrt_deg[dst] * inv_sqrt_deg[src], s, d);
        break;
      case AggKind::kPlainSum:
        axpy(1.0f, s, d);
        break;
      case AggKind::kMax:
        for (std::size_t c = 0; c < d.size(); ++c) d[c] = std::max(d[c], s[c]);
        break;
      case AggKind::kGatSoftmax:
        for (std::uint32_t hd = 0; hd < heads; ++hd) {
          const float score = gat_score(task, dst, src, hd);
          for (std::size_t c = hd * f_head; c < (hd + 1) * f_head; ++c) {
            d[c] += score * s[c];
          }
          denom[dst * heads + hd] += score;
        }
        break;
    }
  }

  void finalize(const AggregationTask& task) {
    if (task.kind != AggKind::kGatSoftmax) return;
    for (std::size_t v = 0; v < out.rows(); ++v) {
      auto row = out.row(v);
      for (std::uint32_t hd = 0; hd < heads; ++hd) {
        const float d = denom[v * heads + hd];
        GNNIE_ASSERT(d > 0.0f, "GAT softmax denominator must be positive (self term)");
        for (std::size_t c = hd * f_head; c < (hd + 1) * f_head; ++c) row[c] /= d;
      }
    }
  }
};

namespace {

std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

/// Subgraph mode's max replacements per iteration, as a fraction of the
/// cache capacity (r = n/8).
constexpr double kReplacementFraction = 0.125;

/// The one place an aggregation run charges cycles and DRAM traffic: every
/// HbmModel access and every cycle, traffic and operation counter of the
/// report goes through here. Work is charged in epochs (the subgraph fill
/// and each iteration, each on-demand window of n targets, the livelock
/// sweep) whose DRAM time overlaps their compute, so an epoch costs
/// max(compute, memory).
class Ledger {
 public:
  Ledger(const EngineConfig& config, HbmModel& hbm, const DramLayout& layout,
         const AggregationTask& task, AggregationReport& rep)
      : partial_bytes(static_cast<Bytes>(task.hw->cols()) * kFeatureBytes),
        prop_bytes(partial_bytes + 4 + (task.kind == AggKind::kGatSoftmax ? 8 : 0)),
        config_(config),
        hbm_(hbm),
        layout_(layout),
        rep_(rep),
        f_(task.hw->cols()),
        sfu_per_accumulation_(task.kind == AggKind::kGatSoftmax ? task.gat_heads : 0),
        sfu_per_finish_(task.kind == AggKind::kGatSoftmax ? f_ : 0),
        load_balanced_(config.opts.aggregation_load_balance),
        fan_in_stamp_(task.graph->vertex_count(), 0),
        fan_in_(task.graph->vertex_count(), 0),
        cpe_load_(config.array.total_cpes(), 0) {
    hbm_.begin_epoch();
  }

  /// A vertex's partial or result row and its DRAM record (ηw, α, e1/e2
  /// for GAT), by layout slot.
  const Bytes partial_bytes;
  const Bytes prop_bytes;
  std::uint64_t prop_addr(std::uint64_t slot) const {
    return layout_.property_base + slot * prop_bytes;
  }
  std::uint64_t out_addr(std::uint64_t slot) const {
    return layout_.output_base + slot * partial_bytes;
  }

  /// A DRAM read. Every read fills the input working set (properties,
  /// adjacency slices, spilled partials); `random` counts an on-demand pull.
  void read(std::uint64_t addr, Bytes bytes, MemClient client, bool random = false) {
    hbm_.access(addr, bytes, false, client);
    ++rep_.dram_accesses;
    rep_.dram_bytes += bytes;
    rep_.input_fetch_bytes += bytes;
    if (random) ++rep_.random_dram_accesses;
  }

  void write(std::uint64_t addr, Bytes bytes, MemClient client) {
    hbm_.access(addr, bytes, true, client);
    ++rep_.dram_accesses;
    rep_.dram_bytes += bytes;
  }

  /// `count` F-wide accumulations into `dst` (plus one exp per GAT head
  /// each): spread over every MAC under load balancing, else on dst's home
  /// CPE. The adder tree's depth follows the largest per-vertex fan-in.
  void accumulate(VertexId dst, std::uint32_t count = 1) {
    accumulations_ += count;
    sfu_ops_ += sfu_per_accumulation_ * count;
    if (fan_in_stamp_[dst] != stamp_) {
      fan_in_stamp_[dst] = stamp_;
      fan_in_[dst] = 0;
    }
    fan_in_[dst] += count;
    max_fan_in_ = std::max(max_fan_in_, fan_in_[dst]);
    if (!load_balanced_) {
      const std::uint32_t home = dst % config_.array.total_cpes();
      cpe_load_[home] +=
          count * div_ceil(f_, config_.array.macs_in_row(home / config_.array.cols));
    }
  }

  /// The vertex's last contribution arrived: GAT's softmax divide, then the
  /// result's write-back to its output slot.
  void finish_vertex(std::uint64_t slot) {
    sfu_ops_ += sfu_per_finish_;
    write(out_addr(slot), partial_bytes, MemClient::kOutput);
  }

  std::uint64_t epoch_accumulations() const { return accumulations_; }

  /// The livelock sweep's compute rule: always load-balanced, no adder-tree
  /// term.
  void use_sweep_rule() {
    load_balanced_ = true;
    adder_tree_ = false;
  }

  /// Charges the epoch — max(compute, memory) — and opens the next one.
  void close_epoch() {
    Cycles compute = 0;
    if (load_balanced_) {
      // Unit pairwise summations spread across every MAC; the adder tree
      // re-combining a vertex's partials adds ⌈log₂(fan-in + 1)⌉ levels.
      compute = div_ceil(accumulations_ * f_, config_.array.total_macs());
      if (adder_tree_ && max_fan_in_ > 1) {
        compute += static_cast<std::uint64_t>(
            std::ceil(std::log2(static_cast<double>(max_fan_in_) + 1.0)));
      }
    } else {
      compute = *std::max_element(cpe_load_.begin(), cpe_load_.end());
      std::fill(cpe_load_.begin(), cpe_load_.end(), 0);
    }
    if (sfu_ops_ > 0) {
      compute = std::max<Cycles>(
          compute, div_ceil(sfu_ops_, kSfuLanes) + kSfuExpLatency);
    }
    const Cycles memory = hbm_.epoch_cycles();
    rep_.compute_cycles += compute;
    rep_.memory_cycles += memory;
    rep_.total_cycles += std::max(compute, memory);
    rep_.accum_ops += accumulations_;
    rep_.macs += accumulations_ * f_;
    rep_.sfu_ops += sfu_ops_;
    accumulations_ = 0;
    sfu_ops_ = 0;
    max_fan_in_ = 0;
    ++stamp_;
    hbm_.begin_epoch();
  }

 private:
  const EngineConfig& config_;
  HbmModel& hbm_;
  const DramLayout& layout_;
  AggregationReport& rep_;
  const std::size_t f_;
  const std::uint64_t sfu_per_accumulation_;
  const std::uint64_t sfu_per_finish_;
  bool load_balanced_;
  bool adder_tree_ = true;
  // The open epoch's work. Per-vertex fan-in is epoch-stamped to avoid
  // O(V) clears.
  std::uint64_t accumulations_ = 0;
  std::uint64_t sfu_ops_ = 0;
  std::uint32_t max_fan_in_ = 0;
  std::uint32_t stamp_ = 1;
  std::vector<std::uint32_t> fan_in_stamp_;
  std::vector<std::uint32_t> fan_in_;
  std::vector<std::uint64_t> cpe_load_;
};

/// Subgraph mode's edge discovery, one slot per CSR entry. `processed`
/// flags an entry once its edge is done. Undirected tasks process an edge
/// once for both of its entries and find the second through `mirror`: for
/// the entry u→w, u's index in w's list. Each vertex keeps the local indices
/// of its entries still pending at its last walk, ascending, in
/// live[offset(v), offset(v) + live_len[v]), so a walk rescans only those.
struct EdgeDiscovery {
  std::vector<std::uint8_t> processed;
  std::vector<std::uint32_t> mirror;
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> live_len;

  EdgeDiscovery(const Csr& g, bool directed)
      : processed(g.edge_count(), 0), live(g.edge_count()), live_len(g.vertex_count()) {
    const auto off = g.offsets();
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      std::iota(live.begin() + static_cast<std::ptrdiff_t>(off[v]),
                live.begin() + static_cast<std::ptrdiff_t>(off[v + 1]), std::uint32_t{0});
      live_len[v] = g.degree(v);
    }
    if (directed) return;
    // Sources are visited in ascending order, so on a symmetric adjacency
    // with ascending lists they fill each list in order, one cursor per
    // vertex; the pass checks that the list holds them there. A self-loop
    // would be its own mirror and count twice against one α slot.
    const auto nbr = g.neighbor_array();
    mirror.resize(g.edge_count());
    std::vector<std::uint32_t> cursor(g.vertex_count(), 0);
    for (VertexId u = 0; u < g.vertex_count(); ++u) {
      for (EdgeId e = off[u]; e < off[u + 1]; ++e) {
        const VertexId w = nbr[e];
        const std::uint32_t pos = cursor[w]++;
        GNNIE_REQUIRE(w != u && pos < g.degree(w) && nbr[off[w] + pos] == u,
                      "undirected aggregation needs a symmetric adjacency with ascending "
                      "neighbor lists and no self-loops");
        mirror[e] = pos;
      }
    }
  }

  /// Audit-only: every live list is strictly ascending and lists each
  /// entry of its vertex that is not yet processed.
  [[maybe_unused]] bool live_lists_hold(const Csr& g) const {
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      const EdgeId base = g.offsets()[v];
      std::uint32_t k = 0;
      for (std::uint32_t i = 0; i < g.degree(v); ++i) {
        if (k < live_len[v] && live[base + k] == i) {
          ++k;
        } else if (processed[base + i] == 0) {
          return false;
        }
      }
      if (k != live_len[v]) return false;
    }
    return true;
  }
};

/// Audit-only (GNNIE_AUDIT): the subgraph bookkeeping matches a recount —
/// Σα and Σ block_remaining equal the remaining edge work, set occupancy
/// matches the cached vertices, neither buffer's slots overflow, and no
/// live list has lost a pending entry.
[[maybe_unused]] bool subgraph_bookkeeping_holds(
    const std::vector<std::uint32_t>& alpha, const std::vector<std::uint64_t>& block_remaining,
    std::uint64_t remaining_edge_work, const std::vector<VertexId>& cached,
    const std::vector<std::uint32_t>& set_count, const std::vector<VertexId>& position,
    bool set_associative, std::uint64_t capacity, std::uint64_t partials_on_chip,
    std::uint64_t partial_slots, const EdgeDiscovery& edges, const Csr& g) {
  std::vector<std::uint32_t> recount(set_count.size(), 0);
  if (set_associative) {
    for (VertexId v : cached) ++recount[(position[v] / kCacheBlockVertices) % recount.size()];
  }
  return std::accumulate(alpha.begin(), alpha.end(), std::uint64_t{0}) == remaining_edge_work &&
         std::accumulate(block_remaining.begin(), block_remaining.end(), std::uint64_t{0}) ==
             remaining_edge_work &&
         recount == set_count && cached.size() <= capacity && partials_on_chip <= partial_slots &&
         edges.live_lists_hold(g);
}

}  // namespace

ReverseAdjacency::ReverseAdjacency(const Csr& g) {
  offsets.assign(static_cast<std::size_t>(g.vertex_count()) + 1, 0);
  for (VertexId n : g.neighbor_array()) ++offsets[n + 1];
  for (std::size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
  sources.resize(g.edge_count());
  forward_index.resize(g.edge_count());
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId x = 0; x < g.vertex_count(); ++x) {
    const EdgeId base = g.offsets()[x];
    auto nb = g.neighbors(x);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const EdgeId slot = cursor[nb[i]]++;
      sources[slot] = x;
      forward_index[slot] = base + static_cast<EdgeId>(i);
    }
  }
}

AggregationEngine::AggregationEngine(const EngineConfig& config, HbmModel* hbm,
                                     const DramLayout& layout)
    : config_(config), hbm_(hbm), layout_(layout) {
  GNNIE_REQUIRE(hbm != nullptr, "aggregation needs an HbmModel to time its DRAM traffic");
  config_.validate();
}

namespace {

/// Per-vertex input-buffer footprint: ηw + α (+ e1,e2 for GAT) + offset
/// metadata + the connectivity of the *subgraph* (§III stores the edges
/// among cached vertices, not every vertex's full neighbor list — full
/// lists stream through during edge discovery). The subgraph share is a
/// small capped slice of the mean degree.
double per_vertex_footprint(const Csr& g, std::size_t feature_width, AggKind kind) {
  const double avg_deg = g.vertex_count() == 0
                             ? 0.0
                             : static_cast<double>(g.edge_count()) / g.vertex_count();
  return static_cast<double>(feature_width) * kFeatureBytes + 4.0 +
         (kind == AggKind::kGatSoftmax ? 8.0 : 0.0) + 16.0 +
         std::min(avg_deg, 16.0) * 4.0;
}

}  // namespace

std::uint64_t AggregationEngine::cache_capacity_for(const EngineConfig& config, const Csr& g,
                                                    std::size_t feature_width, AggKind kind) {
  const double per_vertex = per_vertex_footprint(g, feature_width, kind);
  auto n = static_cast<std::uint64_t>(static_cast<double>(config.buffers.input) / per_vertex);
  n = std::clamp<std::uint64_t>(n, 8, std::max<std::uint64_t>(8, g.vertex_count()));
  return n;
}

Bytes AggregationEngine::working_set_bytes_for(const EngineConfig& config, const Csr& g,
                                               std::size_t feature_width, AggKind kind) {
  const std::uint64_t n = cache_capacity_for(config, g, feature_width, kind);
  const double per_vertex = per_vertex_footprint(g, feature_width, kind);
  return static_cast<Bytes>(std::ceil(static_cast<double>(n) * per_vertex));
}

std::vector<std::uint32_t> AggregationEngine::initial_alpha_for(
    const Csr& g, const ReverseAdjacency* reverse) {
  std::vector<std::uint32_t> alpha(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    alpha[v] = g.degree(v);
    if (reverse != nullptr) {
      alpha[v] += static_cast<std::uint32_t>(reverse->offsets[v + 1] - reverse->offsets[v]);
    }
  }
  return alpha;
}

Matrix AggregationEngine::run(const AggregationTask& task, AggregationReport* report) {
  GNNIE_REQUIRE(task.graph != nullptr && task.hw != nullptr, "task needs graph and features");
  GNNIE_REQUIRE(task.hw->rows() == task.graph->vertex_count(),
                "feature rows must match vertex count");
  GNNIE_REQUIRE(task.hw->cols() > 0, "features need at least one column");
  if (task.kind == AggKind::kGatSoftmax) {
    const std::size_t want =
        static_cast<std::size_t>(task.graph->vertex_count()) * task.gat_heads;
    GNNIE_REQUIRE(task.e1 != nullptr && task.e2 != nullptr && task.e1->size() == want &&
                      task.e2->size() == want,
                  "GAT aggregation needs per-vertex, per-head e1/e2");
  }
  GNNIE_REQUIRE((task.order == nullptr) == (task.positions == nullptr),
                "precomputed order and positions must be provided together");
  AggregationReport local;
  AggregationReport& rep = report != nullptr ? *report : local;
  rep = AggregationReport{};
  rep.cache_capacity_vertices =
      task.cache_capacity_hint != 0
          ? task.cache_capacity_hint
          : cache_capacity_for(config_, *task.graph, task.hw->cols(), task.kind);

  static const std::unique_ptr<CachePolicy> degree_aware =
      CachePolicy::make(CachePolicyKind::kDegreeAware);
  const CachePolicy& policy = task.policy != nullptr ? *task.policy : *degree_aware;
  rep.policy = policy.kind();
  FunctionalState state(task);
  if (task.graph->vertex_count() > 0) {
    if (policy.uses_subgraph_machinery()) {
      run_subgraph(task, policy, state, rep);
    } else {
      run_on_demand(task, policy, state, rep);
    }
  }
  state.finalize(task);
  return std::move(state.out);
}

void AggregationEngine::run_subgraph(const AggregationTask& task, const CachePolicy& policy,
                                     FunctionalState& state, AggregationReport& rep) {
  const Csr& g = *task.graph;
  const VertexId v_count = g.vertex_count();
  EdgeDiscovery edges(g, task.directed);

  // Preprocessing (§VI): the DRAM layout order comes from the cache policy
  // — descending-degree-bin order for CP, plain ID order for the §VIII-E
  // baseline. A GraphPlan hands the order in precomputed; one-shot callers
  // pay the policy's layout pass here.
  std::vector<VertexId> order_storage;
  std::vector<VertexId> position_storage;
  if (task.order == nullptr) {
    order_storage = policy.layout_order(g);
    position_storage = order_positions(order_storage);
  }
  const std::vector<VertexId>& order = task.order != nullptr ? *task.order : order_storage;
  const std::vector<VertexId>& position =
      task.positions != nullptr ? *task.positions : position_storage;
  GNNIE_REQUIRE(order.size() == v_count && position.size() == v_count,
                "layout order must cover every vertex");

  const ReverseAdjacency* rev = task.reverse;
  std::optional<ReverseAdjacency> owned_rev;
  if (task.directed && rev == nullptr) rev = &owned_rev.emplace(g);

  // α_i = unprocessed edge endpoints at vertex i (Σ α is the edge work
  // left). A GraphPlan hands the initial values in precomputed; one-shot
  // callers derive them here.
  std::vector<std::uint32_t> alpha;
  if (task.initial_alpha != nullptr) {
    GNNIE_REQUIRE(task.initial_alpha->size() == v_count,
                  "precomputed initial alpha must cover every vertex");
    alpha = *task.initial_alpha;
  } else {
    alpha = initial_alpha_for(g, task.directed ? rev : nullptr);
  }
  std::uint64_t remaining_edge_work = std::accumulate(alpha.begin(), alpha.end(), std::uint64_t{0});
  const std::uint32_t max_alpha0 = *std::max_element(alpha.begin(), alpha.end());

  // Cache-block bookkeeping: blocks with no unprocessed edges are skipped
  // during refetch.
  constexpr std::uint32_t block_v = kCacheBlockVertices;
  const std::size_t block_count = (v_count + block_v - 1) / block_v;
  std::vector<std::uint64_t> block_remaining(block_count, 0);
  for (VertexId v = 0; v < v_count; ++v) block_remaining[position[v] / block_v] += alpha[v];

  std::vector<bool> in_cache(v_count, false);
  std::vector<bool> spilled(v_count, false);
  std::vector<bool> partial_held_on_chip(v_count, false);  // evicted, partial retained
  std::vector<bool> ever_evicted(v_count, false);

  const std::uint64_t n = rep.cache_capacity_vertices;
  const auto r_max = static_cast<std::uint64_t>(std::max(
      1.0, std::floor(static_cast<double>(n) * kReplacementFraction)));

  Ledger ledger(config_, *hbm_, layout_, task, rep);
  auto prop_addr = [&](VertexId v) { return ledger.prop_addr(position[v]); };
  auto adj_addr = [&](VertexId v) {
    // Adjacency is also laid out in processing order; the per-vertex slice
    // address uses the position-ordered prefix (approximated by position ×
    // mean degree — exact prefix sums would need a |V| array per task).
    const double avg_deg = static_cast<double>(g.edge_count()) / v_count;
    return layout_.adjacency_base +
           static_cast<std::uint64_t>(static_cast<double>(position[v]) * (avg_deg * 4.0 + 8.0));
  };
  auto out_addr = [&](VertexId v) { return ledger.out_addr(position[v]); };

  // Evicted-but-incomplete partial sums the 1 MB output buffer can retain
  // on-chip (degree-prioritized writes, §VI); cached vertices' partials
  // always stay on chip.
  const Bytes partial_bytes = ledger.partial_bytes;
  const std::uint64_t partial_slots =
      config_.buffers.output > n * partial_bytes
          ? (config_.buffers.output - n * partial_bytes) / partial_bytes
          : 0;
  std::uint64_t partials_on_chip = 0;

  // γ escalation is a *relief pulse*: doubled on deadlock, restored to the
  // configured value as soon as the pipeline makes progress again (§VI's
  // dynamic-γ proposal). A permanent escalation would erase the γ
  // sensitivity that Fig. 11 ablates.
  const std::uint32_t base_gamma = config_.cache.gamma;
  std::uint32_t gamma = base_gamma;
  rep.final_gamma = gamma;

  std::vector<VertexId> cached;    // current subgraph (vertex ids)
  std::vector<VertexId> newly_added;
  cached.reserve(n);

  auto record_round_histogram = [&] {
    // Unfinished cached vertices only: finished ones (α = 0) idle in the
    // buffer awaiting eviction and would swamp the first bin.
    Histogram h(0.0, static_cast<double>(max_alpha0) + 1.0, 24);
    for (VertexId v : cached) {
      if (alpha[v] > 0) h.add_count(static_cast<double>(alpha[v]), 1);
    }
    rep.alpha_round_histograms.push_back(std::move(h));
  };

  // Set-associative placement (§VI/Fig. 9): a vertex's cache set is
  // derived from its layout block; a full set forces an in-set eviction.
  const std::uint32_t assoc = config_.cache.associativity;
  const std::size_t num_sets =
      assoc > 0 ? std::max<std::size_t>(1, static_cast<std::size_t>(n / assoc)) : 1;
  std::vector<std::uint32_t> set_count(num_sets, 0);
  auto set_of = [&](VertexId v) -> std::size_t { return (position[v] / block_v) % num_sets; };

  // Shared eviction bookkeeping: α write-back + partial retention/spill.
  // Does NOT remove v from `cached` — callers own that.
  auto evict_vertex = [&](VertexId v) {
    in_cache[v] = false;
    ever_evicted[v] = true;
    ++rep.evictions;
    if (assoc > 0) --set_count[set_of(v)];
    // α write-back (one word, §VI).
    ledger.write(prop_addr(v) + ledger.prop_bytes - 4, 4, MemClient::kInput);
    if (alpha[v] > 0) {
      // Incomplete: partial either stays in the output buffer
      // (degree-prioritized) or spills to DRAM.
      if (partials_on_chip < partial_slots) {
        ++partials_on_chip;
        partial_held_on_chip[v] = true;
      } else {
        spilled[v] = true;
        ++rep.partial_spills;
        ledger.write(out_addr(v), partial_bytes, MemClient::kOutput);
      }
    }
  };

  // DRAM fetch of one vertex's working set (properties + adjacency slice
  // [+ spilled partial]); sequential-by-construction in policy mode.
  auto fetch_vertex = [&](VertexId v) {
    if (assoc > 0) {
      const std::size_t s = set_of(v);
      if (set_count[s] >= assoc) {
        // Set conflict: evict the least-useful member of this set
        // (finished first, then fewest unprocessed edges).
        VertexId victim = v_count;
        for (VertexId c : cached) {
          if (set_of(c) != s) continue;
          if (victim == v_count ||
              std::make_pair(alpha[c] != 0, alpha[c]) <
                  std::make_pair(alpha[victim] != 0, alpha[victim])) {
            victim = c;
          }
        }
        GNNIE_ASSERT(victim != v_count, "full set must contain a victim");
        ++rep.set_conflict_evictions;
        evict_vertex(victim);
        cached.erase(std::find(cached.begin(), cached.end(), victim));
      }
      ++set_count[s];
    }
    in_cache[v] = true;
    cached.push_back(v);
    newly_added.push_back(v);
    if (task.access_log != nullptr) task.access_log->push_back(v);
    ledger.read(prop_addr(v), ledger.prop_bytes, MemClient::kInput);
    ledger.read(adj_addr(v), 8 + static_cast<Bytes>(g.degree(v)) * 4, MemClient::kInput);
    if (partial_held_on_chip[v]) {
      // Its partial was retained in the output buffer; the slot frees now
      // that the vertex is cached again (cached partials live in the n
      // reserved slots).
      partial_held_on_chip[v] = false;
      GNNIE_ASSERT(partials_on_chip > 0, "partial slot accounting underflow");
      --partials_on_chip;
    } else if (spilled[v]) {
      ledger.read(out_addr(v), partial_bytes, MemClient::kOutput);
      spilled[v] = false;
    }
    if (ever_evicted[v]) ++rep.refetches;
  };

  // Walks the layout forward (wrapping → Round++), skipping finished
  // vertices and finished blocks.
  std::size_t ptr = 0;
  rep.rounds = 1;
  auto next_fetchable = [&]() -> VertexId {
    std::uint64_t wraps = 0;
    std::size_t scanned = 0;
    while (scanned < 2 * static_cast<std::size_t>(v_count) + 2) {
      if (ptr >= v_count) {
        ptr = 0;
        // A wrap only becomes a new Round if it actually yields a fetch —
        // otherwise everything left is already cached and the Round
        // concept degenerates.
        if (++wraps > 1) return v_count;
      }
      const std::size_t block = ptr / block_v;
      if (block_remaining[block] == 0) {
        ptr = (block + 1) * block_v;  // skip the whole finished block
        scanned += block_v;
        continue;
      }
      const VertexId v = order[ptr];
      ++ptr;
      ++scanned;
      if (!in_cache[v] && alpha[v] > 0) {
        if (wraps > 0) {
          rep.rounds += wraps;
          record_round_histogram();
          GNNIE_AUDIT_ASSERT(
              subgraph_bookkeeping_holds(alpha, block_remaining, remaining_edge_work, cached,
                                         set_count, position, assoc > 0, n, partials_on_chip,
                                         partial_slots, edges, g),
              "subgraph bookkeeping diverged from a recount at a Round boundary");
        }
        return v;
      }
    }
    return v_count;  // nothing fetchable
  };

  // One processed edge endpoint; the vertex's last edge finishes it.
  auto decrement_alpha = [&](VertexId v) {
    GNNIE_ASSERT(alpha[v] > 0, "alpha underflow");
    --alpha[v];
    --block_remaining[position[v] / block_v];
    --remaining_edge_work;
    if (alpha[v] == 0) ledger.finish_vertex(position[v]);
  };

  // Processes every unprocessed edge at u whose other endpoint `admit`
  // accepts: the main loop admits cached endpoints, the livelock sweep
  // pulls each one on demand. u's live list keeps, in order, the entries
  // `admit` rejected and drops the rest.
  const auto offsets = g.offsets();
  const auto neighbors = g.neighbor_array();
  auto walk_edges = [&](VertexId u, auto&& admit) {
    const EdgeId base = offsets[u];
    std::uint32_t* pending = edges.live.data() + base;
    const std::uint32_t len = edges.live_len[u];
    std::uint32_t kept = 0;
    for (std::uint32_t k = 0; k < len; ++k) {
      const std::uint32_t i = pending[k];
      const EdgeId eid = base + i;
      if (edges.processed[eid] != 0) continue;
      const VertexId w = neighbors[eid];
      if (!admit(w)) {
        pending[kept++] = i;
        continue;
      }
      edges.processed[eid] = 1;
      // u→w in CSR means w feeds u; undirected, it feeds both ways.
      state.contribute(task, u, w);
      ledger.accumulate(u);
      if (!task.directed) {
        // Mark the mirrored entry so the pair is processed once.
        edges.processed[offsets[w] + edges.mirror[eid]] = 1;
        state.contribute(task, w, u);
        ledger.accumulate(w);
      }
      ++rep.edges_processed;
      decrement_alpha(u);
      decrement_alpha(w);
    }
    edges.live_len[u] = kept;
    if (task.directed) {
      // Edges x→u discovered from u's side via the reverse adjacency.
      for (EdgeId ri = rev->offsets[u]; ri < rev->offsets[u + 1]; ++ri) {
        const VertexId x = rev->sources[ri];
        const EdgeId eid = rev->forward_index[ri];
        if (edges.processed[eid] != 0 || !admit(x)) continue;
        edges.processed[eid] = 1;
        state.contribute(task, x, u);
        ledger.accumulate(x);
        ++rep.edges_processed;
        decrement_alpha(x);
        decrement_alpha(u);
      }
    }
  };

  // Initial fill: DRAM time only, nothing to compute yet.
  for (std::uint64_t i = 0; i < n; ++i) {
    const VertexId v = next_fetchable();
    if (v == v_count) break;
    fetch_vertex(v);
  }
  ledger.close_epoch();
  record_round_histogram();  // initial distribution (power-law snapshot)

  // Generous convergence guard: deadlock-relief pulses can double the
  // iteration count on dense graphs, and every Round is bounded by V/r
  // iterations.
  const std::uint64_t max_iterations =
      10000 + 200 * (static_cast<std::uint64_t>(v_count) / r_max + 1) + 4ull * v_count;

  // Livelock detection: a full Round with zero processed edges means the
  // remaining edge endpoints never co-reside under the rotation. That
  // happens at pathological γ, where everything is always evictable, and
  // at 2- and 4-way associativity, where a layout block's 8 vertices share
  // one set and a sequential refill evicts its own block. The fallback
  // sweep below finishes the residue with on-demand fetches.
  std::uint64_t prev_rounds = rep.rounds;
  std::uint64_t round_progress = 0;
  bool livelocked = false;
  std::vector<VertexId> candidates;

  while (remaining_edge_work > 0 && !livelocked) {
    GNNIE_ASSERT(rep.iterations < max_iterations, "aggregation failed to converge");
    ++rep.iterations;

    // --- Process every unprocessed edge inside the cached subgraph. ---
    for (VertexId u : newly_added) walk_edges(u, [&](VertexId w) { return in_cache[w]; });
    newly_added.clear();
    const std::uint64_t edges_this_iteration = ledger.epoch_accumulations();

    round_progress += edges_this_iteration;
    if (rep.rounds > prev_rounds) {
      // A Round that processes (almost) nothing will not converge in any
      // reasonable number of Rounds — fall back to the residue sweep. The
      // threshold catches trickle convergence (e.g. ID-order layouts where
      // co-residency is pure luck), not ordinary tail Rounds.
      if (round_progress <= std::max<std::uint64_t>(1, remaining_edge_work / 2048)) {
        livelocked = true;
      }
      round_progress = 0;
      prev_rounds = rep.rounds;
    }
    if (edges_this_iteration > 0 && gamma != base_gamma) gamma = base_gamma;

    if (remaining_edge_work > 0 && !livelocked) {
      // --- Eviction (α < γ, r per iteration, §VI). Fully-processed
      // vertices (α = 0) are dead weight and leave first; in-progress
      // candidates (0 < α < γ) follow, each tier in dictionary order.
      // Livelock at pathological γ is handled by the relief pulses and the
      // fallback sweep. Ids are unique, so the first r of a partial sort
      // are the first r of a full one. ---
      candidates.clear();
      for (VertexId v : cached) {
        if (alpha[v] < gamma) candidates.push_back(v);
      }
      const std::size_t r = std::min<std::size_t>(r_max, candidates.size());
      std::partial_sort(candidates.begin(), candidates.begin() + static_cast<std::ptrdiff_t>(r),
                        candidates.end(), [&](VertexId a, VertexId b) {
                          const bool a_done = alpha[a] == 0;
                          const bool b_done = alpha[b] == 0;
                          return a_done != b_done ? a_done : a < b;
                        });
      candidates.resize(r);
      if (candidates.empty() && edges_this_iteration == 0) {
        // Deadlock (§VI): no evictable vertex and no progress.
        ++rep.gamma_escalations;
        // Jump straight to the smallest γ that admits a full replacement
        // batch (the r-th smallest α among cached vertices) so one relief
        // pulse restores full turnover; doubling one step per iteration
        // would crawl on dense graphs.
        std::vector<std::uint32_t> cached_alpha;
        cached_alpha.reserve(cached.size());
        for (VertexId v : cached) cached_alpha.push_back(alpha[v]);
        if (!cached_alpha.empty()) {
          const std::size_t kth = std::min<std::size_t>(r_max, cached_alpha.size()) - 1;
          std::nth_element(cached_alpha.begin(), cached_alpha.begin() + kth,
                           cached_alpha.end());
          gamma =
              std::max(std::max<std::uint32_t>(gamma + 1, gamma * 2), cached_alpha[kth] + 1);
        } else {
          gamma = std::max<std::uint32_t>(gamma + 1, gamma * 2);
        }
        rep.final_gamma = std::max(rep.final_gamma, gamma);
      } else {
        for (VertexId v : candidates) evict_vertex(v);
        std::erase_if(cached, [&](VertexId v) { return !in_cache[v]; });

        // --- Refill from the sequential layout. ---
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          const VertexId v = next_fetchable();
          if (v == v_count) break;
          fetch_vertex(v);
        }
      }
    }
    ledger.close_epoch();
  }
  GNNIE_AUDIT_ASSERT(subgraph_bookkeeping_holds(alpha, block_remaining, remaining_edge_work,
                                                cached, set_count, position, assoc > 0, n,
                                                partials_on_chip, partial_slots, edges, g),
                     "subgraph bookkeeping diverged from a recount at loop exit");

  if (remaining_edge_work > 0) {
    // Livelock fallback: finish the residue vertex by vertex, pulling each
    // endpoint on demand (random DRAM accesses, honestly charged — this is
    // what a livelocked rotation costs).
    rep.livelock_sweep = true;
    ledger.use_sweep_rule();
    auto pull = [&](VertexId v) {
      ledger.read(prop_addr(v), ledger.prop_bytes, MemClient::kInput, /*random=*/true);
      return true;
    };
    for (VertexId u = 0; u < v_count && remaining_edge_work > 0; ++u) {
      if (alpha[u] == 0) continue;
      pull(u);
      walk_edges(u, pull);
    }
    ledger.close_epoch();
    ++rep.iterations;
  }
}

namespace {

/// The on-demand input buffer of `n` vertices under `policy`'s replacement
/// discipline. Dual cache: the top-p hubs of the exact degree order (the
/// order best_dual_split searches over) are pinned, p coming from the plan
/// artifact when bound, else from the split search here. Belady: perfect
/// knowledge of the canonical trace, which run_on_demand's loop issues
/// access for access.
cache::ReplacementBuffer on_demand_buffer(const AggregationTask& task,
                                          const CachePolicy& policy, std::uint64_t n) {
  const Csr& g = *task.graph;
  switch (policy.replacement()) {
    case ReplacementKind::kLru:
      return cache::ReplacementBuffer::pinned_lru(g.vertex_count(), n);
    case ReplacementKind::kBelady:
      return cache::ReplacementBuffer::belady(cache::AccessTrace::from_graph(g), n);
    case ReplacementKind::kDualPinnedLru: {
      std::uint64_t p = task.dual_pinned_hint;
      if (p == kNoDualPinnedHint) {
        p = cache::best_dual_split(cache::AccessTrace::from_graph(g), n, g).pinned;
      }
      const std::vector<VertexId> hubs = exact_degree_order(g);
      p = std::min<std::uint64_t>({p, n, hubs.size()});
      const std::span<const VertexId> pinned(hubs.data(), static_cast<std::size_t>(p));
      return cache::ReplacementBuffer::pinned_lru(g.vertex_count(), n, pinned);
    }
  }
  GNNIE_REQUIRE(false, "unhandled replacement kind");
  return cache::ReplacementBuffer::pinned_lru(g.vertex_count(), n);  // unreachable
}

}  // namespace

void AggregationEngine::run_on_demand(const AggregationTask& task, const CachePolicy& policy,
                                      FunctionalState& state, AggregationReport& rep) {
  const Csr& g = *task.graph;
  const VertexId v_count = g.vertex_count();

  const std::uint64_t n = rep.cache_capacity_vertices;
  cache::ReplacementBuffer buffer = on_demand_buffer(task, policy, n);
  rep.dual_pinned_vertices = buffer.preloads().size();
  Ledger ledger(config_, *hbm_, layout_, task, rep);

  // DRAM cost of loading one vertex's working set (properties + adjacency
  // slice, both in the ID-order layout) into the input buffer — charged on
  // every miss and for each pinned-hub preload.
  auto fetch = [&](VertexId v, bool random) {
    ledger.read(ledger.prop_addr(v), ledger.prop_bytes, MemClient::kInput, random);
    ledger.read(layout_.adjacency_base + static_cast<std::uint64_t>(v) * 16,
                8 + static_cast<Bytes>(g.degree(v)) * 4, MemClient::kInput);
  };

  auto ensure_cached = [&](VertexId v, bool random) {
    ++rep.buffer_accesses;
    if (task.access_log != nullptr) task.access_log->push_back(v);
    if (buffer.access(v)) {
      ++rep.buffer_hits;
    } else {
      fetch(v, random);
    }
  };

  // Dual-cache hub preload: one sequential sweep over the degree-order
  // prefix, charged to the first accounting window. Preloads are fills,
  // not lookups — they do not count as buffer accesses.
  for (VertexId v : buffer.preloads()) fetch(v, /*random=*/false);

  // Process vertices in ID order; account cycles per window of n targets.
  // The engine adds each vertex's self term itself, so an undirected
  // self-loop would count it twice; the subgraph policies' mirror pass
  // rejects the same graph.
  std::uint64_t window_targets = 0;
  for (VertexId v = 0; v < v_count; ++v) {
    ensure_cached(v, /*random=*/false);  // ID-order walk is sequential
    auto nb = g.neighbors(v);
    for (VertexId w : nb) {
      GNNIE_REQUIRE(task.directed || w != v,
                    "undirected aggregation needs an adjacency without self-loops");
      ensure_cached(w, /*random=*/true);  // a neighbor miss is a random pull
      state.contribute(task, v, w);
    }
    rep.edges_processed += nb.size();
    ledger.accumulate(v, static_cast<std::uint32_t>(nb.size()));
    ledger.finish_vertex(v);
    if (++window_targets == n || v + 1 == v_count) {
      ledger.close_epoch();
      ++rep.iterations;
      window_targets = 0;
    }
  }
  rep.rounds = 1;
}

}  // namespace gnnie
