#include "core/aggregation.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "cache/access_trace.hpp"
#include "cache/alloc.hpp"
#include "cache/replay.hpp"
#include "common/require.hpp"
#include "graph/reorder.hpp"

namespace gnnie {
namespace {

std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

/// Subgraph mode's max replacements per iteration, as a fraction of the
/// cache capacity (r = n/8).
constexpr double kReplacementFraction = 0.125;

/// Functional state shared by both execution modes. All modes accumulate
/// into `out`; GAT additionally tracks the softmax denominator.
struct FunctionalState {
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

/// Per-accumulation CPE cycle cost: an F-wide add/MAC pass on a CPE with
/// `macs` lanes.
std::uint64_t accum_cycles(std::size_t f, std::uint32_t macs) {
  return div_ceil(f, macs);
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
  config_.validate();
}

namespace {

/// Per-vertex input-buffer footprint: ηw + α (+ e1,e2 for GAT) + offset
/// metadata + the connectivity of the *subgraph* (§III stores the edges
/// among cached vertices, not every vertex's full neighbor list — full
/// lists stream through during edge discovery). The subgraph share is a
/// small capped slice of the mean degree.
double per_vertex_footprint(const EngineConfig& config, const Csr& g,
                            std::size_t feature_width, AggKind kind) {
  const double avg_deg = g.vertex_count() == 0
                             ? 0.0
                             : static_cast<double>(g.edge_count()) / g.vertex_count();
  return static_cast<double>(feature_width) * config.feature_bytes + 4.0 +
         (kind == AggKind::kGatSoftmax ? 8.0 : 0.0) + 16.0 +
         std::min(avg_deg, 16.0) * 4.0;
}

}  // namespace

std::uint64_t AggregationEngine::cache_capacity_for(const EngineConfig& config, const Csr& g,
                                                    std::size_t feature_width, AggKind kind) {
  const double per_vertex = per_vertex_footprint(config, g, feature_width, kind);
  auto n = static_cast<std::uint64_t>(static_cast<double>(config.buffers.input) / per_vertex);
  n = std::clamp<std::uint64_t>(n, 8, std::max<std::uint64_t>(8, g.vertex_count()));
  return n;
}

Bytes AggregationEngine::working_set_bytes_for(const EngineConfig& config, const Csr& g,
                                               std::size_t feature_width, AggKind kind) {
  const std::uint64_t n = cache_capacity_for(config, g, feature_width, kind);
  const double per_vertex = per_vertex_footprint(config, g, feature_width, kind);
  return static_cast<Bytes>(std::ceil(static_cast<double>(n) * per_vertex));
}

std::uint64_t AggregationEngine::cache_capacity(const AggregationTask& task) const {
  return cache_capacity_for(config_, *task.graph, task.hw->cols(), task.kind);
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
      task.cache_capacity_hint != 0 ? task.cache_capacity_hint : cache_capacity(task);

  static const std::unique_ptr<CachePolicy> degree_aware =
      CachePolicy::make(CachePolicyKind::kDegreeAware);
  const CachePolicy& policy = task.policy != nullptr ? *task.policy : *degree_aware;
  rep.policy = policy.kind();
  if (!policy.uses_subgraph_machinery()) {
    return run_on_demand(task, policy, rep);
  }
  return run_subgraph(task, policy, rep);
}

Matrix AggregationEngine::run_subgraph(const AggregationTask& task, const CachePolicy& policy,
                                       AggregationReport& rep) {
  const Csr& g = *task.graph;
  const std::size_t f = task.hw->cols();
  const VertexId v_count = g.vertex_count();
  FunctionalState state(task);
  if (v_count == 0) {
    state.finalize(task);
    return std::move(state.out);
  }

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
  std::unique_ptr<ReverseAdjacency> owned_rev;
  if (task.directed && rev == nullptr) {
    owned_rev = std::make_unique<ReverseAdjacency>(g);
    rev = owned_rev.get();
  }

  // α_i = unprocessed edge endpoints at vertex i. A GraphPlan hands the
  // initial values in precomputed; one-shot callers derive them here.
  std::vector<std::uint32_t> alpha;
  if (task.initial_alpha != nullptr) {
    GNNIE_REQUIRE(task.initial_alpha->size() == v_count,
                  "precomputed initial alpha must cover every vertex");
    alpha = *task.initial_alpha;
  } else {
    alpha = initial_alpha_for(g, task.directed ? rev : nullptr);
  }
  std::uint64_t remaining_edge_work = 0;  // Σ α
  for (VertexId v = 0; v < v_count; ++v) remaining_edge_work += alpha[v];
  const std::uint32_t max_alpha0 =
      *std::max_element(alpha.begin(), alpha.end());

  // Cache-block bookkeeping: blocks with no unprocessed edges are skipped
  // during refetch.
  constexpr std::uint32_t block_v = kCacheBlockVertices;
  const std::size_t block_count = (v_count + block_v - 1) / block_v;
  std::vector<std::uint64_t> block_remaining(block_count, 0);
  for (VertexId v = 0; v < v_count; ++v) {
    block_remaining[position[v] / block_v] += alpha[v];
  }

  std::vector<bool> edge_processed(g.edge_count(), false);
  std::vector<bool> in_cache(v_count, false);
  std::vector<bool> spilled(v_count, false);
  std::vector<bool> partial_held_on_chip(v_count, false);  // evicted, partial retained
  std::vector<bool> ever_evicted(v_count, false);

  const std::uint64_t n = rep.cache_capacity_vertices;
  const auto r_max = static_cast<std::uint64_t>(std::max(
      1.0, std::floor(static_cast<double>(n) * kReplacementFraction)));

  // Evicted-but-incomplete partial sums the 1 MB output buffer can retain
  // on-chip (degree-prioritized writes, §VI); cached vertices' partials
  // always stay on chip.
  const Bytes partial_bytes = static_cast<Bytes>(f) * config_.feature_bytes;
  const std::uint64_t partial_slots =
      config_.buffers.output > n * partial_bytes
          ? (config_.buffers.output - n * partial_bytes) / partial_bytes
          : 0;
  std::uint64_t partials_on_chip = 0;

  const Bytes prop_bytes = static_cast<Bytes>(f) * config_.feature_bytes + 4 +
                           (task.kind == AggKind::kGatSoftmax ? 8 : 0);
  auto prop_addr = [&](VertexId v) {
    return layout_.property_base + static_cast<std::uint64_t>(position[v]) * prop_bytes;
  };
  auto adj_addr = [&](VertexId v) {
    // Adjacency is also laid out in processing order; the per-vertex slice
    // address uses the position-ordered prefix (approximated by position ×
    // mean degree — exact prefix sums would need a |V| array per task).
    const double avg_deg = static_cast<double>(g.edge_count()) / v_count;
    return layout_.adjacency_base +
           static_cast<std::uint64_t>(static_cast<double>(position[v]) * (avg_deg * 4.0 + 8.0));
  };
  auto out_addr = [&](VertexId v) {
    return layout_.output_base + static_cast<std::uint64_t>(position[v]) * partial_bytes;
  };

  const std::uint32_t total_cpes = config_.array.total_cpes();
  const std::uint32_t total_macs = config_.array.total_macs();
  auto cpe_macs = [&](std::uint32_t cpe) {
    return config_.array.macs_in_row(cpe / config_.array.cols);
  };
  std::vector<std::uint64_t> cpe_load(total_cpes, 0);

  // Per-iteration per-vertex accumulation counts (for the adder-tree depth
  // term), epoch-stamped to avoid O(V) clears.
  std::vector<std::uint32_t> accum_stamp(v_count, 0);
  std::vector<std::uint32_t> accum_count(v_count, 0);
  std::uint32_t stamp = 0;

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
  auto set_of = [&](VertexId v) -> std::size_t {
    return (position[v] / block_v) % num_sets;
  };

  // Shared eviction bookkeeping: α write-back + partial retention/spill.
  // Does NOT remove v from `cached` — callers own that.
  auto evict_vertex = [&](VertexId v) {
    in_cache[v] = false;
    ever_evicted[v] = true;
    ++rep.evictions;
    if (assoc > 0) --set_count[set_of(v)];
    // α write-back (one word, §VI).
    if (hbm_ != nullptr) {
      hbm_->access(prop_addr(v) + prop_bytes - 4, 4, true, MemClient::kInput);
    }
    rep.dram_bytes += 4;
    ++rep.dram_accesses;
    if (alpha[v] > 0) {
      // Incomplete: partial either stays in the output buffer
      // (degree-prioritized) or spills to DRAM.
      if (partials_on_chip < partial_slots) {
        ++partials_on_chip;
        partial_held_on_chip[v] = true;
      } else {
        spilled[v] = true;
        ++rep.partial_spills;
        if (hbm_ != nullptr) hbm_->access(out_addr(v), partial_bytes, true, MemClient::kOutput);
        rep.dram_bytes += partial_bytes;
        ++rep.dram_accesses;
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
    if (hbm_ != nullptr) {
      hbm_->access(prop_addr(v), prop_bytes, false, MemClient::kInput);
      hbm_->access(adj_addr(v), 8 + static_cast<Bytes>(g.degree(v)) * 4, false,
                   MemClient::kInput);
    }
    rep.dram_accesses += 2;
    rep.dram_bytes += prop_bytes + 8 + static_cast<Bytes>(g.degree(v)) * 4;
    rep.input_fetch_bytes += prop_bytes + 8 + static_cast<Bytes>(g.degree(v)) * 4;
    if (partial_held_on_chip[v]) {
      // Its partial was retained in the output buffer; the slot frees now
      // that the vertex is cached again (cached partials live in the n
      // reserved slots).
      partial_held_on_chip[v] = false;
      GNNIE_ASSERT(partials_on_chip > 0, "partial slot accounting underflow");
      --partials_on_chip;
    } else if (spilled[v]) {
      if (hbm_ != nullptr) hbm_->access(out_addr(v), partial_bytes, false, MemClient::kOutput);
      rep.dram_accesses += 1;
      rep.dram_bytes += partial_bytes;
      rep.input_fetch_bytes += partial_bytes;
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
        }
        return v;
      }
    }
    return v_count;  // nothing fetchable
  };

  // Initial fill.
  if (hbm_ != nullptr) hbm_->begin_epoch();
  for (std::uint64_t i = 0; i < n; ++i) {
    const VertexId v = next_fetchable();
    if (v == v_count) break;
    fetch_vertex(v);
  }
  if (hbm_ != nullptr) {
    const Cycles fill = hbm_->epoch_cycles();
    rep.memory_cycles += fill;
    rep.total_cycles += fill;
  }
  record_round_histogram();  // initial distribution (power-law snapshot)

  // Generous convergence guard: deadlock-relief pulses can double the
  // iteration count on dense graphs, and every Round is bounded by V/r
  // iterations.
  const std::uint64_t max_iterations =
      10000 + 200 * (static_cast<std::uint64_t>(v_count) / r_max + 1) + 4ull * v_count;

  const bool lb = config_.opts.aggregation_load_balance;
  const std::size_t gat_extra =
      task.kind == AggKind::kGatSoftmax ? task.gat_heads : 0;  // exp per head per direction

  // Livelock detection: a full Round with zero processed edges means the
  // remaining edge endpoints never co-reside under the rotation (possible
  // only at pathological γ where everything is always evictable). The
  // fallback sweep below finishes the residue with on-demand fetches.
  std::uint64_t prev_rounds = rep.rounds;
  std::uint64_t round_progress = 0;
  bool livelocked = false;

  while (remaining_edge_work > 0) {
    GNNIE_ASSERT(rep.iterations < max_iterations, "aggregation failed to converge");
    ++rep.iterations;
    ++stamp;
    if (hbm_ != nullptr) hbm_->begin_epoch();
    if (!lb) std::fill(cpe_load.begin(), cpe_load.end(), 0);

    // --- Process every unprocessed edge inside the cached subgraph. ---
    std::uint64_t it_accums = 0;
    std::uint64_t it_sfu = 0;
    std::uint32_t it_max_vertex_accums = 0;
    std::uint64_t it_completions = 0;

    auto touch = [&](VertexId v) {
      if (accum_stamp[v] != stamp) {
        accum_stamp[v] = stamp;
        accum_count[v] = 0;
      }
      ++accum_count[v];
      it_max_vertex_accums = std::max(it_max_vertex_accums, accum_count[v]);
    };
    auto charge_accum = [&](VertexId dst) {
      ++it_accums;
      it_sfu += gat_extra;  // LeakyReLU+exp per GAT edge direction
      touch(dst);
      if (!lb) {
        const std::uint32_t home = dst % total_cpes;
        cpe_load[home] += accum_cycles(f, cpe_macs(home));
      }
    };
    auto complete_vertex = [&](VertexId v) {
      ++it_completions;
      if (task.kind == AggKind::kGatSoftmax) it_sfu += f;  // softmax divide
      // Final result written back to DRAM.
      if (hbm_ != nullptr) hbm_->access(out_addr(v), partial_bytes, true, MemClient::kOutput);
      rep.dram_bytes += partial_bytes;
      ++rep.dram_accesses;
    };
    auto decrement_alpha = [&](VertexId v) {
      GNNIE_ASSERT(alpha[v] > 0, "alpha underflow");
      --alpha[v];
      --block_remaining[position[v] / block_v];
      --remaining_edge_work;
      if (alpha[v] == 0) complete_vertex(v);
    };

    for (std::size_t qi = 0; qi < newly_added.size(); ++qi) {
      const VertexId u = newly_added[qi];
      const EdgeId base = g.offsets()[u];
      auto nb = g.neighbors(u);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        const VertexId w = nb[i];
        const EdgeId eid = base + static_cast<EdgeId>(i);
        if (edge_processed[eid] || !in_cache[w]) continue;
        edge_processed[eid] = true;
        if (task.directed) {
          // u→w in CSR means w feeds u.
          state.contribute(task, u, w);
          charge_accum(u);
          ++rep.edges_processed;
          decrement_alpha(u);
          decrement_alpha(w);
        } else {
          // Mark the mirrored entry so the pair is processed once.
          auto wn = g.neighbors(w);
          const auto rit = std::lower_bound(wn.begin(), wn.end(), u);
          GNNIE_ASSERT(rit != wn.end() && *rit == u, "undirected graph must be symmetric");
          edge_processed[g.offsets()[w] + static_cast<EdgeId>(rit - wn.begin())] = true;
          state.contribute(task, u, w);
          state.contribute(task, w, u);
          charge_accum(u);
          charge_accum(w);
          ++rep.edges_processed;
          decrement_alpha(u);
          decrement_alpha(w);
        }
      }
      if (task.directed) {
        // Edges x→u discovered from u's side via the reverse adjacency.
        for (EdgeId ri = rev->offsets[u]; ri < rev->offsets[u + 1]; ++ri) {
          const VertexId x = rev->sources[ri];
          const EdgeId eid = rev->forward_index[ri];
          if (edge_processed[eid] || !in_cache[x]) continue;
          edge_processed[eid] = true;
          state.contribute(task, x, u);
          charge_accum(x);
          ++rep.edges_processed;
          decrement_alpha(x);
          decrement_alpha(u);
        }
      }
    }
    const std::uint64_t edges_this_iteration = it_accums;
    newly_added.clear();

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

    // --- Iteration cycle accounting. ---
    std::uint64_t compute_it = 0;
    if (lb) {
      // Unit pairwise summations spread across every MAC; the adder tree
      // re-combining a vertex's partials adds ⌈log₂(deg_it+1)⌉ levels.
      const std::uint64_t element_ops = it_accums * f;
      compute_it = div_ceil(element_ops, total_macs);
      if (it_max_vertex_accums > 1) {
        compute_it += static_cast<std::uint64_t>(
            std::ceil(std::log2(static_cast<double>(it_max_vertex_accums) + 1.0)));
      }
    } else {
      compute_it = *std::max_element(cpe_load.begin(), cpe_load.end());
    }
    if (it_sfu > 0) {
      const std::uint64_t sfu_cycles =
          div_ceil(it_sfu, config_.sfu_lanes) + config_.sfu.exp_latency;
      compute_it = std::max(compute_it, sfu_cycles);
    }
    rep.accum_ops += it_accums;
    rep.sfu_ops += it_sfu;
    (void)it_completions;

    if (remaining_edge_work == 0 || livelocked) {
      const Cycles mem_it = hbm_ != nullptr ? hbm_->epoch_cycles() : 0;
      rep.compute_cycles += compute_it;
      rep.memory_cycles += mem_it;
      rep.total_cycles += std::max<Cycles>(compute_it, mem_it);
      break;
    }

    // --- Eviction (α < γ, r per iteration, §VI). Fully-processed vertices
    // (α = 0) are dead weight and leave first; in-progress candidates
    // (0 < α < γ) follow, each tier in dictionary order. Livelock at
    // pathological γ is handled by the relief pulses and the fallback
    // sweep. ---
    std::vector<VertexId> candidates;
    for (VertexId v : cached) {
      if (alpha[v] < gamma) candidates.push_back(v);
    }
    std::sort(candidates.begin(), candidates.end(), [&](VertexId a, VertexId b) {
      const bool a_done = alpha[a] == 0;
      const bool b_done = alpha[b] == 0;
      return a_done != b_done ? a_done : a < b;
    });
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
        std::nth_element(cached_alpha.begin(), cached_alpha.begin() + kth, cached_alpha.end());
        gamma = std::max(std::max<std::uint32_t>(gamma + 1, gamma * 2), cached_alpha[kth] + 1);
      } else {
        gamma = std::max<std::uint32_t>(gamma + 1, gamma * 2);
      }
      rep.final_gamma = std::max(rep.final_gamma, gamma);
      const Cycles mem_it = hbm_ != nullptr ? hbm_->epoch_cycles() : 0;
      rep.compute_cycles += compute_it;
      rep.memory_cycles += mem_it;
      rep.total_cycles += std::max<Cycles>(compute_it, mem_it);
      continue;
    }
    if (candidates.size() > r_max) candidates.resize(r_max);

    for (VertexId v : candidates) evict_vertex(v);
    std::erase_if(cached, [&](VertexId v) { return !in_cache[v]; });

    // --- Refill from the sequential layout. ---
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const VertexId v = next_fetchable();
      if (v == v_count) break;
      fetch_vertex(v);
    }

    const Cycles mem_it = hbm_ != nullptr ? hbm_->epoch_cycles() : 0;
    rep.compute_cycles += compute_it;
    rep.memory_cycles += mem_it;
    rep.total_cycles += std::max<Cycles>(compute_it, mem_it);
  }

  if (remaining_edge_work > 0) {
    // Livelock fallback: finish the residue edge by edge with on-demand
    // neighbor fetches (random DRAM accesses, honestly charged — this is
    // what a pathological γ costs).
    GNNIE_ASSERT(livelocked, "left main loop with work remaining but no livelock");
    if (hbm_ != nullptr) hbm_->begin_epoch();
    std::uint64_t sweep_accums = 0;
    std::uint64_t sweep_sfu = 0;
    rep.livelock_sweep = true;
    auto sweep_contribute = [&](VertexId dst, VertexId src) {
      state.contribute(task, dst, src);
      ++sweep_accums;
      sweep_sfu += gat_extra;
    };
    auto sweep_fetch = [&](VertexId v) {
      if (hbm_ != nullptr) hbm_->access(prop_addr(v), prop_bytes, false, MemClient::kInput);
      rep.dram_bytes += prop_bytes;
      rep.input_fetch_bytes += prop_bytes;
      ++rep.dram_accesses;
      ++rep.random_dram_accesses;
    };
    auto sweep_decrement = [&](VertexId v) {
      GNNIE_ASSERT(alpha[v] > 0, "alpha underflow in sweep");
      --alpha[v];
      --remaining_edge_work;
      if (alpha[v] == 0) {
        if (task.kind == AggKind::kGatSoftmax) sweep_sfu += f;
        if (hbm_ != nullptr) hbm_->access(out_addr(v), partial_bytes, true, MemClient::kOutput);
        rep.dram_bytes += partial_bytes;
        ++rep.dram_accesses;
      }
    };
    for (VertexId u = 0; u < v_count && remaining_edge_work > 0; ++u) {
      if (alpha[u] == 0) continue;
      sweep_fetch(u);
      const EdgeId base = g.offsets()[u];
      auto nb = g.neighbors(u);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        const EdgeId eid = base + static_cast<EdgeId>(i);
        if (edge_processed[eid]) continue;
        const VertexId w = nb[i];
        edge_processed[eid] = true;
        sweep_fetch(w);
        if (task.directed) {
          sweep_contribute(u, w);
        } else {
          auto wn = g.neighbors(w);
          const auto rit = std::lower_bound(wn.begin(), wn.end(), u);
          edge_processed[g.offsets()[w] + static_cast<EdgeId>(rit - wn.begin())] = true;
          sweep_contribute(u, w);
          sweep_contribute(w, u);
        }
        ++rep.edges_processed;  // one undirected pair (or directed edge)
        sweep_decrement(u);
        sweep_decrement(w);
      }
      if (task.directed) {
        for (EdgeId ri = rev->offsets[u]; ri < rev->offsets[u + 1]; ++ri) {
          const EdgeId eid = rev->forward_index[ri];
          if (edge_processed[eid]) continue;
          const VertexId x = rev->sources[ri];
          edge_processed[eid] = true;
          sweep_fetch(x);
          sweep_contribute(x, u);
          ++rep.edges_processed;
          sweep_decrement(x);
          sweep_decrement(u);
        }
      }
    }
    rep.accum_ops += sweep_accums;
    rep.sfu_ops += sweep_sfu;
    Cycles sweep_compute = div_ceil(sweep_accums * f, total_macs);
    if (sweep_sfu > 0) {
      sweep_compute = std::max<Cycles>(
          sweep_compute, div_ceil(sweep_sfu, config_.sfu_lanes) + config_.sfu.exp_latency);
    }
    const Cycles sweep_mem = hbm_ != nullptr ? hbm_->epoch_cycles() : 0;
    rep.compute_cycles += sweep_compute;
    rep.memory_cycles += sweep_mem;
    rep.total_cycles += std::max(sweep_compute, sweep_mem);
    ++rep.iterations;
  }

  state.finalize(task);
  return std::move(state.out);
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

Matrix AggregationEngine::run_on_demand(const AggregationTask& task, const CachePolicy& policy,
                                        AggregationReport& rep) {
  const Csr& g = *task.graph;
  const std::size_t f = task.hw->cols();
  const VertexId v_count = g.vertex_count();
  FunctionalState state(task);
  if (v_count == 0) {
    state.finalize(task);
    return std::move(state.out);
  }

  const Bytes prop_bytes = static_cast<Bytes>(f) * config_.feature_bytes + 4 +
                           (task.kind == AggKind::kGatSoftmax ? 8 : 0);
  auto prop_addr = [&](VertexId v) {
    // ID-order layout: no degree-aware placement.
    return layout_.property_base + static_cast<std::uint64_t>(v) * prop_bytes;
  };

  const std::uint64_t n = rep.cache_capacity_vertices;
  cache::ReplacementBuffer buffer = on_demand_buffer(task, policy, n);
  rep.dual_pinned_vertices = buffer.preloads().size();

  // DRAM cost of loading one vertex's working set (properties + adjacency
  // slice) into the input buffer — charged on every miss and for each
  // pinned-hub preload.
  auto charge_fetch = [&](VertexId v, bool random) {
    if (hbm_ != nullptr) {
      hbm_->access(prop_addr(v), prop_bytes, false, MemClient::kInput);
      hbm_->access(layout_.adjacency_base + static_cast<std::uint64_t>(v) * 16, 8 +
                       static_cast<Bytes>(g.degree(v)) * 4,
                   false, MemClient::kInput);
    }
    rep.dram_accesses += 2;
    rep.dram_bytes += prop_bytes + 8 + static_cast<Bytes>(g.degree(v)) * 4;
    rep.input_fetch_bytes += prop_bytes + 8 + static_cast<Bytes>(g.degree(v)) * 4;
    if (random) ++rep.random_dram_accesses;
  };

  auto ensure_cached = [&](VertexId v, bool random) {
    ++rep.buffer_accesses;
    if (task.access_log != nullptr) task.access_log->push_back(v);
    if (buffer.access(v)) {
      ++rep.buffer_hits;
    } else {
      charge_fetch(v, random);
    }
  };

  const std::uint32_t total_cpes = config_.array.total_cpes();
  const std::uint32_t total_macs = config_.array.total_macs();
  auto cpe_macs = [&](std::uint32_t cpe) {
    return config_.array.macs_in_row(cpe / config_.array.cols);
  };
  std::vector<std::uint64_t> cpe_load(total_cpes, 0);
  const bool lb = config_.opts.aggregation_load_balance;
  const std::size_t gat_extra =
      task.kind == AggKind::kGatSoftmax ? task.gat_heads : 0;  // exp per head per direction

  // Process vertices in ID order; account cycles per window of n targets.
  std::uint64_t window_accums = 0;
  std::uint32_t window_targets = 0;
  std::uint64_t window_sfu = 0;
  std::uint32_t window_max_deg = 0;
  if (hbm_ != nullptr) hbm_->begin_epoch();

  // Dual-cache hub preload: one sequential sweep over the degree-order
  // prefix, charged to the first accounting window. Preloads are fills,
  // not lookups — they do not count as buffer accesses.
  for (VertexId v : buffer.preloads()) charge_fetch(v, /*random=*/false);

  auto flush_window = [&] {
    std::uint64_t compute_it = 0;
    if (lb) {
      compute_it = div_ceil(window_accums * f, total_macs);
      if (window_max_deg > 1) {
        compute_it += static_cast<std::uint64_t>(
            std::ceil(std::log2(static_cast<double>(window_max_deg) + 1.0)));
      }
    } else {
      compute_it = *std::max_element(cpe_load.begin(), cpe_load.end());
      std::fill(cpe_load.begin(), cpe_load.end(), 0);
    }
    if (window_sfu > 0) {
      compute_it = std::max<std::uint64_t>(
          compute_it, div_ceil(window_sfu, config_.sfu_lanes) + config_.sfu.exp_latency);
    }
    const Cycles mem_it = hbm_ != nullptr ? hbm_->epoch_cycles() : 0;
    rep.compute_cycles += compute_it;
    rep.memory_cycles += mem_it;
    rep.total_cycles += std::max<Cycles>(compute_it, mem_it);
    ++rep.iterations;
    window_accums = 0;
    window_targets = 0;
    window_sfu = 0;
    window_max_deg = 0;
    if (hbm_ != nullptr) hbm_->begin_epoch();
  };

  for (VertexId v = 0; v < v_count; ++v) {
    ensure_cached(v, /*random=*/false);  // ID-order walk is sequential
    auto nb = g.neighbors(v);
    std::uint32_t deg_here = 0;
    for (VertexId w : nb) {
      ensure_cached(w, /*random=*/true);  // a neighbor miss is a random pull
      state.contribute(task, v, w);
      ++window_accums;
      window_sfu += gat_extra;
      ++deg_here;
      ++rep.edges_processed;
      ++rep.accum_ops;
      rep.sfu_ops += gat_extra;
      if (!lb) {
        const std::uint32_t home = v % total_cpes;
        cpe_load[home] += accum_cycles(f, cpe_macs(home));
      }
    }
    if (task.kind == AggKind::kGatSoftmax) {
      window_sfu += f;  // final divide
      rep.sfu_ops += f;
    }
    window_max_deg = std::max(window_max_deg, deg_here);
    // Result write-back.
    if (hbm_ != nullptr) {
      hbm_->access(layout_.output_base + static_cast<std::uint64_t>(v) * f *
                       config_.feature_bytes,
                   static_cast<Bytes>(f) * config_.feature_bytes, true, MemClient::kOutput);
    }
    rep.dram_bytes += static_cast<Bytes>(f) * config_.feature_bytes;
    ++rep.dram_accesses;
    if (++window_targets == n) flush_window();
  }
  if (window_targets > 0 || window_accums > 0) flush_window();
  rep.rounds = 1;

  state.finalize(task);
  return std::move(state.out);
}

}  // namespace gnnie
