#include "core/cache_policy.hpp"

#include <cstring>
#include <numeric>

#include "common/require.hpp"
#include "graph/reorder.hpp"

namespace gnnie {

const char* to_string(CachePolicyKind kind) {
  switch (kind) {
    case CachePolicyKind::kDegreeAware: return "degree-aware";
    case CachePolicyKind::kIdOrder: return "id-order";
    case CachePolicyKind::kOnDemand: return "on-demand";
    case CachePolicyKind::kSetAware: return "set-aware";
    case CachePolicyKind::kDualCache: return "dual-cache";
    case CachePolicyKind::kBeladyOracle: return "belady-oracle";
  }
  return "?";
}

const std::vector<CachePolicyKind>& all_cache_policy_kinds() {
  static const std::vector<CachePolicyKind> kinds = {
      CachePolicyKind::kDegreeAware,  CachePolicyKind::kIdOrder,
      CachePolicyKind::kOnDemand,     CachePolicyKind::kSetAware,
      CachePolicyKind::kDualCache,    CachePolicyKind::kBeladyOracle};
  return kinds;
}

std::optional<CachePolicyKind> cache_policy_kind_from_string(std::string_view name) {
  for (CachePolicyKind kind : all_cache_policy_kinds()) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

namespace {

std::vector<VertexId> identity_order(const Csr& g) {
  std::vector<VertexId> order(g.vertex_count());
  std::iota(order.begin(), order.end(), VertexId{0});
  return order;
}

/// CP (§VI): descending-degree-bin layout + subgraph machinery.
class DegreeAwarePolicy final : public CachePolicy {
 public:
  CachePolicyKind kind() const override { return CachePolicyKind::kDegreeAware; }
  bool uses_subgraph_machinery() const override { return true; }
  std::vector<VertexId> layout_order(const Csr& g) const override {
    return degree_descending_order(g);
  }
};

/// §VIII-E baseline: subgraph machinery over a plain vertex-ID layout.
class IdOrderPolicy final : public CachePolicy {
 public:
  CachePolicyKind kind() const override { return CachePolicyKind::kIdOrder; }
  bool uses_subgraph_machinery() const override { return true; }
  std::vector<VertexId> layout_order(const Csr& g) const override {
    return identity_order(g);
  }
};

/// HyGCN-style on-demand pulls through an LRU input buffer. The layout is
/// the vertex-ID pull order (targets are processed in ascending ID).
class OnDemandPolicy final : public CachePolicy {
 public:
  CachePolicyKind kind() const override { return CachePolicyKind::kOnDemand; }
  bool uses_subgraph_machinery() const override { return false; }
  std::vector<VertexId> layout_order(const Csr& g) const override {
    return identity_order(g);
  }
};

/// Conflict-aware layout for the §VI/Fig. 9 set-associative buffer. The
/// degree-descending order packs the hubs into the first DRAM blocks, which
/// all map to the same few cache sets — so hubs evict each other while cold
/// sets sit idle. This layout "deals" the degree order column-major across
/// the blocks: block b holds the b-th, (B+b)-th, (2B+b)-th … hottest
/// vertices, spreading the hubs one-per-block so each set's conflict victim
/// is a cheap tail vertex instead of a hub.
class SetAwarePolicy final : public CachePolicy {
 public:
  CachePolicyKind kind() const override { return CachePolicyKind::kSetAware; }
  bool uses_subgraph_machinery() const override { return true; }
  std::vector<VertexId> layout_order(const Csr& g) const override {
    const std::vector<VertexId> base = degree_descending_order(g);
    const std::size_t v_count = base.size();
    const std::size_t num_blocks = (v_count + kCacheBlockVertices - 1) / kCacheBlockVertices;
    std::vector<VertexId> out;
    out.reserve(v_count);
    for (std::size_t block = 0; block < num_blocks; ++block) {
      for (std::size_t slot = 0; slot < kCacheBlockVertices; ++slot) {
        const std::size_t idx = slot * num_blocks + block;
        if (idx < v_count) out.push_back(base[idx]);
      }
    }
    return out;
  }
};

/// DCI-style dual cache: on-demand pulls with the buffer split between a
/// pinned hub region and an LRU fill region. The split itself is a per-plan
/// artifact (GraphPlan::dual_pinned_for_width, via cache::best_dual_split);
/// the layout is the *exact* degree order whose prefix the hub region pins
/// — exact rather than binned, because a pinned set should hold the hottest
/// vertices precisely (access frequency = 1 + degree), not the boundary
/// bin's id-ordered approximation.
class DualCachePolicy final : public CachePolicy {
 public:
  CachePolicyKind kind() const override { return CachePolicyKind::kDualCache; }
  bool uses_subgraph_machinery() const override { return false; }
  ReplacementKind replacement() const override { return ReplacementKind::kDualPinnedLru; }
  std::vector<VertexId> layout_order(const Csr& g) const override {
    return exact_degree_order(g);
  }
};

/// Offline-optimal replacement over the deterministic on-demand access
/// sequence (Ginex-style). The denominator of every hit-rate report.
class BeladyOraclePolicy final : public CachePolicy {
 public:
  CachePolicyKind kind() const override { return CachePolicyKind::kBeladyOracle; }
  bool uses_subgraph_machinery() const override { return false; }
  ReplacementKind replacement() const override { return ReplacementKind::kBelady; }
  std::vector<VertexId> layout_order(const Csr& g) const override {
    return identity_order(g);
  }
};

}  // namespace

std::unique_ptr<CachePolicy> CachePolicy::make(CachePolicyKind kind) {
  switch (kind) {
    case CachePolicyKind::kDegreeAware: return std::make_unique<DegreeAwarePolicy>();
    case CachePolicyKind::kIdOrder: return std::make_unique<IdOrderPolicy>();
    case CachePolicyKind::kOnDemand: return std::make_unique<OnDemandPolicy>();
    case CachePolicyKind::kSetAware: return std::make_unique<SetAwarePolicy>();
    case CachePolicyKind::kDualCache: return std::make_unique<DualCachePolicy>();
    case CachePolicyKind::kBeladyOracle: return std::make_unique<BeladyOraclePolicy>();
  }
  GNNIE_REQUIRE(false, "unknown cache policy kind");
  return nullptr;  // unreachable
}

}  // namespace gnnie
