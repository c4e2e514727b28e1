#include "core/cache_policy.hpp"

#include <algorithm>
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

std::unique_ptr<CachePolicy> CachePolicy::make(CachePolicyKind kind) {
  const auto& kinds = all_cache_policy_kinds();
  GNNIE_REQUIRE(std::find(kinds.begin(), kinds.end(), kind) != kinds.end(),
                "unknown cache policy kind");
  return std::unique_ptr<CachePolicy>(new CachePolicy(kind));
}

bool CachePolicy::uses_subgraph_machinery() const {
  switch (kind_) {
    case CachePolicyKind::kDegreeAware:
    case CachePolicyKind::kIdOrder:
    case CachePolicyKind::kSetAware:
      return true;
    case CachePolicyKind::kOnDemand:
    case CachePolicyKind::kDualCache:
    case CachePolicyKind::kBeladyOracle:
      break;
  }
  return false;
}

ReplacementKind CachePolicy::replacement() const {
  switch (kind_) {
    case CachePolicyKind::kDualCache: return ReplacementKind::kDualPinnedLru;
    case CachePolicyKind::kBeladyOracle: return ReplacementKind::kBelady;
    case CachePolicyKind::kDegreeAware:
    case CachePolicyKind::kIdOrder:
    case CachePolicyKind::kOnDemand:
    case CachePolicyKind::kSetAware:
      break;
  }
  return ReplacementKind::kLru;
}

namespace {

/// Conflict-aware layout for the §VI/Fig. 9 set-associative buffer. The
/// degree-descending order packs the hubs into the first DRAM blocks, which
/// all map to the same few cache sets — so hubs evict each other while cold
/// sets sit idle. This layout "deals" the degree order column-major across
/// the blocks: block b holds the b-th, (B+b)-th, (2B+b)-th … hottest
/// vertices, spreading the hubs one-per-block so each set's conflict victim
/// is a cheap tail vertex instead of a hub.
std::vector<VertexId> set_aware_order(const Csr& g) {
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

}  // namespace

std::vector<VertexId> CachePolicy::layout_order(const Csr& g) const {
  switch (kind_) {
    // CP (§VI): descending-degree bins.
    case CachePolicyKind::kDegreeAware: return degree_descending_order(g);
    case CachePolicyKind::kSetAware: return set_aware_order(g);
    // The dual cache's split is a per-plan artifact
    // (GraphPlan::dual_pinned_for_width, via cache::best_dual_split); its
    // layout is the *exact* degree order whose prefix the hub region pins —
    // exact rather than binned, because a pinned set should hold the
    // hottest vertices precisely (access frequency = 1 + degree), not the
    // boundary bin's id-ordered approximation.
    case CachePolicyKind::kDualCache: return exact_degree_order(g);
    // Vertex-ID order: the §VIII-E ID-order baseline's layout, and the
    // ascending pull order of the on-demand and oracle engines.
    case CachePolicyKind::kIdOrder:
    case CachePolicyKind::kOnDemand:
    case CachePolicyKind::kBeladyOracle:
      break;
  }
  std::vector<VertexId> order(g.vertex_count());
  std::iota(order.begin(), order.end(), VertexId{0});
  return order;
}

}  // namespace gnnie
