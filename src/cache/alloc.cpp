#include "cache/alloc.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "graph/reorder.hpp"

namespace gnnie::cache {
namespace {

/// The first min(count, |order|) entries of a layout order — the prefix a
/// static cache pins.
std::span<const VertexId> order_prefix(const std::vector<VertexId>& order,
                                       std::uint64_t count) {
  return std::span<const VertexId>(order.data(),
                                   std::min<std::uint64_t>(count, order.size()));
}

}  // namespace

DualSplit best_dual_split(const AccessTrace& trace, std::uint64_t capacity, const Csr& g) {
  GNNIE_REQUIRE(capacity > 0, "split search needs a positive capacity");
  // Exact degree order, not the binned layout order: the pinned region
  // should hold the hottest vertices exactly (a vertex's access frequency
  // in the trace is 1 + degree), and the binning's within-bin id tie-break
  // would pin boundary-bin vertices by id rather than by heat.
  const std::vector<VertexId> hubs = exact_degree_order(g);
  const std::uint64_t max_pinned = std::min<std::uint64_t>(capacity, hubs.size());
  DualSplit best;
  bool have_best = false;
  std::uint64_t previous = 0;
  for (int step = 0; step <= 8; ++step) {
    const std::uint64_t pinned = max_pinned * static_cast<std::uint64_t>(step) / 8;
    if (have_best && pinned == previous) continue;  // tiny capacities collapse grid points
    previous = pinned;
    ReplayResult r = replay(trace, ReplacementBuffer::pinned_lru(trace.vertex_count, capacity,
                                                                 order_prefix(hubs, pinned)));
    // Strict improvement only: ties keep the smaller pinned region.
    if (!have_best || r.fetches < best.result.fetches) {
      best.pinned = pinned;
      best.result = r;
      have_best = true;
    }
  }
  return best;
}

ReplayResult replay_policy(const AccessTrace& trace, std::uint64_t capacity,
                           const CachePolicy& policy, const Csr& g) {
  switch (policy.kind()) {
    case CachePolicyKind::kBeladyOracle:
      return replay(trace, ReplacementBuffer::belady(trace, capacity));
    case CachePolicyKind::kOnDemand:
      return replay(trace, ReplacementBuffer::pinned_lru(trace.vertex_count, capacity));
    case CachePolicyKind::kDualCache:
      return best_dual_split(trace, capacity, g).result;
    case CachePolicyKind::kDegreeAware:
    case CachePolicyKind::kIdOrder:
    case CachePolicyKind::kSetAware: {
      const std::vector<VertexId> order = policy.layout_order(g);
      return replay(trace, ReplacementBuffer::pinned_lru(trace.vertex_count, capacity,
                                                         order_prefix(order, capacity)));
    }
  }
  GNNIE_REQUIRE(false, "unhandled cache policy kind");
  return {};  // unreachable
}

WorkloadCacheAnalysis analyze_workload(const Csr& g, std::uint64_t capacity) {
  WorkloadCacheAnalysis a;
  a.capacity = capacity;
  const AccessTrace trace = AccessTrace::from_graph(g);
  a.trace_accesses = trace.accesses.size();
  for (CachePolicyKind kind : all_cache_policy_kinds()) {
    a.policies.push_back({kind, replay_policy(trace, capacity, *CachePolicy::make(kind), g)});
    if (kind == CachePolicyKind::kBeladyOracle) a.oracle = a.policies.back().replay;
  }
  for (WorkloadCacheAnalysis::PolicyEntry& entry : a.policies) {
    entry.fraction_of_oracle = a.oracle.hit_rate() > 0.0
                                   ? entry.replay.hit_rate() / a.oracle.hit_rate()
                                   : 1.0;
  }
  return a;
}

}  // namespace gnnie::cache
