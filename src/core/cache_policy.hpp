// Cache-allocation policies for edge Aggregation (§VI and the
// §VIII-E ablation). A CachePolicy decides (a) how vertices are laid out in
// DRAM — i.e. in what order the subgraph machinery fetches them — and (b)
// whether the subgraph machinery runs at all, or vertices instead pull
// their neighbors on demand through a replacement-managed input buffer.
//
// The policy family (the paper's three regimes plus the workload-aware
// allocation subsystem, src/cache/):
//   * degree-aware (CP, §VI): descending-degree-bin layout, subgraph
//     machinery — the GNNIE proposal;
//   * ID-order: same machinery over a plain vertex-ID layout — isolates
//     the layout's contribution from the machinery's;
//   * on-demand: per-vertex neighbor pulls through an LRU buffer, random
//     DRAM on miss — the HyGCN-style baseline;
//   * set-aware: subgraph machinery over a conflict-aware layout that
//     deals the degree order across DRAM blocks so no cache set fills with
//     long-lived hubs at once (uses the §VI/Fig. 9 set-associative model);
//   * dual-cache (DCI, arXiv:2503.01281): on-demand pulls with the buffer
//     split into a pinned hub region — sized per workload from the
//     recorded access trace (cache/alloc.hpp) — and an LRU fill region;
//   * belady-oracle (Ginex, arXiv:2208.09151): on-demand pulls with
//     offline-optimal replacement over the deterministic access sequence —
//     the upper bound every heuristic's hit rate is reported against.
//
// AggregationEngine reads a policy's layout and mode from this class, and a
// policy object is the only way to pick one. The degree-aware kind is the
// default everywhere: a null policy (Engine, AggregationTask) means
// degree-aware, and every other kind is strictly opt-in.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr.hpp"

namespace gnnie {

enum class CachePolicyKind {
  kDegreeAware,
  kIdOrder,
  kOnDemand,
  kSetAware,
  kDualCache,
  kBeladyOracle,
};

const char* to_string(CachePolicyKind kind);
const std::vector<CachePolicyKind>& all_cache_policy_kinds();

/// Vertices per DRAM cache block (the paper's Fig. 9 geometry). The
/// subgraph machinery skips fully-processed blocks on refetch (§VI) and maps
/// a vertex to cache set (layout block % sets); the set-aware layout deals
/// the degree order across blocks of this size.
inline constexpr std::uint32_t kCacheBlockVertices = 8;

/// Replacement discipline of the on-demand pull engine, for policies
/// without subgraph machinery (ignored otherwise).
enum class ReplacementKind { kLru, kBelady, kDualPinnedLru };

/// One policy of the family above. Each query switches on kind() with no
/// default, so adding a CachePolicyKind without deciding all three is a
/// compile error (-Werror=switch), not a silent fallthrough.
class CachePolicy final {
 public:
  /// The one way to build a policy; throws std::invalid_argument for a value
  /// outside the enumeration.
  static std::unique_ptr<CachePolicy> make(CachePolicyKind kind);

  CachePolicyKind kind() const { return kind_; }
  const char* name() const { return to_string(kind_); }

  /// True: aggregation runs the cached-subgraph machinery (evictions, γ,
  /// Rounds) over layout_order(). False: the on-demand pull engine runs
  /// instead, with replacement() managing the input buffer.
  bool uses_subgraph_machinery() const;

  /// How the on-demand engine replaces buffer entries when
  /// uses_subgraph_machinery() is false: it builds its one
  /// cache::ReplacementBuffer (cache/replay.hpp) from this. LRU is the
  /// HyGCN baseline; kBelady replays perfect future knowledge;
  /// kDualPinnedLru pins a hub region and runs LRU over the rest.
  ReplacementKind replacement() const;

  /// DRAM layout = processing order: order[i] is the vertex fetched i-th.
  /// Every policy returns a full permutation of [0, |V|): for on-demand
  /// kinds it is the pull order (and the hot prefix the trace-replay
  /// analysis pins, cache/alloc.hpp), even though the subgraph machinery
  /// never runs over it.
  std::vector<VertexId> layout_order(const Csr& g) const;

 private:
  explicit CachePolicy(CachePolicyKind kind) : kind_(kind) {}

  CachePolicyKind kind_;
};

}  // namespace gnnie
