// Pluggable cache-allocation policies for edge Aggregation (§VI and the
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
// AggregationEngine dispatches through this interface, and a policy object
// is the only way to pick one. The degree-aware kind is the default
// everywhere: a null policy (Engine, AggregationTask) means degree-aware,
// and every other kind is strictly opt-in.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
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
/// Inverse of to_string; nullopt for unknown names.
std::optional<CachePolicyKind> cache_policy_kind_from_string(std::string_view name);

/// Vertices per DRAM cache block (the paper's Fig. 9 geometry). The
/// subgraph machinery skips fully-processed blocks on refetch (§VI) and maps
/// a vertex to cache set (layout block % sets); the set-aware layout deals
/// the degree order across blocks of this size.
inline constexpr std::uint32_t kCacheBlockVertices = 8;

/// Replacement discipline of the on-demand pull engine, for policies
/// without subgraph machinery (ignored otherwise).
enum class ReplacementKind { kLru, kBelady, kDualPinnedLru };

class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  virtual CachePolicyKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// True: aggregation runs the cached-subgraph machinery (evictions, γ,
  /// Rounds) over layout_order(). False: the on-demand pull engine runs
  /// instead, with replacement() managing the input buffer.
  virtual bool uses_subgraph_machinery() const = 0;

  /// How the on-demand engine replaces buffer entries when
  /// uses_subgraph_machinery() is false: it builds its one
  /// cache::ReplacementBuffer (cache/replay.hpp) from this. LRU is the
  /// HyGCN baseline; kBelady replays perfect future knowledge;
  /// kDualPinnedLru pins a hub region and runs LRU over the rest.
  virtual ReplacementKind replacement() const { return ReplacementKind::kLru; }

  /// DRAM layout = processing order: order[i] is the vertex fetched i-th.
  /// Every policy returns a full permutation of [0, |V|): for on-demand
  /// kinds it is the pull order (and the hot prefix the trace-replay
  /// analysis pins, cache/alloc.hpp), even though the subgraph machinery
  /// never runs over it.
  virtual std::vector<VertexId> layout_order(const Csr& g) const = 0;

  /// Factory over the kind enum. The switch is exhaustive with no default:
  /// adding a CachePolicyKind without a factory entry is a compile error
  /// (-Werror=switch), not a silent fallthrough.
  static std::unique_ptr<CachePolicy> make(CachePolicyKind kind);
};

}  // namespace gnnie
