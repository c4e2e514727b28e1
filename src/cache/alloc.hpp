// Workload-aware cache allocation: the DCI-style dual-cache split search
// and the per-policy hit-rate analysis every cache report is anchored to.
//
// The subsystem's contract: one AccessTrace per workload (graph), one
// capacity (the input buffer in vertices, AggregationEngine::
// cache_capacity_for), and every CachePolicyKind mapped to a
// ReplacementBuffer (cache/replay.hpp):
//
//   degree-aware / id-order / set-aware → static cache holding the first
//       `capacity` vertices of the policy's layout_order (the hot prefix
//       the subgraph machinery keeps resident longest);
//   on-demand                           → LRU;
//   dual-cache                          → pinned hub region + LRU fill,
//       the split chosen by best_dual_split() over the recorded trace;
//   belady-oracle                       → offline-optimal replacement.
//
// The last three rows are the buffers the on-demand engine itself runs
// (AggregationEngine::run_on_demand builds the same buffer over the same
// trace), so their replayed fetches are the engine's, by construction. The
// first three are proxies: the subgraph machinery the engine charges for
// evicts by α/γ, not by paging. Because every row is a paging scheme over
// the same trace and capacity, the oracle's fetch count lower-bounds all of
// them — hit rates reported as a fraction of the oracle's are genuine
// fractions of optimal fetch counts (not of cycles or DRAM bytes).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/access_trace.hpp"
#include "cache/replay.hpp"
#include "core/cache_policy.hpp"
#include "graph/csr.hpp"

namespace gnnie::cache {

/// A chosen dual-cache capacity split for one (trace, capacity) workload.
struct DualSplit {
  std::uint64_t pinned = 0;  ///< hub-region size in vertices (rest is LRU fill)
  ReplayResult result;       ///< replay outcome at this split
};

/// Searches the pinned-region size over a 9-point grid of the capacity
/// (0, c/8, …, c), pinning the top-p vertices of the exact degree order
/// (access frequency = 1 + degree), and returns the split with the most
/// hits (ties → smaller pinned region, so the search is deterministic and
/// prefers flexibility).
DualSplit best_dual_split(const AccessTrace& trace, std::uint64_t capacity, const Csr& g);

/// Replays `policy`'s buffer (header table above) over the trace.
ReplayResult replay_policy(const AccessTrace& trace, std::uint64_t capacity,
                           const CachePolicy& policy, const Csr& g);

/// One workload's full analysis: the oracle plus every policy kind's
/// replayed hit rate, ready for reporting against the oracle denominator.
struct WorkloadCacheAnalysis {
  std::uint64_t capacity = 0;
  std::uint64_t trace_accesses = 0;
  ReplayResult oracle;  ///< the belady-oracle row's replay (the denominator)
  struct PolicyEntry {
    CachePolicyKind kind;
    ReplayResult replay;
    /// Hit rate over the oracle's; 1.0 when the oracle's own row (or an
    /// empty trace) makes the ratio degenerate.
    double fraction_of_oracle = 1.0;
  };
  std::vector<PolicyEntry> policies;  ///< all_cache_policy_kinds() order
};

WorkloadCacheAnalysis analyze_workload(const Csr& g, std::uint64_t capacity);

}  // namespace gnnie::cache
