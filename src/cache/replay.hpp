// The replacement-managed input buffer, and trace replay over it: the
// hit-rate yardstick of the cache-allocation subsystem.
//
// ReplacementBuffer is the one implementation of every on-demand
// replacement rule. The on-demand aggregation engine (AggregationEngine::
// run_on_demand) feeds it each input-buffer access and charges DRAM on
// every miss; replay() feeds it a recorded AccessTrace and counts. Because
// both drive the same buffer over the same sequence, the engine's fetches
// equal the replay's by construction.
//
//   * pinned_lru(…) — a preloaded, never-evicted pinned region plus an LRU
//       fill region over the rest of the capacity. Nothing pinned: plain
//       LRU, the on-demand engine's HyGCN-style discipline. A pinned hub
//       prefix: the DCI-style dual cache. |pinned| == capacity: a static
//       cache (the trace-domain model of the subgraph-machinery layouts:
//       the buffer holds the layout's hot prefix).
//   * belady(…)     — offline-optimal (Ginex): evict the cached vertex whose
//       next use is farthest in the future.
//
// replay() counts *fetches*: every load of a vertex's working set into the
// buffer, whether on demand (a miss) or as a preload (pinned regions are
// charged their fill). Counting fetches rather than "misses" is what makes
// the Belady bound airtight: by the classic demand-paging optimality
// result, no scheme serving a fixed trace with a fixed capacity — pinning,
// prefetching, or any replacement rule — needs fewer fetches than Belady's
// offline-optimal replacement. So the Belady replay is a true denominator:
// every policy's replayed hit rate is a fraction ≤ 1 of the oracle's on the
// same trace.
#pragma once

#include <cstdint>
#include <iterator>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cache/access_trace.hpp"
#include "common/require.hpp"

namespace gnnie::cache {

struct ReplayResult {
  std::uint64_t accesses = 0;  ///< trace length served
  std::uint64_t fetches = 0;   ///< working-set loads (demand misses + preloads)

  /// Fraction of accesses served without a fetch. Preload charges mean a
  /// pathological (tiny-trace) replay can exceed one fetch per access;
  /// real workloads never do.
  double hit_rate() const {
    if (accesses == 0) return 1.0;
    return 1.0 - static_cast<double>(fetches) / static_cast<double>(accesses);
  }
};

/// An input buffer of `capacity` vertex working sets under one replacement
/// rule (header table above).
class ReplacementBuffer {
 public:
  /// `pinned` vertices (distinct, each < vertex_count, |pinned| ≤ capacity)
  /// are preloaded and never evicted; the remaining capacity − |pinned|
  /// slots run LRU. A zero-slot LRU region means every unpinned access
  /// misses and nothing is retained.
  static ReplacementBuffer pinned_lru(VertexId vertex_count, std::uint64_t capacity,
                                      std::span<const VertexId> pinned = {});

  /// Offline-optimal replacement with perfect knowledge of `trace`, which
  /// the buffer must then be fed exactly, in order: access() throws
  /// std::logic_error on any vertex that is not the trace's next entry.
  static ReplacementBuffer belady(const AccessTrace& trace, std::uint64_t capacity);

  /// Serves one access: true on a hit. A miss loads `v`, evicting by the
  /// buffer's rule when its replaceable slots are full.
  bool access(VertexId v) { return belady_ ? belady_access(v) : lru_access(v); }

  /// The pinned region, loaded before the first access: one fetch each.
  std::span<const VertexId> preloads() const { return pinned_; }

 private:
  enum Slot : std::uint8_t { kAbsent, kCached, kPinned };

  ReplacementBuffer(VertexId vertex_count, std::uint64_t capacity)
      : slot_(vertex_count, kAbsent), capacity_(capacity), sentinel_(vertex_count) {
    GNNIE_REQUIRE(capacity > 0, "a replacement buffer needs a positive capacity");
  }

  bool lru_access(VertexId v) {
    if (slot_[v] == kPinned) return true;
    if (slot_[v] == kCached) {
      unlink(v);
      push_front(v);
      return true;
    }
    if (capacity_ == 0) return false;  // no fill region: nothing retained
    if (cached_ == capacity_) {
      const VertexId victim = lru_prev_[sentinel_];  // tail = least recently used
      unlink(victim);
      slot_[victim] = kAbsent;
      --cached_;
    }
    slot_[v] = kCached;
    push_front(v);
    ++cached_;
    return false;
  }

  bool belady_access(VertexId v) {
    // key_[v] is the trace position of v's next access, so this holds
    // exactly when v is the trace's entry at position_.
    GNNIE_ASSERT(key_[v] == position_, "belady buffer fed out of trace order");
    const bool hit = slot_[v] == kCached;
    if (hit) {
      by_next_use_.erase({key_[v], v});
    } else if (by_next_use_.size() == capacity_) {
      // Never-used-again entries sort last and leave first.
      const auto farthest = std::prev(by_next_use_.end());
      slot_[farthest->second] = kAbsent;
      by_next_use_.erase(farthest);
    }
    slot_[v] = kCached;
    key_[v] = next_use_[position_++];
    by_next_use_.insert({key_[v], v});
    return hit;
  }

  // Intrusive LRU list over vertex ids; sentinel_ (= vertex_count) is the
  // head/tail node.
  void unlink(VertexId v) {
    lru_next_[lru_prev_[v]] = lru_next_[v];
    lru_prev_[lru_next_[v]] = lru_prev_[v];
  }
  void push_front(VertexId v) {
    lru_next_[v] = lru_next_[sentinel_];
    lru_prev_[v] = sentinel_;
    lru_prev_[lru_next_[sentinel_]] = v;
    lru_next_[sentinel_] = v;
  }

  std::vector<std::uint8_t> slot_;  ///< per vertex: a Slot
  std::uint64_t capacity_;          ///< replaceable slots (capacity − |pinned|)
  std::uint64_t cached_ = 0;        ///< vertices in the LRU region
  VertexId sentinel_;
  std::vector<VertexId> pinned_;
  std::vector<VertexId> lru_prev_;
  std::vector<VertexId> lru_next_;

  bool belady_ = false;
  std::uint64_t position_ = 0;           ///< trace entries served so far
  std::vector<std::uint64_t> next_use_;  ///< per trace position: its vertex's next one
  std::vector<std::uint64_t> key_;       ///< per vertex: its next trace position
  std::set<std::pair<std::uint64_t, VertexId>> by_next_use_;  ///< cached vertices by key_
};

/// Serves every access of `trace` through `buffer` and counts fetches:
/// the buffer's preloads plus its misses.
ReplayResult replay(const AccessTrace& trace, ReplacementBuffer buffer);

}  // namespace gnnie::cache
