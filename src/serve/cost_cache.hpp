// Shared service-cost cache for the serving cluster.
//
// A serving simulation's hot loop charges every request the cycle count a
// lone run() of its (die config, plan, features) triple would report. Runs
// are stateless, so that number is a pure function of the triple — the
// cache is exact, not an approximation. Lifting it out of simulate() and
// into the Cluster lets every sweep cell (each load point, each scheduler,
// each seed) over the same cluster reuse the costs the first cell computed:
// a latency-vs-load sweep re-costs nothing after its first point, and
// parallel sweep replays share one fill.
//
// The table is a small open-addressing flat hash map (power-of-two slots,
// linear probing) over deque-backed entries, so lookups touch one cache
// line of slot metadata and returned CostEntry pointers stay stable
// across growth. Fills take a mutex — concurrent simulate() calls on one
// cluster are safe, and holding the lock across compute() also serializes
// the per-config re-plan a fleet fill performs. Hits after the table is
// warm are the common case; simulate() additionally resolves each
// (config, stream) pair to a raw pointer once per run, so the per-event
// path never hashes at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/units.hpp"
#include "core/report.hpp"
#include "core/serving.hpp"

namespace gnnie::serve {

/// Memoized per-(die config, plan, features) service data. Everything in
/// here is WARMTH-INDEPENDENT by design: the entry stores the request's
/// staged cost surface (gnnie::ServiceCost of a lone cold query — per-stage
/// splits, follower saving, and the per-stage warmth surface), never a
/// warm-discounted charge — warm fractions vary per service and are applied
/// outside the cache (cost.warm_total(f) at service start), so warm and
/// cold services of the same request are charged differently even though
/// they share this entry. All cycles are in the CONFIG'S OWN clock domain —
/// callers scale into reference cycles at charge/estimate time.
struct CostEntry {
  /// The plan the costed run used: the request's own plan when the config's
  /// compiled model built it, else the per-config re-plan of its graph
  /// (held here so re-plans outlive the plan cache).
  GraphPlanPtr plan;
  Bytes working_set = 0;  ///< plan->warm_working_set_bytes()
  /// Staged surface of a lone cold service of this triple
  /// (CompiledModel::cost on the routed request): cost.head carries
  /// cold/warm/stage-split scalars, cost.warm_stages re-prices any warmth,
  /// cost.head.batch_saving_cycles the follower saving.
  ServiceCost cost;
};

class ServiceCostCache {
 public:
  struct Key {
    std::size_t config = 0;
    const void* plan = nullptr;
    const void* features = nullptr;

    bool operator==(const Key& other) const {
      return config == other.config && plan == other.plan && features == other.features;
    }
  };

  ServiceCostCache();
  ServiceCostCache(const ServiceCostCache&) = delete;
  ServiceCostCache& operator=(const ServiceCostCache&) = delete;

  /// The entry for `key`, computing and inserting it on first sight.
  /// `compute` runs under the cache lock (fills are rare; serializing them
  /// also covers non-reentrant compute paths such as a fleet's per-config
  /// plan() call). The returned reference is stable for the cache's
  /// lifetime.
  template <typename Compute>
  const CostEntry& get(const Key& key, Compute&& compute) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const CostEntry* hit = find_locked(key)) return *hit;
    entries_.push_back(compute());
    insert_locked(key, entries_.size() - 1);
    return entries_.back();
  }

  /// Distinct triples costed so far (benches assert sweep cells share).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// Current slot-table width (power of two). Exposed so the unit tests can
  /// pin the growth threshold and craft colliding keys; not useful to
  /// simulation code.
  std::size_t slot_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
  }

  /// The slot hash (splitmix64-mixed). Public and static so tests can
  /// construct keys that provably collide modulo the table width.
  static std::size_t hash(const Key& key);

 private:
  struct Slot {
    Key key;
    std::uint32_t index_plus_one = 0;  ///< 0 = empty
  };

  const CostEntry* find_locked(const Key& key) const;
  void insert_locked(const Key& key, std::size_t index);
  void grow_locked();

  std::vector<Slot> slots_;        ///< power-of-two, linear probing
  std::deque<CostEntry> entries_;  ///< stable addresses across growth
  mutable std::mutex mutex_;
};

}  // namespace gnnie::serve
