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
// The table is a std::map keyed on (config, plan address, features
// address) as integers: simulate() resolves each (config, stream) pair to a
// raw pointer once per call, so a call makes at most configs × streams
// lookups and the per-event path never touches the map. Map nodes never
// move, so returned CostEntry references stay valid for the cache's
// lifetime. The map is only ever looked up, never iterated, so its
// address-derived key order cannot leak into a result. Fills take a mutex
// — concurrent simulate() calls on one cluster are safe, and holding the
// lock across compute() also serializes the per-config re-plan a fleet
// fill performs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>

#include "common/units.hpp"
#include "core/serving.hpp"

namespace gnnie::serve {

/// Memoized per-(die config, plan, features) service data. Everything in
/// here is WARMTH-INDEPENDENT by design: the entry stores the request's
/// cost record (gnnie::ServiceCost of a lone cold query), never a
/// warm-discounted charge — warm fractions vary per service and are applied
/// outside the cache (cost.warm_total(f) at service start), so warm and
/// cold services of the same request are charged differently even though
/// they share this entry. All cycles are at kClockHz, the one clock of
/// every die.
struct CostEntry {
  /// The plan the costed run used: the request's own plan when the config's
  /// compiled model built it, else the per-config re-plan of its graph
  /// (held here, so the re-plan lives as long as the entry). Its
  /// warm_working_set_bytes() sizes the request's residency.
  GraphPlanPtr plan;
  /// CompiledModel::cost on the routed request.
  ServiceCost cost;
};

class ServiceCostCache {
 public:
  struct Key {
    std::size_t config = 0;
    const void* plan = nullptr;
    const void* features = nullptr;
  };

  ServiceCostCache() = default;
  ServiceCostCache(const ServiceCostCache&) = delete;
  ServiceCostCache& operator=(const ServiceCostCache&) = delete;

  /// The entry for `key`, computing and inserting it on first sight.
  /// `compute` runs under the cache lock (fills are rare; serializing them
  /// also covers non-reentrant compute paths such as a fleet's per-config
  /// plan() call). The returned reference is stable for the cache's
  /// lifetime.
  template <typename Compute>
  const CostEntry& get(const Key& key, Compute&& compute) {
    const MapKey id{key.config, reinterpret_cast<std::uintptr_t>(key.plan),
                    reinterpret_cast<std::uintptr_t>(key.features)};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(id);
    if (it == entries_.end()) it = entries_.emplace(id, compute()).first;
    return it->second;
  }

  /// Distinct triples costed so far (benches assert sweep cells share).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  using MapKey = std::tuple<std::size_t, std::uintptr_t, std::uintptr_t>;

  std::map<MapKey, CostEntry> entries_;
  mutable std::mutex mutex_;
};

}  // namespace gnnie::serve
