// Per-die cache-residency (warmth) model for the serving cluster.
//
// GNNIE's graph-specific cache layout makes a run's DRAM-fetch cost depend
// on what the die already holds: a request whose plan's cached feature
// working set is resident skips the refill of that working set. This model
// is the serving-level bookkeeping of that effect — each die tracks a
// bounded residency set of (plan fingerprint → warm bytes), LRU-demoted
// when the die's modeled on-chip budget (EngineConfig::warmth_die_budget)
// is exceeded. The cluster touches the model at every service start; the
// observed warm fraction discounts the request's service time
// (ServiceCost::warm_total, core/serving.hpp) and displacing another plan's
// resident state charges the plan-swap penalty (kPlanSwapPenaltyCycles).
//
// The model is deterministic by construction (pure LRU over the service
// sequence), so simulations stay reproducible per (trace, scheduler, dies).
#pragma once

#include <cstdint>
#include <list>

#include "common/units.hpp"

namespace gnnie::serve {

class DieWarmthModel {
 public:
  /// `budget` on-chip bytes available for warm working sets (> 0).
  explicit DieWarmthModel(Bytes budget);

  Bytes budget() const { return budget_; }
  /// Total bytes currently resident; never exceeds budget().
  Bytes resident_bytes() const { return resident_; }
  std::size_t resident_plan_count() const { return lru_.size(); }

  /// Fraction of plan `fingerprint`'s `working_set` bytes currently
  /// resident (0 when absent; below 1 when the working set itself is larger
  /// than the budget and was truncated on load).
  double warm_fraction(std::uint64_t fingerprint, Bytes working_set) const;
  bool is_resident(std::uint64_t fingerprint) const;

  /// What one service observed: the warm fraction at service start, and
  /// whether loading this plan displaced another plan's resident state.
  struct Touch {
    double warm_fraction = 0.0;
    bool swapped = false;
  };

  /// Records a service of (fingerprint, working_set): promotes a resident
  /// plan to most-recently-used, or loads up to min(working_set, budget)
  /// bytes, LRU-demoting other plans until the budget holds.
  Touch touch(std::uint64_t fingerprint, Bytes working_set);

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    Bytes bytes = 0;
  };

  Bytes budget_;
  Bytes resident_ = 0;
  std::list<Entry> lru_;  ///< front = most recently serviced
};

}  // namespace gnnie::serve
