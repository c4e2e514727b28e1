// Heterogeneous serving fleets: per-die engine configurations.
//
// A FleetSpec gives every die in a serving cluster its own EngineConfig —
// mixed PE-array design points, buffer sizes, residency budgets — so the
// simulator can answer provisioning questions: is a fleet of two big dies
// and two cheap ones enough to hold an SLO, or does the trace need four big
// ones? Each distinct config carries a relative *cost* (provisioning spend,
// normalized so the paper's design A = 1.0 when built via from_designs) and
// a label for reports; `assignment` maps each die to its config, so N dies
// can share a handful of configs without duplicating them.
//
// The cluster compiles the model once per distinct config (under the
// degree-aware cache policy) and keys its service memo by (config, plan
// address, features address) (serve/cost_cache.hpp): the same request
// costs differently per die design, which is exactly what the schedulers'
// per-(die, request) RequestEstimate vector carries. Two plans of one graph
// are two keys, so they are costed twice. Every die runs at kClockHz
// (common/units.hpp), so the simulation stays in one virtual-cycle domain.
//
// The homogeneous Cluster(model, dies) constructor is itself a one-config
// fleet (FleetSpec::homogeneous); a homogeneous FleetSpec over the
// reference config is bit-exact with it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/engine_config.hpp"

namespace gnnie::serve {

/// One die design available to a fleet: the engine configuration plus the
/// relative provisioning cost the SLO-vs-cost sweeps charge for each die
/// built from it.
struct FleetDieConfig {
  EngineConfig engine;
  double cost = 1.0;
  std::string label;  ///< shown in reports; e.g. "A", "E", "big"
};

/// A cluster's die lineup: the distinct configs and each die's pick.
struct FleetSpec {
  std::vector<FleetDieConfig> configs;
  /// Die d runs configs[assignment[d]]. Size = fleet size.
  std::vector<std::size_t> assignment;

  std::size_t die_count() const { return assignment.size(); }

  /// Summed per-die cost — the provisioning spend of the whole lineup.
  double total_cost() const;

  /// Die labels concatenated in die order (e.g. "EEAA"); dies whose config
  /// has an empty or multi-character label are joined with '+' separators.
  std::string mix_label() const;

  /// Throws unless the spec is well-formed: at least one die, every
  /// assignment in range, every config validate()s, costs finite and
  /// non-negative.
  void validate() const;

  /// Every die runs the same config — semantically the plain cluster.
  static FleetSpec homogeneous(EngineConfig engine, std::size_t dies,
                               double cost = 1.0, std::string label = "");

  /// One die per letter, each a paper design point ('A'..'E', see
  /// EngineConfig::design_point): "EEAA" = two flexible-MAC dies + two
  /// design-A dies. Costs are MAC-count-relative to design A (A=1.0,
  /// B=1.25, C=1.5, D=1.75, E=1.1875); equal letters share one config.
  static FleetSpec from_designs(const std::string& letters,
                                bool large_dataset = false);
};

}  // namespace gnnie::serve
