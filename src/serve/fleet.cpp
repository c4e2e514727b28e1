#include "serve/fleet.hpp"

#include <cmath>
#include <map>

#include "common/require.hpp"

namespace gnnie::serve {

double FleetSpec::total_cost() const {
  double cost = 0.0;
  for (std::size_t c : assignment) cost += configs[c].cost;
  return cost;
}

std::string FleetSpec::mix_label() const {
  bool single_char = true;
  for (const FleetDieConfig& c : configs) {
    if (c.label.size() != 1) single_char = false;
  }
  std::string mix;
  for (std::size_t d = 0; d < assignment.size(); ++d) {
    const std::string& label = configs[assignment[d]].label;
    if (single_char) {
      mix += label;
    } else {
      if (d > 0) mix += '+';
      mix += label.empty() ? "?" : label;
    }
  }
  return mix;
}

void FleetSpec::validate() const {
  GNNIE_REQUIRE(!configs.empty(), "a fleet needs at least one die config");
  GNNIE_REQUIRE(!assignment.empty(), "a fleet needs at least one die");
  for (const FleetDieConfig& c : configs) {
    // A fleet's cost is reported and written to JSON, where inf has no
    // spelling; NaN fails the comparison too.
    GNNIE_REQUIRE(std::isfinite(c.cost) && c.cost >= 0.0,
                  "a die config cost must be finite and non-negative");
    c.engine.validate();
  }
  for (std::size_t c : assignment) {
    GNNIE_REQUIRE(c < configs.size(), "die assignment references a missing config");
  }
}

FleetSpec FleetSpec::homogeneous(EngineConfig engine, std::size_t dies,
                                 double cost, std::string label) {
  GNNIE_REQUIRE(dies >= 1, "a fleet needs at least one die");
  FleetSpec spec;
  if (label.empty()) label = engine.array.name();
  spec.configs.push_back({std::move(engine), cost, std::move(label)});
  spec.assignment.assign(dies, 0);
  return spec;
}

FleetSpec FleetSpec::from_designs(const std::string& letters, bool large_dataset) {
  GNNIE_REQUIRE(!letters.empty(), "a fleet needs at least one die");
  FleetSpec spec;
  std::map<char, std::size_t> config_of;  // letter -> index into configs
  for (char letter : letters) {
    auto it = config_of.find(letter);
    if (it == config_of.end()) {
      FleetDieConfig cfg;
      cfg.engine = EngineConfig::design_point(letter, large_dataset);
      // MAC-count-relative cost: design A's 1024 MACs are the unit.
      cfg.cost = static_cast<double>(cfg.engine.array.total_macs()) / 1024.0;
      cfg.label = std::string(1, letter);
      it = config_of.emplace(letter, spec.configs.size()).first;
      spec.configs.push_back(std::move(cfg));
    }
    spec.assignment.push_back(it->second);
  }
  return spec;
}

}  // namespace gnnie::serve
