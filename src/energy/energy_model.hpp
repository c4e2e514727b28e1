// Energy model (RTL/CACTI substitute). Per-op and per-byte
// energies at a 32 nm-class node (constants in energy_model.cpp; DRAM
// traffic costs HbmConfig::energy_pj_per_bit), calibrated so a sustained
// GNNIE run lands at the paper's reported 3.9 W @ 1.3 GHz envelope.
// Produces the Fig. 14 breakdown (DRAM traffic per on-chip buffer + compute
// + leakage) and the Fig. 15 inferences/kJ comparison inputs.
#pragma once

#include "common/units.hpp"
#include "core/report.hpp"

namespace gnnie {

struct EnergyBreakdown {
  Joules mac = 0.0;
  Joules sfu = 0.0;
  Joules spad = 0.0;
  Joules input_buffer = 0.0;
  Joules output_buffer = 0.0;
  Joules weight_buffer = 0.0;
  Joules dram_input = 0.0;   ///< DRAM traffic serving the input buffer
  Joules dram_output = 0.0;  ///< … the output buffer (psum spills dominate)
  Joules dram_weight = 0.0;
  Joules leakage = 0.0;

  Joules total() const;
  Joules dram_total() const { return dram_input + dram_output + dram_weight; }
  Joules on_chip_total() const;
};

/// Energy of one inference from its report.
EnergyBreakdown compute_energy(const InferenceReport& report);

/// Average power over the inference (total energy / runtime).
double average_power_w(const EnergyBreakdown& e, const InferenceReport& report);

/// Fig. 15 metric.
double inferences_per_kilojoule(const EnergyBreakdown& e);
/// For the fixed-power comparators (HyGCN 6.7 W, AWB-GCN): energy = P·t.
double inferences_per_kilojoule(double power_w, Seconds runtime);

}  // namespace gnnie
