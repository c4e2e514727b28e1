// CPE/MPE array configuration (§III, §VIII-A) and the design points of the
// evaluation:
//   Design A — 4 MACs/CPE uniform (1024 MACs): the baseline of §VIII-E.
//   Designs B/C/D — 5/6/7 MACs/CPE uniform (1280/1536/1792 MACs).
//   Design E — GNNIE's flexible MAC (FM): rows 1–8 → 4, rows 9–12 → 5,
//              rows 13–16 → 6 (1216 MACs), chosen by design-space
//              exploration in the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gnnie {

struct ArrayConfig {
  /// The 16 × 16 CPE array of every design point (§VIII-A).
  static constexpr std::uint32_t rows = 16;
  static constexpr std::uint32_t cols = 16;
  /// MACs per CPE for each row; size == rows, nondecreasing for FM designs.
  /// Rows with equal MAC count form one flexible-MAC binning group
  /// (row_groups(); uniform designs have one group).
  std::vector<std::uint32_t> macs_per_row;
  /// Partial-sum slots per MPE: the in-flight vertices an MPE can track.
  /// Fast rows running further ahead stall the array and spill psums
  /// (§IV-C, core/weighting.cpp).
  std::uint32_t psum_slots_per_mpe = 16;

  std::uint32_t total_macs() const;
  std::uint32_t total_cpes() const { return rows * cols; }
  std::uint32_t macs_in_row(std::uint32_t row) const;

  /// Rows grouped by equal MAC count, in row order. Each entry lists the
  /// row indices of one group (used by the FM workload binning, §IV-C).
  std::vector<std::vector<std::uint32_t>> row_groups() const;

  /// Validates shape invariants (throws on violation).
  void validate() const;

  static ArrayConfig design_a();  ///< 4 MACs/CPE uniform
  static ArrayConfig design_b();  ///< 5 MACs/CPE uniform
  static ArrayConfig design_c();  ///< 6 MACs/CPE uniform
  static ArrayConfig design_d();  ///< 7 MACs/CPE uniform
  static ArrayConfig design_e();  ///< GNNIE flexible MAC 4/5/6
  static ArrayConfig uniform(std::uint32_t macs_per_cpe);

  std::string name() const;  ///< "A".."E" when recognized, else "custom"
};

}  // namespace gnnie
