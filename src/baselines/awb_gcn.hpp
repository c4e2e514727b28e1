// AWB-GCN cycle model (Geng et al., MICRO 2020) — the SpMM comparator of
// Fig. 13. Built from its published design and the §VII critique:
//   * GCN only: the computation is two chained SpMMs,
//     S1 = X·W (ultra-sparse × dense) and S2 = Ã·S1.
//   * 4096 MACs with runtime workload autotuning: utilization climbs over
//     rebalancing rounds but the rebalancing itself is inter-PE
//     communication overhead.
//   * Graph-agnostic SpMM: the adjacency matrix streams from DRAM per
//     output tile with no degree-aware reuse.
#pragma once

#include "common/units.hpp"
#include "graph/csr.hpp"
#include "nn/model.hpp"
#include "sparse/sparse_matrix.hpp"

namespace gnnie {

/// AWB-GCN's MAC count and reported power (Figs. 13 and 15). The rest of
/// its published design point is fixed in awb_gcn.cpp.
inline constexpr std::uint32_t kAwbGcnMacs = 4096;
inline constexpr double kAwbGcnPowerW = 9.5;

struct AwbGcnReport {
  Cycles spmm1_cycles = 0;  ///< X·W
  Cycles spmm2_cycles = 0;  ///< Ã·(XW)
  Cycles total_cycles = 0;
  Bytes dram_bytes = 0;
  Seconds runtime_seconds = 0.0;
};

class AwbGcnModel {
 public:
  static bool supports(GnnKind kind) { return kind == GnnKind::kGcn; }

  /// Throws std::invalid_argument for anything but GCN (§VII).
  AwbGcnReport run(const ModelConfig& model, const Csr& g,
                   const SparseMatrix& features) const;
};

}  // namespace gnnie
