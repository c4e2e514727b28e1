// HyGCN cycle model (Yan et al., HPCA 2020) — the two-engine comparator of
// Fig. 13. Built from its published architecture and the structural
// disadvantages §VII identifies:
//   * Aggregation engine (32 SIMD16 cores @ 1 GHz) consolidates neighbor
//     features BEFORE combination, i.e. computes (Ã·H)·W — aggregation runs
//     at the INPUT feature width, an order of magnitude more work than
//     GNNIE's Ã·(H·W) for wide inputs.
//   * Window sliding/shrinking sharding has limited reuse on highly sparse
//     adjacency matrices, so a large share of neighbor traffic re-fetches.
//   * Combination engine (systolic arrays) cannot skip input zeros; the
//     inter-engine pipeline stalls on workload imbalance.
// HyGCN supports GCN/GraphSAGE/GINConv but not GAT/DiffPool softmax.
#pragma once

#include "common/units.hpp"
#include "graph/csr.hpp"
#include "nn/model.hpp"
#include "sparse/sparse_matrix.hpp"

namespace gnnie {

/// HyGCN's reported power at 12 nm, for the Fig. 15 energy comparison. The
/// rest of its published design point is fixed in hygcn.cpp.
inline constexpr double kHygcnPowerW = 6.7;

struct HygcnReport {
  Cycles aggregation_cycles = 0;
  Cycles combination_cycles = 0;
  Cycles total_cycles = 0;
  Bytes dram_bytes = 0;
  Seconds runtime_seconds = 0.0;
};

class HygcnModel {
 public:
  static bool supports(GnnKind kind);

  /// Predicts one inference; throws std::invalid_argument for GAT/DiffPool
  /// (no softmax-over-neighborhood support — §VII).
  HygcnReport run(const ModelConfig& model, const Csr& g, const SparseMatrix& features) const;
};

}  // namespace gnnie
