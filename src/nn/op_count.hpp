// Analytic operation counts of one GNN forward pass on a graph: weighting
// MACs (layer 0 skips zero input features), aggregation MACs over edges
// plus self loops, GraphSAGE max-pool comparisons and special-function
// ops, with total_ops() under the 1 MAC = 2 ops TOPS convention. A
// standalone workload-size calculator, pinned by tests/test_nn.cpp; the
// Fig. 12 software baselines (baselines/sw_platform.hpp) and Table IV's
// effective TOPS (InferenceReport::effective_tops) count their own
// operations.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "graph/csr.hpp"
#include "nn/model.hpp"
#include "sparse/sparse_matrix.hpp"

namespace gnnie {

struct OpProfile {
  Ops weighting_macs = 0;    ///< MACs in feature transforms / MLP linears
  Ops aggregation_macs = 0;  ///< scale+add work over edges (incl. self loops)
  Ops compare_ops = 0;       ///< max-pooling comparisons (GraphSAGE)
  Ops special_ops = 0;       ///< exp / divide / LeakyReLU (GAT, DiffPool softmax)
  std::uint64_t edges_processed = 0;  ///< edge visits incl. self loops, summed over layers
  std::uint64_t weight_elements = 0;  ///< total weight-matrix elements
  std::uint64_t input_feature_nnz = 0;

  /// Total arithmetic operations with 1 MAC = 2 ops (the TOPS convention).
  Ops total_ops() const {
    return 2 * (weighting_macs + aggregation_macs) + compare_ops + special_ops;
  }
};

/// Profile for a model on a graph+features pair. `sampled_per_layer` (from
/// sample_neighborhood) refines the GraphSAGE edge counts; if empty, the
/// sample_size cap is applied analytically.
OpProfile op_profile(const ModelConfig& config, const Csr& g, const SparseMatrix& features);

}  // namespace gnnie
