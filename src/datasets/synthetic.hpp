// Stat-matched synthetic dataset generation (substitute for the paper's
// real datasets).
//
// Graphs: Chung–Lu model. Each vertex gets a power-law weight; undirected
// edges are drawn with endpoint probability proportional to weight until the
// target unique-pair count is reached, then mirrored so the directed edge
// count matches Table II. This reproduces the two graph properties GNNIE's
// mechanisms key on: heavy-tailed degree distributions and extreme adjacency
// sparsity.
//
// Features: per-vertex nonzero counts are drawn from a two-component
// mixture ("Region A" sparse / "Region B" denser, Fig. 2) whose mean matches
// the Table II sparsity; nonzero positions follow the spec's Zipfian index
// popularity (DatasetSpec::feature_zipf_s), values are positive
// (bag-of-words-like).
#pragma once

#include <cstdint>

#include "datasets/spec.hpp"
#include "graph/csr.hpp"
#include "sparse/sparse_matrix.hpp"

namespace gnnie {

struct Dataset {
  DatasetSpec spec;      ///< the (possibly scaled) spec this was generated from
  Csr graph;             ///< undirected: every edge appears in both directions
  SparseMatrix features; ///< |V| × feature_length input features
};

/// Generates the graph only (no features). Deterministic in (spec, seed).
Csr generate_graph(const DatasetSpec& spec, std::uint64_t seed);

/// Generates the feature matrix only. Deterministic in (spec, seed).
SparseMatrix generate_features(const DatasetSpec& spec, std::uint64_t seed);

/// Full dataset: graph + features (seeds derived from `seed`).
Dataset generate_dataset(const DatasetSpec& spec, std::uint64_t seed = 1);

/// Convenience: Table II dataset by id, optionally scaled.
Dataset generate_dataset(DatasetId id, double scale = 1.0, std::uint64_t seed = 1);

}  // namespace gnnie
