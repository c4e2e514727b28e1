// Degree-aware vertex reordering — GNNIE's Aggregation preprocessing (§VI).
//
// The paper stores vertices contiguously in DRAM in descending order of
// degree *bins* (binning rather than a full sort keeps preprocessing linear
// time), breaking ties in dictionary (vertex-id) order. The cache policy
// then fetches vertices sequentially in that order.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace gnnie {

/// Returns the processing order: order[i] is the vertex id fetched i-th.
/// Vertices are binned by degree (power-of-two bin edges, so high-degree
/// vertices separate from medium/low), bins emitted from highest to lowest,
/// ids ascending within a bin — exactly the paper's "descending degree order
/// of the bins ... ties broken in dictionary order".
std::vector<VertexId> degree_descending_order(const Csr& g);

/// Exact descending-degree order (a stable full sort: ties in id order).
/// The dual cache's layout and pinned-hub order (cache_policy.cpp,
/// cache/alloc.cpp, aggregation.cpp): a pinned region must hold the
/// hottest vertices exactly, which the binned order only approximates.
std::vector<VertexId> exact_degree_order(const Csr& g);

/// Inverse of an order: position[v] = index of vertex v in `order`.
std::vector<VertexId> order_positions(const std::vector<VertexId>& order);

}  // namespace gnnie
