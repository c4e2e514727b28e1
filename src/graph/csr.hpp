// Compressed sparse row (CSR) adjacency storage.
//
// This mirrors the representation GNNIE assumes in §VI: an offset array
// (per-vertex start into the coordinate array) and a coordinate array
// (neighbor lists). The property array (weighted vertex features ηw, plus
// {e_i1, e_i2} for GATs) lives with the engine, not here.
//
// The constructor checks the offsets and the id range only. GraphBuilder
// (and read_edge_list, which builds through it) emits each neighbor list
// sorted ascending without duplicates, and a symmetric adjacency when
// asked to symmetrize; read_binary takes the arrays as stored and checks
// neither order nor symmetry. Undirected subgraph aggregation needs both,
// and no self-loops, and rejects a graph without them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gnnie {

using VertexId = std::uint32_t;
using EdgeId = std::uint64_t;

class Csr {
 public:
  Csr() = default;

  /// Takes ownership of prebuilt arrays. offsets.size() must be
  /// vertex_count + 1, offsets.front() == 0, offsets.back() == neighbors.size(),
  /// offsets nondecreasing, and all neighbor ids < vertex_count.
  Csr(std::vector<EdgeId> offsets, std::vector<VertexId> neighbors);

  VertexId vertex_count() const { return vertex_count_; }
  EdgeId edge_count() const { return static_cast<EdgeId>(neighbors_.size()); }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  VertexId degree(VertexId v) const {
    return static_cast<VertexId>(offsets_[v + 1] - offsets_[v]);
  }

  std::span<const EdgeId> offsets() const { return offsets_; }
  std::span<const VertexId> neighbor_array() const { return neighbors_; }

  /// Fraction of zero entries in the dense |V|×|V| adjacency view
  /// (the ">99.8%" sparsity the paper quotes).
  double adjacency_sparsity() const;

  /// Bytes of the CSR arrays themselves (offsets + coordinates), i.e. the
  /// graph's DRAM footprint excluding the property array.
  std::uint64_t storage_bytes() const;

  /// Order-sensitive 64-bit hash of the adjacency structure (FNV-1a over
  /// the offset and coordinate arrays). Used by the serving layer to detect
  /// whether a previously planned graph object still holds the same graph.
  std::uint64_t structure_fingerprint() const;

 private:
  VertexId vertex_count_ = 0;
  std::vector<EdgeId> offsets_{0};
  std::vector<VertexId> neighbors_;
};

}  // namespace gnnie
