// Edge-list → CSR construction with the cleanup steps every loader needs:
// duplicate removal, optional symmetrization (GNN datasets are undirected),
// optional self-loop removal, and neighbor-list sorting.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace gnnie {

struct Edge {
  VertexId src;
  VertexId dst;
  friend bool operator==(const Edge&, const Edge&) = default;
};

class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId vertex_count);

  VertexId vertex_count() const { return vertex_count_; }
  std::size_t pending_edges() const { return edges_.size(); }

  GraphBuilder& add_edge(VertexId src, VertexId dst);
  GraphBuilder& add_edges(const std::vector<Edge>& edges);

  /// Mirror every (u,v) as (v,u). Idempotent with dedupe at build().
  GraphBuilder& symmetrize();
  GraphBuilder& remove_self_loops();

  /// Sorts, dedupes, and emits CSR. The builder may be reused afterwards.
  Csr build() const;

 private:
  VertexId vertex_count_;
  std::vector<Edge> edges_;
};

}  // namespace gnnie
