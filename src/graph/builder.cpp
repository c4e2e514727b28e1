#include "graph/builder.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace gnnie {

GraphBuilder::GraphBuilder(VertexId vertex_count) : vertex_count_(vertex_count) {}

GraphBuilder& GraphBuilder::add_edge(VertexId src, VertexId dst) {
  GNNIE_REQUIRE(src < vertex_count_ && dst < vertex_count_, "edge endpoint out of range");
  edges_.push_back({src, dst});
  return *this;
}

GraphBuilder& GraphBuilder::add_edges(const std::vector<Edge>& edges) {
  for (const Edge& e : edges) add_edge(e.src, e.dst);
  return *this;
}

GraphBuilder& GraphBuilder::symmetrize() {
  const std::size_t n = edges_.size();
  edges_.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (edges_[i].src != edges_[i].dst) edges_.push_back({edges_[i].dst, edges_[i].src});
  }
  return *this;
}

GraphBuilder& GraphBuilder::remove_self_loops() {
  std::erase_if(edges_, [](const Edge& e) { return e.src == e.dst; });
  return *this;
}

Csr GraphBuilder::build() const {
  std::vector<Edge> sorted = edges_;
  std::sort(sorted.begin(), sorted.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  std::vector<EdgeId> offsets(static_cast<std::size_t>(vertex_count_) + 1, 0);
  for (const Edge& e : sorted) ++offsets[e.src + 1];
  for (std::size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];

  std::vector<VertexId> neighbors(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) neighbors[i] = sorted[i].dst;
  return Csr(std::move(offsets), std::move(neighbors));
}

}  // namespace gnnie
