// Unit + property tests for src/graph: CSR invariants, builder cleanup,
// degree statistics, and the linear-time degree-descending reorder that
// GNNIE's cache preprocessing relies on (§VI).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/reorder.hpp"
#include "graph/stats.hpp"

namespace gnnie {
namespace {

Csr triangle_plus_tail() {
  // 0-1-2 triangle, 3 hangs off 0; vertex 4 isolated.
  GraphBuilder b(5);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2).add_edge(0, 3);
  b.symmetrize();
  return b.build();
}

TEST(Csr, EmptyGraph) {
  Csr g;
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_DOUBLE_EQ(g.adjacency_sparsity(), 1.0);
}

TEST(Csr, BasicAccessors) {
  Csr g = triangle_plus_tail();
  EXPECT_EQ(g.vertex_count(), 5u);
  EXPECT_EQ(g.edge_count(), 8u);  // 4 undirected edges, both directions
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.degree(4), 0u);
  auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()), (std::vector<VertexId>{1, 2, 3}));
}

TEST(Csr, RejectsMalformedArrays) {
  EXPECT_THROW(Csr({1, 2}, {0}), std::invalid_argument);              // offsets[0] != 0
  EXPECT_THROW(Csr({0, 2}, {0}), std::invalid_argument);              // terminator mismatch
  EXPECT_THROW(Csr({0, 2, 1}, {0, 0}), std::invalid_argument);        // decreasing offsets
  EXPECT_THROW(Csr({0, 1}, {5}), std::invalid_argument);              // neighbor out of range
  EXPECT_THROW(Csr(std::vector<EdgeId>{}, {}), std::invalid_argument);  // empty offsets
}

TEST(Csr, SparsityMatchesDefinition) {
  Csr g = triangle_plus_tail();
  EXPECT_DOUBLE_EQ(g.adjacency_sparsity(), 1.0 - 8.0 / 25.0);
}

TEST(Csr, StorageBytesCountsBothArrays) {
  Csr g = triangle_plus_tail();
  EXPECT_EQ(g.storage_bytes(), 6 * sizeof(EdgeId) + 8 * sizeof(VertexId));
}

TEST(GraphBuilder, DedupesParallelEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(0, 1).add_edge(0, 1);
  Csr g = b.build();
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphBuilder, SymmetrizeMirrorsEveryEdge) {
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  b.symmetrize();
  Csr g = b.build();
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
  EXPECT_EQ(g.neighbors(3)[0], 2u);
}

TEST(GraphBuilder, RemoveSelfLoops) {
  GraphBuilder b(3);
  b.add_edge(0, 0).add_edge(1, 1).add_edge(0, 1);
  b.remove_self_loops();
  Csr g = b.build();
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphBuilder, RejectsOutOfRangeEndpoints) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), std::invalid_argument);
  EXPECT_THROW(b.add_edge(5, 0), std::invalid_argument);
}

TEST(GraphBuilder, NeighborListsSorted) {
  GraphBuilder b(5);
  b.add_edge(0, 4).add_edge(0, 1).add_edge(0, 3).add_edge(0, 2);
  Csr g = b.build();
  auto nb = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(GraphBuilder, BuildIsRepeatable) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2);
  Csr g1 = b.build();
  Csr g2 = b.build();
  EXPECT_EQ(g1.edge_count(), g2.edge_count());
}

TEST(Stats, DegreeVectorAndMoments) {
  Csr g = triangle_plus_tail();
  auto d = degrees(g);
  EXPECT_EQ(d, (std::vector<VertexId>{3, 2, 2, 1, 0}));
  DegreeStats s = compute_degree_stats(g);
  EXPECT_EQ(s.min_degree, 0u);
  EXPECT_EQ(s.max_degree, 3u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 8.0 / 5.0);
}

TEST(Stats, EdgeCoverageBounds) {
  Csr g = triangle_plus_tail();
  EXPECT_DOUBLE_EQ(edge_coverage(g, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(edge_coverage(g, 1.0), 1.0);
  // Top 1 of 5 vertices (20%) is vertex 0 with degree 3 of 8 edges.
  EXPECT_DOUBLE_EQ(edge_coverage(g, 0.2), 3.0 / 8.0);
  EXPECT_THROW(edge_coverage(g, 1.5), std::invalid_argument);
}

TEST(Stats, EmptyGraphIsSafe) {
  Csr g;
  DegreeStats s = compute_degree_stats(g);
  EXPECT_EQ(s.max_degree, 0u);
  EXPECT_DOUBLE_EQ(edge_coverage(g, 0.5), 0.0);
}

TEST(Reorder, BinnedOrderIsPermutation) {
  Csr g = triangle_plus_tail();
  auto order = degree_descending_order(g);
  std::set<VertexId> uniq(order.begin(), order.end());
  EXPECT_EQ(uniq.size(), g.vertex_count());
}

TEST(Reorder, HighDegreeFirstLowDegreeLast) {
  Csr g = triangle_plus_tail();
  auto order = degree_descending_order(g);
  EXPECT_EQ(order.front(), 0u);  // degree 3
  EXPECT_EQ(order.back(), 4u);   // isolated
}

TEST(Reorder, DictionaryTieBreakWithinBin) {
  // Vertices 1 and 2 both have degree 2 → same bin → id order.
  Csr g = triangle_plus_tail();
  auto order = degree_descending_order(g);
  auto pos = order_positions(order);
  EXPECT_LT(pos[1], pos[2]);
}

TEST(Reorder, ExactOrderSortsByDegree) {
  Csr g = triangle_plus_tail();
  auto order = exact_degree_order(g);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(g.degree(order[i - 1]), g.degree(order[i]));
  }
}

TEST(Reorder, BinnedOrderNeverInvertsAcrossBins) {
  // Property: in the binned order, a vertex can only precede another of
  // higher degree if they share a power-of-two degree bin.
  Rng rng(99);
  GraphBuilder b(200);
  for (int e = 0; e < 900; ++e) {
    auto u = static_cast<VertexId>(rng.next_below(200));
    auto v = static_cast<VertexId>(rng.next_below(200));
    if (u != v) b.add_edge(u, v);
  }
  b.symmetrize();
  Csr g = b.build();
  auto order = degree_descending_order(g);
  auto bin_of = [](VertexId d) { return d <= 1 ? 0 : 32 - std::countl_zero(d) - 1; };
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(bin_of(g.degree(order[i - 1])), bin_of(g.degree(order[i])));
  }
}

TEST(Reorder, OrderPositionsInverse) {
  Csr g = triangle_plus_tail();
  auto order = degree_descending_order(g);
  auto pos = order_positions(order);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(pos[order[i]], i);
}

TEST(Reorder, OrderPositionsRejectsNonPermutation) {
  EXPECT_THROW(order_positions({0, 0}), std::invalid_argument);
}

class ReorderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReorderProperty, RandomGraphsKeepPermutationAndMonotoneBins) {
  Rng rng(GetParam());
  const auto n = static_cast<VertexId>(20 + rng.next_below(300));
  GraphBuilder b(n);
  const int edges = static_cast<int>(rng.next_below(4 * n) + 1);
  for (int e = 0; e < edges; ++e) {
    auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n));
    if (u != v) b.add_edge(u, v);
  }
  b.symmetrize();
  Csr g = b.build();
  auto order = degree_descending_order(g);
  ASSERT_EQ(order.size(), g.vertex_count());
  std::set<VertexId> uniq(order.begin(), order.end());
  EXPECT_EQ(uniq.size(), g.vertex_count());
  // The binned order must agree with the exact order on which half a vertex
  // falls into, up to one bin of slack: compare degrees pairwise.
  for (std::size_t i = 1; i < order.size(); ++i) {
    const VertexId prev = g.degree(order[i - 1]);
    const VertexId cur = g.degree(order[i]);
    // prev may be smaller than cur only within the same power-of-two bin.
    if (prev < cur) {
      EXPECT_GE(2 * prev + 2, cur);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace gnnie
