// Tests for graph/feature serialization: text edge lists (parsing rules,
// error paths) and the binary container (exact roundtrip, corruption
// detection).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "datasets/synthetic.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"

namespace gnnie {
namespace {

void expect_same_graph(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (VertexId v = 0; v < a.vertex_count(); ++v) {
    auto na = a.neighbors(v);
    auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "vertex " << v;
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

void expect_same_features(const SparseMatrix& a, const SparseMatrix& b) {
  ASSERT_EQ(a.row_count(), b.row_count());
  ASSERT_EQ(a.col_count(), b.col_count());
  for (std::size_t r = 0; r < a.row_count(); ++r) {
    ASSERT_EQ(a.row(r).nnz(), b.row(r).nnz()) << "row " << r;
    for (std::size_t i = 0; i < a.row(r).nnz(); ++i) {
      EXPECT_EQ(a.row(r).indices()[i], b.row(r).indices()[i]);
      EXPECT_EQ(a.row(r).values()[i], b.row(r).values()[i]);
    }
  }
}

TEST(EdgeList, ParsesPairsAndComments) {
  std::istringstream in("# a comment\n0 1\n\n1 2\n  # indented comment\n2 0\n");
  Csr g = read_edge_list(in);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 6u);  // symmetrized triangle
}

TEST(EdgeList, NoSymmetrizeKeepsDirection) {
  std::istringstream in("0 1\n1 2\n");
  EdgeListOptions opt;
  opt.symmetrize = false;
  Csr g = read_edge_list(in, opt);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(EdgeList, SelfLoopsRemovedByDefault) {
  std::istringstream in("0 0\n0 1\n");
  Csr g = read_edge_list(in);
  EXPECT_EQ(g.edge_count(), 2u);  // only 0-1 both ways
}

TEST(EdgeList, ExplicitVertexCountAddsIsolated) {
  std::istringstream in("0 1\n");
  EdgeListOptions opt;
  opt.vertex_count = 10;
  Csr g = read_edge_list(in, opt);
  EXPECT_EQ(g.vertex_count(), 10u);
  EXPECT_EQ(g.degree(9), 0u);
}

TEST(EdgeList, RejectsMalformedLines) {
  std::istringstream bad1("0 x\n");
  EXPECT_THROW(read_edge_list(bad1), std::invalid_argument);
  std::istringstream bad2("-1 2\n");
  EXPECT_THROW(read_edge_list(bad2), std::invalid_argument);
  std::istringstream bad3("42\n");
  EXPECT_THROW(read_edge_list(bad3), std::invalid_argument);
}

TEST(EdgeList, RejectsIdsBeyondDeclaredCount) {
  std::istringstream in("0 7\n");
  EdgeListOptions opt;
  opt.vertex_count = 4;
  EXPECT_THROW(read_edge_list(in, opt), std::invalid_argument);
}

/// The invalid_argument message read_edge_list throws on `text` ("" if none).
std::string edge_list_error(const std::string& text) {
  std::istringstream in(text);
  try {
    read_edge_list(in);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(EdgeList, RejectsIdsBeyondTheVertexIdRangeWithTheLineNumber) {
  // 4294967297 = 2^32 + 1 would truncate to vertex 1 as a 32-bit VertexId.
  const std::string error = edge_list_error("0 1\n# comment\n0 4294967297\n");
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(EdgeList, RejectsTheMaxVertexIdWhoseCountWouldWrap) {
  // max id + 1 would wrap the 32-bit vertex count to 0.
  const std::string error = edge_list_error("4294967295 0\n");
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  // One below is the largest id that still has a representable count.
  std::istringstream ok("0 1\n");
  EXPECT_EQ(read_edge_list(ok).vertex_count(), 2u);
}

TEST(EdgeList, EmptyInputGivesEmptyGraph) {
  std::istringstream in("# nothing\n");
  Csr g = read_edge_list(in);
  EXPECT_EQ(g.vertex_count(), 0u);
}

TEST(EdgeList, WriteReadRoundtrip) {
  Dataset d = generate_dataset(spec_of(DatasetId::kCora).scaled(0.05), 3);
  std::stringstream s;
  write_edge_list(s, d.graph);
  EdgeListOptions opt;
  opt.symmetrize = false;  // already symmetric on disk
  opt.vertex_count = d.graph.vertex_count();
  Csr back = read_edge_list(s, opt);
  expect_same_graph(d.graph, back);
}

TEST(Binary, StreamRoundtrip) {
  Dataset d = generate_dataset(spec_of(DatasetId::kCiteseer).scaled(0.05), 5);
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(s, d.graph, d.features);
  Csr g;
  SparseMatrix f;
  read_binary(s, g, f);
  expect_same_graph(d.graph, g);
  expect_same_features(d.features, f);
}

TEST(Binary, EmptyFeaturesAllowed) {
  GraphBuilder b(3);
  b.add_edge(0, 1).symmetrize();
  Csr g = b.build();
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(s, g, SparseMatrix{});
  Csr g2;
  SparseMatrix f2;
  read_binary(s, g2, f2);
  expect_same_graph(g, g2);
  EXPECT_EQ(f2.row_count(), 0u);
}

TEST(Binary, RejectsWrongMagic) {
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  s << "NOTGNNIE-garbage";
  Csr g;
  SparseMatrix f;
  EXPECT_THROW(read_binary(s, g, f), std::invalid_argument);
}

TEST(Binary, RejectsTruncatedStream) {
  Dataset d = generate_dataset(spec_of(DatasetId::kCora).scaled(0.02), 1);
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(s, d.graph, d.features);
  std::string whole = s.str();
  std::stringstream cut(whole.substr(0, whole.size() / 2),
                        std::ios::in | std::ios::binary);
  Csr g;
  SparseMatrix f;
  EXPECT_THROW(read_binary(cut, g, f), std::invalid_argument);
}

TEST(Binary, HugeDeclaredArrayInAShortStreamIsTruncationNotAnAllocation) {
  // 20 bytes: magic, vertex count, then an offset array declaring 2^35
  // entries (256 GiB) that never arrive.
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  s.write("GNNIE1\0\0", 8);
  const std::uint32_t vertices = 4;
  const std::uint64_t declared = std::uint64_t{1} << 35;
  s.write(reinterpret_cast<const char*>(&vertices), sizeof(vertices));
  s.write(reinterpret_cast<const char*>(&declared), sizeof(declared));
  ASSERT_EQ(s.str().size(), 20u);
  Csr g;
  SparseMatrix f;
  EXPECT_THROW(read_binary(s, g, f), std::invalid_argument);
}

TEST(Binary, RejectsNonFiniteFeatureValues) {
  GraphBuilder b(2);
  b.add_edge(0, 1).symmetrize();
  const Csr g = b.build();
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    std::vector<SparseRow> rows;
    rows.emplace_back(std::vector<std::uint32_t>{1}, std::vector<float>{bad}, 4);
    rows.emplace_back(std::vector<std::uint32_t>{0}, std::vector<float>{1.0f}, 4);
    std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
    write_binary(s, g, SparseMatrix(std::move(rows), 4));
    Csr g2;
    SparseMatrix f2;
    EXPECT_THROW(read_binary(s, g2, f2), std::invalid_argument) << bad;
  }
}

TEST(Binary, FileRoundtrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnnie_io_test.bin").string();
  Dataset d = generate_dataset(spec_of(DatasetId::kPubmed).scaled(0.01), 7);
  write_binary_file(path, d.graph, d.features);
  Csr g;
  SparseMatrix f;
  read_binary_file(path, g, f);
  expect_same_graph(d.graph, g);
  expect_same_features(d.features, f);
  std::remove(path.c_str());
}

TEST(Binary, MissingFileThrows) {
  Csr g;
  SparseMatrix f;
  EXPECT_THROW(read_binary_file("/nonexistent/gnnie.bin", g, f), std::invalid_argument);
}

}  // namespace
}  // namespace gnnie
