#include "graph/io.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/require.hpp"
#include "graph/builder.hpp"

namespace gnnie {
namespace {

constexpr char kMagic[8] = {'G', 'N', 'N', 'I', 'E', '1', '\0', '\0'};

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  GNNIE_REQUIRE(static_cast<bool>(in), "truncated binary stream");
  return value;
}

template <typename T>
void write_vec(std::ostream& out, const std::vector<T>& v) {
  write_pod<std::uint64_t>(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vec(std::istream& in, std::uint64_t sanity_limit) {
  const auto n = read_pod<std::uint64_t>(in);
  GNNIE_REQUIRE(n <= sanity_limit, "binary stream declares an implausible array size");
  // Grow in bounded chunks as bytes arrive, so a header declaring a huge
  // array in a short stream fails as truncated instead of allocating the
  // declared size up front.
  constexpr std::uint64_t kChunk = (std::uint64_t{1} << 20) / sizeof(T);
  std::vector<T> v;
  while (v.size() < n) {
    const std::size_t at = v.size();
    const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, n - at));
    v.resize(at + take);
    in.read(reinterpret_cast<char*>(v.data() + at), static_cast<std::streamsize>(take * sizeof(T)));
    GNNIE_REQUIRE(static_cast<bool>(in), "truncated binary stream");
  }
  return v;
}

}  // namespace

Csr read_edge_list(std::istream& in, const EdgeListOptions& options) {
  std::vector<Edge> edges;
  VertexId max_id = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    long long src = -1, dst = -1;
    if (!(ls >> src >> dst) || src < 0 || dst < 0) {
      throw std::invalid_argument("malformed edge list at line " + std::to_string(line_no) +
                                  ": '" + line + "'");
    }
    // The vertex count is max id + 1, so the largest VertexId itself is
    // out of range too: it would wrap the count to 0.
    constexpr long long kIdLimit = std::numeric_limits<VertexId>::max();
    if (src >= kIdLimit || dst >= kIdLimit) {
      throw std::invalid_argument("vertex id out of range at line " + std::to_string(line_no) +
                                  ": '" + line + "' (ids must be below " +
                                  std::to_string(kIdLimit) + ")");
    }
    edges.push_back({static_cast<VertexId>(src), static_cast<VertexId>(dst)});
    max_id = std::max({max_id, edges.back().src, edges.back().dst});
  }
  const VertexId v_count =
      options.vertex_count > 0 ? options.vertex_count : (edges.empty() ? 0 : max_id + 1);
  GNNIE_REQUIRE(options.vertex_count == 0 || max_id < v_count,
                "edge list references vertices beyond the declared vertex count");
  GraphBuilder b(v_count);
  b.add_edges(edges);
  if (options.remove_self_loops) b.remove_self_loops();
  if (options.symmetrize) b.symmetrize();
  return b.build();
}

Csr read_edge_list_file(const std::string& path, const EdgeListOptions& options) {
  std::ifstream in(path);
  GNNIE_REQUIRE(in.good(), "cannot open edge list file: " + path);
  return read_edge_list(in, options);
}

void write_edge_list(std::ostream& out, const Csr& g) {
  out << "# gnnie edge list: " << g.vertex_count() << " vertices, " << g.edge_count()
      << " directed edges\n";
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    for (VertexId n : g.neighbors(v)) out << v << ' ' << n << '\n';
  }
}

void write_binary(std::ostream& out, const Csr& g, const SparseMatrix& features) {
  GNNIE_REQUIRE(features.row_count() == g.vertex_count() || features.row_count() == 0,
                "feature rows must match vertex count (or be empty)");
  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(out, g.vertex_count());
  write_vec(out, std::vector<EdgeId>(g.offsets().begin(), g.offsets().end()));
  write_vec(out, std::vector<VertexId>(g.neighbor_array().begin(), g.neighbor_array().end()));
  write_pod<std::uint32_t>(out, features.col_count());
  write_pod<std::uint64_t>(out, features.row_count());
  for (std::size_t r = 0; r < features.row_count(); ++r) {
    const SparseRow& row = features.row(r);
    write_vec(out, std::vector<std::uint32_t>(row.indices().begin(), row.indices().end()));
    write_vec(out, std::vector<float>(row.values().begin(), row.values().end()));
  }
}

void read_binary(std::istream& in, Csr& g, SparseMatrix& features) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  GNNIE_REQUIRE(in.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                "not a GNNIE binary graph file");
  constexpr std::uint64_t kLimit = 1ull << 36;  // 64 Gi entries sanity bound
  const auto v_count = read_pod<std::uint32_t>(in);
  auto offsets = read_vec<EdgeId>(in, kLimit);
  auto neighbors = read_vec<VertexId>(in, kLimit);
  GNNIE_REQUIRE(offsets.size() == static_cast<std::size_t>(v_count) + 1,
                "offset array size mismatch");
  g = Csr(std::move(offsets), std::move(neighbors));

  const auto cols = read_pod<std::uint32_t>(in);
  const auto rows = read_pod<std::uint64_t>(in);
  GNNIE_REQUIRE(rows == 0 || rows == v_count, "feature row count mismatch");
  std::vector<SparseRow> sparse_rows;
  sparse_rows.reserve(rows);
  for (std::uint64_t r = 0; r < rows; ++r) {
    auto idx = read_vec<std::uint32_t>(in, cols);
    auto val = read_vec<float>(in, cols);
    GNNIE_REQUIRE(std::all_of(val.begin(), val.end(), [](float x) { return std::isfinite(x); }),
                  "binary stream holds a non-finite feature value");
    sparse_rows.emplace_back(std::move(idx), std::move(val), cols);
  }
  features = SparseMatrix(std::move(sparse_rows), cols);
}

void write_binary_file(const std::string& path, const Csr& g, const SparseMatrix& features) {
  std::ofstream out(path, std::ios::binary);
  GNNIE_REQUIRE(out.good(), "cannot open file for writing: " + path);
  write_binary(out, g, features);
  GNNIE_REQUIRE(out.good(), "write failed: " + path);
}

void read_binary_file(const std::string& path, Csr& g, SparseMatrix& features) {
  std::ifstream in(path, std::ios::binary);
  GNNIE_REQUIRE(in.good(), "cannot open file: " + path);
  read_binary(in, g, features);
}

}  // namespace gnnie
