// Row-sparse feature storage: one (indices, values) pair per vertex.
// Input-layer vertex feature matrices are ultra-sparse (90–99% in Table II),
// so dense storage for e.g. Reddit (233k × 602) would waste memory and hide
// the nnz structure the load balancer schedules around.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gnnie {

class SparseRow {
 public:
  SparseRow() = default;
  SparseRow(std::vector<std::uint32_t> indices, std::vector<float> values,
            std::uint32_t length);

  static SparseRow from_dense(std::span<const float> dense);
  std::vector<float> to_dense() const;

  std::uint32_t length() const { return length_; }
  std::size_t nnz() const { return indices_.size(); }
  double sparsity() const;

  std::span<const std::uint32_t> indices() const { return indices_; }
  std::span<const float> values() const { return values_; }

 private:
  std::vector<std::uint32_t> indices_;  // strictly increasing
  std::vector<float> values_;
  std::uint32_t length_ = 0;
};

/// A vertex-major sparse matrix: rows().size() == vertex count, all rows the
/// same length (the feature dimension).
class SparseMatrix {
 public:
  SparseMatrix() = default;
  SparseMatrix(std::vector<SparseRow> rows, std::uint32_t cols);

  std::size_t row_count() const { return rows_.size(); }
  std::uint32_t col_count() const { return cols_; }
  const SparseRow& row(std::size_t i) const { return rows_.at(i); }

  std::uint64_t total_nnz() const;
  double sparsity() const;

  /// Dense row-major copy (row_count × col_count), for reference math.
  std::vector<float> to_dense() const;

 private:
  std::vector<SparseRow> rows_;
  std::uint32_t cols_ = 0;
};

}  // namespace gnnie
