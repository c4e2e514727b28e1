#include "sparse/sparse_matrix.hpp"

#include <utility>

#include "common/require.hpp"

namespace gnnie {

SparseRow::SparseRow(std::vector<std::uint32_t> indices, std::vector<float> values,
                     std::uint32_t length)
    : indices_(std::move(indices)), values_(std::move(values)), length_(length) {
  GNNIE_REQUIRE(indices_.size() == values_.size(), "indices/values size mismatch");
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    GNNIE_REQUIRE(indices_[i] < length_, "sparse index out of range");
    if (i > 0) GNNIE_REQUIRE(indices_[i - 1] < indices_[i], "indices must be strictly increasing");
  }
}

SparseRow SparseRow::from_dense(std::span<const float> dense) {
  std::vector<std::uint32_t> idx;
  std::vector<float> val;
  for (std::uint32_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0f) {
      idx.push_back(i);
      val.push_back(dense[i]);
    }
  }
  return SparseRow(std::move(idx), std::move(val), static_cast<std::uint32_t>(dense.size()));
}

std::vector<float> SparseRow::to_dense() const {
  std::vector<float> out(length_, 0.0f);
  for (std::size_t i = 0; i < indices_.size(); ++i) out[indices_[i]] = values_[i];
  return out;
}

double SparseRow::sparsity() const {
  if (length_ == 0) return 1.0;
  return 1.0 - static_cast<double>(nnz()) / static_cast<double>(length_);
}

SparseMatrix::SparseMatrix(std::vector<SparseRow> rows, std::uint32_t cols)
    : rows_(std::move(rows)), cols_(cols) {
  for (const SparseRow& r : rows_) {
    GNNIE_REQUIRE(r.length() == cols_, "all rows must share the matrix width");
  }
}

std::uint64_t SparseMatrix::total_nnz() const {
  std::uint64_t n = 0;
  for (const SparseRow& r : rows_) n += r.nnz();
  return n;
}

double SparseMatrix::sparsity() const {
  const double cells = static_cast<double>(rows_.size()) * static_cast<double>(cols_);
  if (cells == 0.0) return 1.0;
  return 1.0 - static_cast<double>(total_nnz()) / cells;
}

std::vector<float> SparseMatrix::to_dense() const {
  std::vector<float> out(rows_.size() * cols_, 0.0f);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const SparseRow& row = rows_[r];
    for (std::size_t i = 0; i < row.nnz(); ++i) {
      out[r * cols_ + row.indices()[i]] = row.values()[i];
    }
  }
  return out;
}

}  // namespace gnnie
