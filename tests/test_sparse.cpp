// Unit tests for src/sparse: sparse row/matrix invariants.
#include <gtest/gtest.h>

#include <vector>

#include "sparse/sparse_matrix.hpp"

namespace gnnie {
namespace {

TEST(SparseRow, FromDenseRoundtrip) {
  const std::vector<float> v{0, 1.0f, 0, 0, -2.0f, 0};
  SparseRow r = SparseRow::from_dense(v);
  EXPECT_EQ(r.nnz(), 2u);
  EXPECT_EQ(r.length(), 6u);
  EXPECT_EQ(r.to_dense(), v);
}

TEST(SparseRow, SparsityFraction) {
  SparseRow r = SparseRow::from_dense(std::vector<float>{1, 0, 0, 0});
  EXPECT_DOUBLE_EQ(r.sparsity(), 0.75);
  SparseRow empty;
  EXPECT_DOUBLE_EQ(empty.sparsity(), 1.0);
}

TEST(SparseRow, RejectsUnsortedOrOutOfRangeIndices) {
  EXPECT_THROW(SparseRow({3, 1}, {1.0f, 2.0f}, 5), std::invalid_argument);
  EXPECT_THROW(SparseRow({1, 1}, {1.0f, 2.0f}, 5), std::invalid_argument);
  EXPECT_THROW(SparseRow({7}, {1.0f}, 5), std::invalid_argument);
  EXPECT_THROW(SparseRow({1}, {1.0f, 2.0f}, 5), std::invalid_argument);
}

TEST(SparseMatrix, TotalsAndDense) {
  std::vector<SparseRow> rows;
  rows.push_back(SparseRow::from_dense(std::vector<float>{1, 0, 0}));
  rows.push_back(SparseRow::from_dense(std::vector<float>{0, 2, 3}));
  SparseMatrix m(std::move(rows), 3);
  EXPECT_EQ(m.row_count(), 2u);
  EXPECT_EQ(m.total_nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.sparsity(), 0.5);
  EXPECT_EQ(m.to_dense(), (std::vector<float>{1, 0, 0, 0, 2, 3}));
}

TEST(SparseMatrix, RejectsRaggedRows) {
  std::vector<SparseRow> rows;
  rows.push_back(SparseRow::from_dense(std::vector<float>{1, 0}));
  rows.push_back(SparseRow::from_dense(std::vector<float>{1, 0, 0}));
  EXPECT_THROW(SparseMatrix(std::move(rows), 2), std::invalid_argument);
}

TEST(SparseMatrix, EmptyMatrix) {
  SparseMatrix m;
  EXPECT_EQ(m.row_count(), 0u);
  EXPECT_DOUBLE_EQ(m.sparsity(), 1.0);
}

}  // namespace
}  // namespace gnnie
