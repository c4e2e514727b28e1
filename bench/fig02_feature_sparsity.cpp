// Fig. 2 — nonzero histogram of input vertex feature vectors (Cora).
// The paper's point: per-vertex nnz is bimodal (sparse Region A vs denser
// Region B), the root cause of weighting-time load imbalance.
#include <cstdio>

#include "bench_util.hpp"
#include "common/histogram.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv, bench::BenchFlags::kSeed);

  bench::print_banner("Fig. 2: Nonzero histogram for input vertex feature vectors (Cora)",
                      "bimodal: sparse Region A (majority) + denser Region B; "
                      "98.73% average sparsity");

  const DatasetSpec& cr = spec_of(DatasetId::kCora);
  SparseMatrix f = generate_features(cr, opt.seed);

  double max_nnz = 0.0;
  for (std::size_t v = 0; v < f.row_count(); ++v) {
    max_nnz = std::max(max_nnz, static_cast<double>(f.row(v).nnz()));
  }
  Histogram h(0.0, max_nnz + 1.0, 30);
  for (std::size_t v = 0; v < f.row_count(); ++v) {
    h.add(static_cast<double>(f.row(v).nnz()));
  }
  std::printf("%s", h.render(60).c_str());
  std::printf("\nvertices=%zu  mean nnz=%.1f  sparsity=%.4f (paper: %.4f)\n", f.row_count(),
              h.mean(), f.sparsity(), cr.feature_sparsity);
  return 0;
}
