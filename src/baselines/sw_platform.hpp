// Analytic PyTorch-Geometric software baselines (Fig. 12's PyG-CPU and
// PyG-GPU). We cannot run the authors' Xeon 6132 / Tesla V100S testbeds, so
// these are roofline-style models, per layer:
//
//   t = dense_flops/dense_tput + edge_ops/edge_tput + special/special_tput
//       + bytes/bandwidth + fixed per-layer dispatch overhead,
//
// with the *operator order PyG actually uses* per GNN — the detail the
// paper's speedup shape rests on. PyG's GCNConv transforms first and
// propagates at width F_out, but GINConv/SAGEConv propagate at the INPUT
// width (F_in, e.g. 602 for Reddit) before their linear stage, which is why
// the paper's GIN speedups dwarf its GCN speedups.
#pragma once

#include <string>

#include "common/units.hpp"
#include "graph/csr.hpp"
#include "nn/model.hpp"
#include "sparse/sparse_matrix.hpp"

namespace gnnie {

struct SoftwarePlatformConfig {
  std::string name;
  double dense_flops = 0.0;    ///< effective GEMM throughput (FLOP/s)
  double edge_ops_per_s = 0.0; ///< scatter/gather message throughput (element ops/s)
  double special_ops_per_s = 0.0;  ///< exp/div/compare throughput
  double mem_bandwidth = 0.0;      ///< bytes/s
  double layer_overhead_s = 0.0;   ///< framework dispatch / kernel launches per layer
  double sampling_ns_per_edge = 0.0;  ///< GraphSAGE RNG + gather cost per sampled edge

  /// Intel Xeon Gold 6132 + PyTorch Geometric. Effective (not peak)
  /// numbers: PyG's scatter kernels are memory-latency-bound on CPU.
  static SoftwarePlatformConfig pyg_cpu();
  /// NVIDIA Tesla V100S + PyTorch Geometric.
  static SoftwarePlatformConfig pyg_gpu();
};

struct SoftwareCost {
  double dense_flops = 0.0;
  double edge_element_ops = 0.0;  ///< Σ edge visits × feature width at that stage
  double special_ops = 0.0;
  double bytes_touched = 0.0;
  double sampled_edges = 0.0;
  std::uint32_t layers = 0;
};

class SoftwareBaseline {
 public:
  explicit SoftwareBaseline(SoftwarePlatformConfig config);

  const SoftwarePlatformConfig& config() const { return config_; }

  /// PyG operator-order cost model for one inference.
  SoftwareCost cost(const ModelConfig& model, const Csr& g, const SparseMatrix& features) const;

  Seconds predict_runtime(const ModelConfig& model, const Csr& g,
                          const SparseMatrix& features) const;

 private:
  SoftwarePlatformConfig config_;
};

}  // namespace gnnie
