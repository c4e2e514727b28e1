// Shared helpers for the engine-level tests (test_engine.cpp,
// test_serving.cpp, and the cross-module suites): a scaled synthetic Cora
// workload for any GNN kind, a one-request compile → plan → run, and the
// printer the recorded-value pins use to report what an engine now counts.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"

namespace gnnie::test {

/// Compiles `model`, plans `g` (with GraphSAGE's per-layer sampled
/// adjacencies), and runs one request on features `x0`.
inline InferenceResult run_once(const Engine& engine, const ModelConfig& model,
                                const GnnWeights& weights, const Csr& g, const SparseMatrix& x0,
                                std::vector<Csr> sampled = {}) {
  const CompiledModel compiled = engine.compile(model, weights);
  return compiled.run({compiled.plan(g, std::move(sampled)), &x0});
}

/// Scaled synthetic Cora plus one GNN kind: model config, seeded weights,
/// and (for GraphSAGE) one sampled adjacency per layer.
struct ModelFixture {
  Dataset data;
  ModelConfig model;
  GnnWeights weights;
  std::vector<Csr> sampled;

  explicit ModelFixture(GnnKind kind, double scale = 0.1, std::uint32_t hidden = 32) {
    data = generate_dataset(spec_of(DatasetId::kCora).scaled(scale), 1);
    model.kind = kind;
    model.input_dim = data.spec.feature_length;
    model.hidden_dim = hidden;
    model.pool_clusters = 16;
    weights = init_weights(model, 42);
    if (kind == GnnKind::kGraphSage) {
      for (std::uint32_t l = 0; l < model.num_layers; ++l) {
        sampled.push_back(sample_neighborhood(data.graph, model.sample_size, 100 + l));
      }
    }
  }

  /// run_once over this fixture's workload.
  InferenceResult run(const Engine& engine) const {
    return run_once(engine, model, weights, data.graph, data.features, sampled);
  }
};

/// "{a, b, c}": a counter vector in the form the recorded-value tables use,
/// so a failing pin prints the line to paste after an intended change.
inline std::string brace_list(const std::vector<std::uint64_t>& v) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i == 0 ? "" : ", ") << v[i];
  os << '}';
  return os.str();
}

}  // namespace gnnie::test
