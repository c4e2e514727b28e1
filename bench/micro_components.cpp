// Component micro-benchmarks (google-benchmark): the library's hot
// primitives — SFU LUT exp, CSR traversal, degree reorder,
// sparse×dense weighting, cache-policy aggregation step, and the reference
// GNN layers. These are engineering benchmarks for the simulator itself
// (host-side speed), complementing the fig*/table* reproduction harnesses.
#include <benchmark/benchmark.h>

#include "arch/sfu.hpp"
#include "core/aggregation.hpp"
#include "core/weighting.hpp"
#include "datasets/synthetic.hpp"
#include "graph/reorder.hpp"
#include "graph/stats.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/reference.hpp"

namespace {

using namespace gnnie;

const Dataset& cora() {
  static const Dataset d = generate_dataset(DatasetId::kCora, 1.0, 1);
  return d;
}

void BM_SfuExp(benchmark::State& state) {
  SfuExpLut sfu;
  float x = -10.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfu.exp(x));
    x += 0.001f;
    if (x > 10.0f) x = -10.0f;
  }
}
BENCHMARK(BM_SfuExp);

void BM_CsrTraversal(benchmark::State& state) {
  const Csr& g = cora().graph;
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      for (VertexId n : g.neighbors(v)) sum += n;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.edge_count()));
}
BENCHMARK(BM_CsrTraversal);

void BM_DegreeReorder(benchmark::State& state) {
  const Csr& g = cora().graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(degree_descending_order(g));
  }
}
BENCHMARK(BM_DegreeReorder);

void BM_WeightingEngine(benchmark::State& state) {
  const Dataset& d = cora();
  EngineConfig cfg = EngineConfig::paper_default(false);
  ModelConfig m;
  m.kind = GnnKind::kGcn;
  m.input_dim = d.spec.feature_length;
  m.hidden_dim = static_cast<std::uint32_t>(state.range(0));
  GnnWeights w = init_weights(m, 3);
  for (auto _ : state) {
    HbmModel hbm(cfg.hbm);
    WeightingEngine eng(cfg, &hbm);
    benchmark::DoNotOptimize(eng.run(d.features, w.layers[0].w));
  }
}
BENCHMARK(BM_WeightingEngine)->Arg(32)->Arg(128);

void BM_AggregationPolicy(benchmark::State& state) {
  const Dataset& d = cora();
  Matrix hw(d.graph.vertex_count(), 128, 0.5f);
  EngineConfig cfg = EngineConfig::paper_default(false);
  for (auto _ : state) {
    HbmModel hbm(cfg.hbm);
    AggregationEngine eng(cfg, &hbm);
    AggregationTask task;
    task.graph = &d.graph;
    task.hw = &hw;
    task.kind = AggKind::kGcnNormalizedSum;
    benchmark::DoNotOptimize(eng.run(task));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(d.graph.edge_count()));
}
BENCHMARK(BM_AggregationPolicy);

void BM_ReferenceGcnLayer(benchmark::State& state) {
  const Dataset& d = cora();
  ModelConfig m;
  m.kind = GnnKind::kGcn;
  m.input_dim = d.spec.feature_length;
  m.hidden_dim = 32;
  GnnWeights w = init_weights(m, 3);
  Matrix x = to_matrix(d.features);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcn_layer(d.graph, x, w.layers[0]));
  }
}
BENCHMARK(BM_ReferenceGcnLayer);

void BM_GraphGeneration(benchmark::State& state) {
  DatasetSpec spec = spec_of(DatasetId::kCora).scaled(0.5);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_graph(spec, seed++));
  }
}
BENCHMARK(BM_GraphGeneration);

void BM_NeighborSampling(benchmark::State& state) {
  const Csr& g = cora().graph;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_neighborhood(g, 25, seed++));
  }
}
BENCHMARK(BM_NeighborSampling);

}  // namespace
