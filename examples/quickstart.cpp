// Quickstart: the serving lifecycle on the GNNIE accelerator model —
// compile a model once, plan a graph once, run a request against the plan,
// validate against the software reference, read the report, then serve a
// batch of requests on a one-die cluster.
//
//   $ ./example_quickstart
#include <cstdio>

#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "nn/model.hpp"
#include "nn/reference.hpp"
#include "serve/cluster.hpp"

int main() {
  using namespace gnnie;

  // 1. A dataset: stat-matched synthetic Cora (full size, deterministic).
  Dataset data = generate_dataset(DatasetId::kCora, /*scale=*/1.0, /*seed=*/42);
  std::printf("graph: %u vertices, %llu directed edges, features %u-wide (%.2f%% sparse)\n",
              data.graph.vertex_count(), (unsigned long long)data.graph.edge_count(),
              data.features.col_count(), 100.0 * data.features.sparsity());

  // 2. A model: 2-layer GCN, 128 hidden channels (the paper's Table III).
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.input_dim = data.spec.feature_length;
  GnnWeights weights = init_weights(model, /*seed=*/7);

  // 3. Compile once: validates the model/weights pairing, sizes the DRAM
  //    layout, precomputes the per-layer weighting geometry. The Engine
  //    carries the paper configuration (Design E flexible-MAC array, 256 KB
  //    input buffer for Cora-sized graphs, HBM 2.0 @ 256 GB/s) and the
  //    degree-aware cache policy (§VI).
  Engine engine(EngineConfig::paper_default(/*large_dataset=*/false));
  CompiledModel compiled = engine.compile(model, weights);

  // 4. Plan the graph once: degree-aware DRAM layout + cache blocking. Keep
  //    the plan and reuse it for every run on this graph.
  GraphPlanPtr plan = compiled.plan(data.graph);

  // 5. Run requests against the plan. Runs are stateless — this one and
  //    every later one on the same inputs report identical stats.
  InferenceResult result = compiled.run({plan, &data.features});

  // 6. Validate against the software reference.
  Matrix expected = reference_forward(model, weights, data.graph, data.features);
  std::printf("max |engine - reference| = %.2e\n",
              Matrix::max_abs_diff(result.output, expected));

  // 7. Read the report.
  const InferenceReport& rep = result.report;
  std::printf("\ninference: %llu cycles = %.1f us @ %.1f GHz\n",
              (unsigned long long)rep.total_cycles, rep.runtime_seconds() * 1e6,
              kClockHz / 1e9);
  std::printf("effective throughput: %.2f TOPS (peak %.2f)\n", rep.effective_tops(),
              compiled.peak_tops());
  std::printf("DRAM: %.1f MB read, %.1f MB written, row-hit rate %.0f%%\n",
              rep.dram.bytes_read / 1048576.0, rep.dram.bytes_written / 1048576.0,
              100.0 * rep.dram.row_hit_rate());
  for (std::size_t l = 0; l < rep.layers.size(); ++l) {
    const LayerReport& lr = rep.layers[l];
    std::printf("  layer %zu: weighting %llu cyc | aggregation %llu cyc "
                "(%llu iterations, %llu rounds)\n",
                l, (unsigned long long)lr.weighting.total_cycles,
                (unsigned long long)lr.aggregation.total_cycles,
                (unsigned long long)lr.aggregation.iterations,
                (unsigned long long)lr.aggregation.rounds);
  }

  // 8. The serving payoff: a batch of requests over the SAME plan — fresh
  //    feature sets, zero replanning. The cluster is the batch API: one die
  //    services a zero-gap trace back to back, so the makespan is the sum
  //    of the three runs' cycles.
  SparseMatrix morning = generate_features(data.spec, 1001);
  SparseMatrix evening = generate_features(data.spec, 1002);
  serve::RequestTrace batch = serve::RequestTrace::fixed_interval(
      {{plan, &data.features}, {plan, &morning}, {plan, &evening}}, 3, /*gap=*/0);
  ServingReport served = serve::Cluster(compiled, 1).simulate(batch);
  const std::size_t n = served.requests.size();
  std::printf("\nbatch: %zu requests in %.1f us (mean %.1f us, %.0f inf/s)\n", n,
              served.makespan_seconds() * 1e6,
              served.makespan_seconds() / static_cast<double>(n) * 1e6,
              served.throughput_per_second());
  return 0;
}
