// Shared fixture for the serving-cluster tests (test_serve.cpp,
// test_warmth.cpp): two small graphs ("tenants") served by one compiled
// GCN, with the engine config adjustable per test (the serving knobs), the
// per-request run() cycles a one-die batch must reproduce, and reference
// copies of the serving cost model's warm and follower-saving formulas.
#pragma once

#include <algorithm>
#include <vector>

#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "nn/layers.hpp"
#include "serve/trace.hpp"

namespace gnnie::test {

struct ServeFixture {
  Dataset a;
  Dataset b;
  SparseMatrix b_features;
  Engine engine;
  CompiledModel compiled;
  GraphPlanPtr plan_a;
  GraphPlanPtr plan_b;

  static CompiledModel make_compiled(Engine& engine, const Dataset& a) {
    ModelConfig model;
    model.kind = GnnKind::kGcn;
    model.input_dim = a.spec.feature_length;
    model.hidden_dim = 32;
    return engine.compile(model, init_weights(model, 42));
  }

  explicit ServeFixture(EngineConfig config = EngineConfig::paper_default(false))
      : a(generate_dataset(spec_of(DatasetId::kCora).scaled(0.08), 1)),
        b(generate_dataset(spec_of(DatasetId::kCiteseer).scaled(0.08), 2)),
        engine(config),
        compiled(make_compiled(engine, a)) {
    DatasetSpec bspec = b.spec;
    bspec.feature_length = a.spec.feature_length;  // one model serves both
    b_features = generate_features(bspec, 3);
    plan_a = compiled.plan(a.graph);
    plan_b = compiled.plan(b.graph);
  }

  serve::TraceStream stream_a() { return {plan_a, &a.features, 1.0}; }
  serve::TraceStream stream_b() { return {plan_b, &b_features, 1.0}; }
};

/// Each trace request's lone run() cycles, trace order: what a one-die FIFO
/// cluster charges on a zero-gap trace with every serving knob off.
inline std::vector<Cycles> sequential_run_cycles(const CompiledModel& compiled,
                                                 const serve::RequestTrace& trace) {
  std::vector<Cycles> cycles;
  for (const serve::TracedRequest& r : trace.requests()) {
    const serve::TraceStream& stream = trace.stream(r.stream);
    cycles.push_back(compiled.run({stream.plan, stream.features}).report.total_cycles);
  }
  return cycles;
}

// Reference copies of the serving cost model (core/serving.hpp), written
// over a run()'s report independently of CompiledModel::cost, so tests check
// the cost record and the cluster's charges against separate arithmetic.

/// The run's total at warm fraction `f`: each aggregation stage with DRAM
/// traffic gives up f × its exposed time × the read share of its traffic.
inline Cycles reference_warm_total(const InferenceReport& rep, double f) {
  Cycles total = rep.total_cycles;
  for (const LayerReport& lr : rep.layers) {
    const AggregationReport& agg = lr.aggregation;
    if (f <= 0.0 || agg.dram_bytes == 0) continue;
    const Cycles exposed =
        agg.total_cycles > agg.compute_cycles ? agg.total_cycles - agg.compute_cycles : 0;
    const double share = std::min(1.0, static_cast<double>(agg.input_fetch_bytes) /
                                           static_cast<double>(agg.dram_bytes));
    total -= static_cast<Cycles>(f * static_cast<double>(exposed) * share);
  }
  return total;
}

/// What a coalesced follower saves: each weighting stage's exposed time ×
/// the weight share of its DRAM stream.
inline Cycles reference_follower_saving(const InferenceReport& rep) {
  auto saving = [](const WeightingReport& w) -> Cycles {
    if (w.dram_stream_bytes == 0) return 0;
    const Cycles exposed =
        w.total_cycles > w.compute_cycles ? w.total_cycles - w.compute_cycles : 0;
    const double share = std::min(1.0, static_cast<double>(w.weight_stream_bytes) /
                                           static_cast<double>(w.dram_stream_bytes));
    return static_cast<Cycles>(static_cast<double>(exposed) * share);
  };
  Cycles saved = 0;
  for (const LayerReport& lr : rep.layers) {
    saved += saving(lr.weighting);
    if (lr.mlp2) saved += saving(*lr.mlp2);
  }
  return saved;
}

}  // namespace gnnie::test
