// Shared fixture for the serving-cluster tests (test_serve.cpp,
// test_warmth.cpp): two small graphs ("tenants") served by one compiled
// GCN, with the engine config adjustable per test (the serving knobs), and
// the per-request run() cycles a one-die batch must reproduce.
#pragma once

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

}  // namespace gnnie::test
