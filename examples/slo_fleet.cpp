// Heterogeneous fleet + SLO walkthrough: deadline trace → slack-aware
// routing → admission → attainment report.
//
// Two tenants share a 4-die fleet that mixes two PE-array designs (the
// fig. 13/17 design points E and A). The hot tenant carries a tight
// latency SLO, the cold tenant a loose one. The same deadline trace is
// replayed under every scheduler, with and without shed-hopeless
// admission, showing what the SLO layer adds over plain serving: per
// -stream attainment, per-die service quality, and load shedding.
//
//   $ ./example_slo_fleet
#include <algorithm>
#include <cstdio>

#include "datasets/synthetic.hpp"
#include "nn/layers.hpp"
#include "serve/cluster.hpp"
#include "serve/fleet.hpp"
#include "serve/slo.hpp"

int main() {
  using namespace gnnie;

  // 1. Two tenants at the same feature width, one GCN served for both.
  Dataset cora = generate_dataset(spec_of(DatasetId::kCora).scaled(0.25), 1);
  Dataset cite = generate_dataset(spec_of(DatasetId::kCiteseer).scaled(0.25), 2);
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.input_dim = cora.spec.feature_length;
  GnnWeights weights = init_weights(model, 7);
  DatasetSpec cite_spec = cite.spec;
  cite_spec.feature_length = cora.spec.feature_length;
  SparseMatrix cite_features = generate_features(cite_spec, 3);

  Engine engine(EngineConfig::paper_default(false));
  CompiledModel compiled = engine.compile(model, weights);
  GraphPlanPtr cora_plan = compiled.plan(cora.graph);
  GraphPlanPtr cite_plan = compiled.plan(cite.graph);

  // 2. A 4-die fleet mixing design E and design A — each die serves with
  //    its own config's cost model, priced by MAC count.
  serve::FleetSpec spec = serve::FleetSpec::from_designs("EEAA");
  serve::Cluster fleet(compiled, spec);
  std::printf("fleet %s: %zu dies, cost %.2f (1.0 = design A)\n",
              fleet.fleet().mix_label().c_str(), spec.die_count(), fleet.fleet_cost());
  for (std::size_t c = 0; c < spec.configs.size(); ++c) {
    CompiledModel on_c = Engine(spec.configs[c].engine).compile(model, weights);
    std::printf("  design %s: cora %llu cycles/request\n", spec.configs[c].label.c_str(),
                (unsigned long long)on_c.cost({on_c.plan(cora.graph), &cora.features})
                    .total_cycles);
  }

  // 3. Deadline trace: the hot stream gets 1.5x the reference service time
  //    to finish, the cold stream 10x. Each arrival is stamped with its
  //    absolute deadline (arrival + slo_cycles); slo_cycles = 0 means no SLO.
  const Cycles cora_cost = compiled.cost({cora_plan, &cora.features}).total_cycles;
  serve::TraceStream hot{cora_plan, &cora.features, /*weight=*/4.0,
                         static_cast<std::int64_t>(cora_cost + cora_cost / 2)};
  serve::TraceStream cold{cite_plan, &cite_features, /*weight=*/1.0,
                          static_cast<std::int64_t>(10 * cora_cost)};
  serve::RequestTrace trace = serve::RequestTrace::poisson(
      {hot, cold}, /*count=*/200, static_cast<double>(cora_cost) / 2.5, /*seed=*/11);
  const bool any_slo = std::ranges::any_of(trace.requests(), &serve::TracedRequest::has_slo);
  std::printf("\ntrace: %zu requests, SLOs %s\n\n", trace.size(), any_slo ? "on" : "off");

  // 4. Every scheduler against the same deadline trace; the slack-aware
  //    scheduler routes by predicted deadline slack instead of queue shape.
  std::printf("%-16s %12s %10s %10s %10s\n", "scheduler", "attainment", "hot", "cold",
              "p99 (cyc)");
  for (serve::SchedulerKind kind : serve::all_scheduler_kinds()) {
    ServingReport rep = fleet.simulate(trace, {.scheduler = kind});
    std::printf("%-16s %11.1f%% %9.1f%% %9.1f%% %10llu\n", rep.scheduler.c_str(),
                100.0 * rep.slo_attainment(), 100.0 * rep.stream_slo_attainment(0),
                100.0 * rep.stream_slo_attainment(1),
                (unsigned long long)rep.p99_latency_cycles());
  }

  // 5. Admission: shed-hopeless drops a request the moment even the
  //    fleet's best case cannot meet its deadline. With the hot SLO pushed
  //    below the fastest die's service time, every hot request is doomed at
  //    arrival — shedding turns their dead queue time into headroom (and
  //    shorter tails) for the cold stream instead of servicing misses.
  serve::TraceStream doomed = hot;
  doomed.slo_cycles = static_cast<std::int64_t>(cora_cost - cora_cost / 10);
  serve::RequestTrace overload = serve::RequestTrace::poisson(
      {doomed, cold}, /*count=*/200, static_cast<double>(cora_cost) / 2.5, /*seed=*/11);
  ServingReport admit_all =
      fleet.simulate(overload, {.scheduler = serve::SchedulerKind::kSloAware});
  ServingReport shedding =
      fleet.simulate(overload, {.scheduler = serve::SchedulerKind::kSloAware,
                                .admission = serve::AdmissionKind::kShedHopeless});
  std::printf("\nslo-aware + admission (hot SLO below best-case service):\n");
  std::printf("%-16s %12s %10s %12s\n", "admission", "attainment", "shed", "p99 (cyc)");
  std::printf("%-16s %11.1f%% %9llu %12llu\n", "admit-all",
              100.0 * admit_all.slo_attainment(),
              (unsigned long long)admit_all.shed_count(),
              (unsigned long long)admit_all.p99_latency_cycles());
  std::printf("%-16s %11.1f%% %9llu %12llu\n",
              serve::to_string(serve::AdmissionKind::kShedHopeless),
              100.0 * shedding.slo_attainment(),
              (unsigned long long)shedding.shed_count(),
              (unsigned long long)shedding.p99_latency_cycles());

  // 6. Per-die service quality: attainment over the requests each die
  //    actually serviced (shed requests are never attributed to a die).
  std::printf("\nper-die attainment (slo-aware, shed-hopeless):\n");
  for (std::size_t d = 0; d < spec.die_count(); ++d) {
    std::printf("  die %zu (design %s): %.1f%% of %llu serviced\n", d,
                shedding.die_labels[d].c_str(), 100.0 * shedding.die_slo_attainment(d),
                (unsigned long long)shedding.die_requests[d]);
  }
  return 0;
}
