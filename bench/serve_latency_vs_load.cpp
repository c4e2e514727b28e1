// Latency vs offered load: the queueing knee of the serving cluster.
//
// Sweep 1 (single graph): an open-loop Poisson trace over offered load ρ
// (arrival rate as a fraction of the cluster's aggregate service rate) for
// 1-die and 4-die clusters, reporting p50/p95/p99 latency, mean queue
// depth, utilization, and throughput at each point. Below the knee (ρ ≪ 1)
// latency is flat at the service time; approaching ρ = 1 queueing delay
// takes over and the tail explodes — the behavior Table IV's single-run
// throughput cannot show, and the reason multi-die clusters improve p99
// and not just makespan.
//
// Sweep 2 (warmth): a skewed two-graph Poisson mix on a 4-die cluster,
// replayed per scheduler with the cache-warmth model off and on (per-die
// residency budget = one plan's working set, so competing plans displace
// each other). Emits warm-vs-cold knee curves — p99 plus warm-hit-rate,
// plan swaps, and the warm/cold latency split — which is where
// graph-affinity and slo-aware (earliest predicted completion on this
// deadline-free trace) routing separate from FIFO.
//
// Emits the whole run as one JSON object (stdout by default, --json=PATH
// for a file) and exits non-zero if the emitted JSON is malformed, so CI
// can smoke this binary directly:
//
// Sweep cells are independent (same trace seed, stateless schedulers,
// const thread-safe Cluster::simulate), so each sweep computes its cells
// with bench::parallel_for and then emits serially in the original order —
// output is byte-identical to the sequential loop.
//
//   $ ./bench_serve_latency_vs_load --requests=64 --scale=0.05
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/report_io.hpp"
#include "serve/cluster.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const bench::BenchOptions opt = bench::parse_options(argc, argv, bench::kServe);

  bench::print_banner("Serving: latency vs offered load",
                      "open-loop tail latency is flat below the knee, explodes at rho ~ 1");

  // One graph, one model: synthetic Cora (GCN, Table III config).
  bench::Workload w =
      bench::make_workload(spec_of(DatasetId::kCora), opt.scale, GnnKind::kGcn, opt.seed);
  Engine engine(EngineConfig::paper_default(false));
  CompiledModel compiled = engine.compile(w.model, w.weights);
  GraphPlanPtr plan = compiled.plan(w.data.graph);
  const Cycles service = compiled.cost({plan, &w.data.features}).total_cycles;
  std::printf("service time: %llu cycles/request (%s, scale %.3f)\n\n",
              (unsigned long long)service, w.data.spec.name.c_str(), opt.scale);

  const std::vector<std::size_t> die_counts = {1, 4};
  const std::vector<double> rhos = {0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.25};
  auto scheduler = serve::Scheduler::make(serve::SchedulerKind::kShortestQueue);

  std::ostringstream json;
  json << "{\"dataset\":\"" << w.data.spec.name << "\",\"scale\":" << opt.scale
       << ",\"requests\":" << opt.requests << ",\"seed\":" << opt.seed
       << ",\"service_cycles\":" << service
       << ",\"scheduler\":\"" << scheduler->name() << "\",\"curves\":[";

  // Replay every (die-count, rho) cell in parallel; emit serially below.
  std::vector<serve::Cluster> knee_clusters;
  knee_clusters.reserve(die_counts.size());
  for (std::size_t dies : die_counts) knee_clusters.emplace_back(compiled, dies);
  std::vector<ServingReport> knee_reports(die_counts.size() * rhos.size());
  bench::parallel_for(knee_reports.size(), [&](std::size_t cell) {
    const std::size_t ci = cell / rhos.size();
    const std::size_t ri = cell % rhos.size();
    // ρ = (service / gap) / dies  ⇒  gap = service / (ρ · dies).
    const double mean_gap = static_cast<double>(service) /
                            (rhos[ri] * static_cast<double>(die_counts[ci]));
    serve::RequestTrace trace = serve::RequestTrace::poisson(
        {{plan, &w.data.features}}, opt.requests, mean_gap, opt.seed);
    knee_reports[cell] =
        knee_clusters[ci].simulate(trace, {.custom_scheduler = scheduler.get()});
  });

  for (std::size_t ci = 0; ci < die_counts.size(); ++ci) {
    const std::size_t dies = die_counts[ci];
    std::printf("--- %zu die%s (shortest-queue) ---\n", dies, dies == 1 ? "" : "s");
    std::printf("%8s %14s %14s %14s %12s %8s\n", "rho", "p50 (cyc)", "p95 (cyc)",
                "p99 (cyc)", "queue depth", "util");
    json << (ci == 0 ? "" : ",") << "{\"dies\":" << dies << ",\"points\":[";
    for (std::size_t ri = 0; ri < rhos.size(); ++ri) {
      const double rho = rhos[ri];
      const double mean_gap =
          static_cast<double>(service) / (rho * static_cast<double>(dies));
      const ServingReport& rep = knee_reports[ci * rhos.size() + ri];
      double util = 0.0;
      for (std::size_t d = 0; d < dies; ++d) util += rep.die_utilization(d);
      util /= static_cast<double>(dies);
      std::printf("%8.2f %14llu %14llu %14llu %12.2f %7.0f%%\n", rho,
                  (unsigned long long)rep.p50_latency_cycles(),
                  (unsigned long long)rep.p95_latency_cycles(),
                  (unsigned long long)rep.p99_latency_cycles(), rep.mean_queue_depth(),
                  100.0 * util);
      json << (ri == 0 ? "" : ",") << "{\"rho\":" << rho
           << ",\"mean_gap_cycles\":" << mean_gap
           << ",\"p50_latency_cycles\":" << rep.p50_latency_cycles()
           << ",\"p95_latency_cycles\":" << rep.p95_latency_cycles()
           << ",\"p99_latency_cycles\":" << rep.p99_latency_cycles()
           << ",\"mean_queue_depth\":" << rep.mean_queue_depth()
           << ",\"mean_utilization\":" << util
           << ",\"throughput_per_second\":" << rep.throughput_per_second()
           << ",\"makespan_cycles\":" << rep.makespan << "}";
    }
    json << "]}";
    std::printf("\n");
  }
  json << "]";

  // --- Sweep 2: warm vs cold knee curves per scheduler. -------------------
  // A second tenant (synthetic Citeseer at the same feature width) makes a
  // 4:1 skewed mix; the warmth budget holds exactly one plan's working set.
  bench::Workload w2 = bench::make_workload(spec_of(DatasetId::kCiteseer), opt.scale,
                                            GnnKind::kGcn, opt.seed + 1);
  DatasetSpec w2_spec = w2.data.spec;
  w2_spec.feature_length = w.data.spec.feature_length;  // one model, both graphs
  SparseMatrix features_b = generate_features(w2_spec, opt.seed + 2);

  const std::size_t warm_dies = 4;
  std::printf("=== warmth sweep: two graphs (4:1), %zu dies ===\n", warm_dies);
  // The one-plan budget comes from the sweep-1 model's (cold) plans —
  // working sets are warmth-independent, so no throwaway compile needed.
  const Bytes one_plan_budget = std::max(plan->warm_working_set_bytes(),
                                         compiled.plan(w2.data.graph)->warm_working_set_bytes());
  json << ",\"warmth\":{\"dies\":" << warm_dies
       << ",\"die_budget_bytes\":" << one_plan_budget << ",\"curves\":[";

  // Per-warmth compiled state built serially, then every
  // (warmth, scheduler, rho) cell replayed in parallel.
  struct WarmSetup {
    GraphPlanPtr plan_a;
    GraphPlanPtr plan_b;
    double mean_service = 0.0;
    std::unique_ptr<serve::Cluster> cluster;
  };
  std::vector<WarmSetup> warm_setups;
  for (bool warmth_on : {false, true}) {
    EngineConfig config = EngineConfig::paper_default(false);
    config.warmth.enabled = warmth_on;
    config.warmth.die_budget_bytes = one_plan_budget;
    Engine warm_engine(config);
    CompiledModel warm_compiled = warm_engine.compile(w.model, w.weights);
    WarmSetup setup;
    setup.plan_a = warm_compiled.plan(w.data.graph);
    setup.plan_b = warm_compiled.plan(w2.data.graph);
    const Cycles cost_a = warm_compiled.cost({setup.plan_a, &w.data.features}).total_cycles;
    const Cycles cost_b = warm_compiled.cost({setup.plan_b, &features_b}).total_cycles;
    setup.mean_service = (4.0 * cost_a + cost_b) / 5.0;
    setup.cluster = std::make_unique<serve::Cluster>(warm_compiled, warm_dies);
    warm_setups.push_back(std::move(setup));
  }
  const std::vector<serve::SchedulerKind> warm_kinds = serve::all_scheduler_kinds();
  std::vector<ServingReport> warm_reports(warm_setups.size() * warm_kinds.size() *
                                          rhos.size());
  bench::parallel_for(warm_reports.size(), [&](std::size_t cell) {
    const std::size_t wi = cell / (warm_kinds.size() * rhos.size());
    const std::size_t ki = (cell / rhos.size()) % warm_kinds.size();
    const std::size_t ri = cell % rhos.size();
    const WarmSetup& setup = warm_setups[wi];
    const double mean_gap = setup.mean_service / (rhos[ri] * static_cast<double>(warm_dies));
    serve::RequestTrace trace = serve::RequestTrace::poisson(
        {{setup.plan_a, &w.data.features, 4.0}, {setup.plan_b, &features_b, 1.0}},
        opt.requests, mean_gap, opt.seed);
    warm_reports[cell] = setup.cluster->simulate(trace, {.scheduler = warm_kinds[ki]});
  });

  bool first_curve = true;
  for (std::size_t wi = 0; wi < warm_setups.size(); ++wi) {
    const bool warmth_on = wi != 0;
    for (std::size_t ki = 0; ki < warm_kinds.size(); ++ki) {
      auto warm_sched = serve::Scheduler::make(warm_kinds[ki]);
      std::printf("--- %s, warmth %s ---\n", warm_sched->name(), warmth_on ? "on" : "off");
      std::printf("%8s %14s %14s %10s %8s %12s %12s\n", "rho", "p50 (cyc)", "p99 (cyc)",
                  "warm-hit", "swaps", "warm p99", "cold p99");
      json << (first_curve ? "" : ",") << "{\"scheduler\":\"" << warm_sched->name()
           << "\",\"warmth\":" << (warmth_on ? "true" : "false") << ",\"points\":[";
      first_curve = false;
      for (std::size_t ri = 0; ri < rhos.size(); ++ri) {
        const double rho = rhos[ri];
        const ServingReport& rep =
            warm_reports[(wi * warm_kinds.size() + ki) * rhos.size() + ri];
        std::printf("%8.2f %14llu %14llu %9.2f%% %8llu %12llu %12llu\n", rho,
                    (unsigned long long)rep.p50_latency_cycles(),
                    (unsigned long long)rep.p99_latency_cycles(),
                    100.0 * rep.warm_hit_rate(),
                    (unsigned long long)rep.total_plan_swaps(),
                    (unsigned long long)rep.warm_latency_percentile(99.0),
                    (unsigned long long)rep.cold_latency_percentile(99.0));
        json << (ri == 0 ? "" : ",") << "{\"rho\":" << rho
             << ",\"p50_latency_cycles\":" << rep.p50_latency_cycles()
             << ",\"p99_latency_cycles\":" << rep.p99_latency_cycles()
             << ",\"warm_hit_rate\":" << rep.warm_hit_rate()
             << ",\"plan_swaps\":" << rep.total_plan_swaps()
             << ",\"warm_p99_latency_cycles\":" << rep.warm_latency_percentile(99.0)
             << ",\"cold_p99_latency_cycles\":" << rep.cold_latency_percentile(99.0)
             << ",\"mean_queue_depth\":" << rep.mean_queue_depth() << "}";
      }
      json << "]}";
      std::printf("\n");
    }
  }
  json << "]}";

  // --- Sweep 3: same-plan coalescing at the die. ----------------------------
  // The sweep-1 single-graph trace on a 4-die cluster, replayed with
  // coalescing off (max_coalesce 1, strictly serial service) and on
  // (max_coalesce 8): past the knee the queues are deep enough that slots
  // coalesce, the weighting setup amortizes, and the tail comes down.
  const std::size_t batch_dies = 4;
  std::printf("=== coalescing sweep: one graph, %zu dies ===\n", batch_dies);
  json << ",\"batching\":{\"dies\":" << batch_dies << ",\"curves\":[";

  struct BatchSetup {
    std::uint32_t cap = 1;
    GraphPlanPtr plan;
    Cycles service = 0;
    std::unique_ptr<serve::Cluster> cluster;
  };
  std::vector<BatchSetup> batch_setups;
  for (std::uint32_t cap : {1u, 8u}) {
    EngineConfig config = EngineConfig::paper_default(false);
    config.batching.max_coalesce = cap;
    Engine batch_engine(config);
    CompiledModel batch_compiled = batch_engine.compile(w.model, w.weights);
    BatchSetup setup;
    setup.cap = cap;
    setup.plan = batch_compiled.plan(w.data.graph);
    setup.service = batch_compiled.cost({setup.plan, &w.data.features}).total_cycles;
    setup.cluster = std::make_unique<serve::Cluster>(batch_compiled, batch_dies);
    batch_setups.push_back(std::move(setup));
  }
  auto batch_sched = serve::Scheduler::make(serve::SchedulerKind::kShortestQueue);
  std::vector<ServingReport> batch_reports(batch_setups.size() * rhos.size());
  bench::parallel_for(batch_reports.size(), [&](std::size_t cell) {
    const BatchSetup& setup = batch_setups[cell / rhos.size()];
    const double mean_gap = static_cast<double>(setup.service) /
                            (rhos[cell % rhos.size()] * static_cast<double>(batch_dies));
    serve::RequestTrace trace = serve::RequestTrace::poisson(
        {{setup.plan, &w.data.features}}, opt.requests, mean_gap, opt.seed);
    batch_reports[cell] =
        setup.cluster->simulate(trace, {.custom_scheduler = batch_sched.get()});
  });

  bool first_batch_curve = true;
  for (std::size_t bi = 0; bi < batch_setups.size(); ++bi) {
    std::printf("--- max_coalesce %u ---\n", batch_setups[bi].cap);
    std::printf("%8s %14s %14s %10s %12s %14s\n", "rho", "p50 (cyc)", "p99 (cyc)",
                "coalesce", "mean batch", "saved (cyc)");
    json << (first_batch_curve ? "" : ",") << "{\"max_coalesce\":" << batch_setups[bi].cap
         << ",\"points\":[";
    first_batch_curve = false;
    for (std::size_t ri = 0; ri < rhos.size(); ++ri) {
      const double rho = rhos[ri];
      const ServingReport& rep = batch_reports[bi * rhos.size() + ri];
      std::printf("%8.2f %14llu %14llu %9.2f%% %12.2f %14llu\n", rho,
                  (unsigned long long)rep.p50_latency_cycles(),
                  (unsigned long long)rep.p99_latency_cycles(),
                  100.0 * rep.coalesce_rate(), rep.mean_batch_size(),
                  (unsigned long long)rep.weighting_cycles_saved);
      json << (ri == 0 ? "" : ",") << "{\"rho\":" << rho
           << ",\"p50_latency_cycles\":" << rep.p50_latency_cycles()
           << ",\"p99_latency_cycles\":" << rep.p99_latency_cycles()
           << ",\"coalesce_rate\":" << rep.coalesce_rate()
           << ",\"mean_batch_size\":" << rep.mean_batch_size()
           << ",\"weighting_cycles_saved\":" << rep.weighting_cycles_saved
           << ",\"makespan_cycles\":" << rep.makespan << "}";
    }
    json << "]}";
    std::printf("\n");
  }
  json << "]}";

  // --- Sweep 4: intra-die weight-stream pipelining. -------------------------
  // A weight-stream-heavy single-graph trace — the sweep-1 graph at 4x the
  // feature width, which scales the dense weighting stage without touching
  // the sparse aggregation working set — on a 4-die shortest-queue cluster,
  // replayed with the two-track pipeline model off and on. Past the knee a
  // busy die almost always has its next slot already routed, so the slot's
  // weight stream hides under the running slot's compute and both p99 and
  // makespan come down by roughly the weighting share of service. CI pins
  // the rho ~ 1.1 p99 win (scripts/check_bench.py).
  const std::size_t pipe_dies = 4;
  DatasetSpec heavy_spec = spec_of(DatasetId::kCora);
  heavy_spec.feature_length *= 4;
  bench::Workload heavy =
      bench::make_workload(heavy_spec, opt.scale, GnnKind::kGcn, opt.seed + 3);

  struct PipeSetup {
    bool pipeline = false;
    GraphPlanPtr plan;
    Cycles service = 0;
    std::unique_ptr<serve::Cluster> cluster;
  };
  std::vector<PipeSetup> pipe_setups;
  Cycles pipe_weighting = 0;
  for (bool pipeline : {false, true}) {
    EngineConfig config = EngineConfig::paper_default(false);
    config.pipeline.enabled = pipeline;
    Engine pipe_engine(config);
    CompiledModel pipe_compiled = pipe_engine.compile(heavy.model, heavy.weights);
    PipeSetup setup;
    setup.pipeline = pipeline;
    setup.plan = pipe_compiled.plan(heavy.data.graph);
    const ServiceCost pipe_cost = pipe_compiled.cost({setup.plan, &heavy.data.features});
    setup.service = pipe_cost.total_cycles;
    pipe_weighting = pipe_cost.weighting_cycles;
    setup.cluster = std::make_unique<serve::Cluster>(pipe_compiled, pipe_dies);
    pipe_setups.push_back(std::move(setup));
  }
  std::printf("=== pipelining sweep: weight-heavy graph (4x features), %zu dies ===\n",
              pipe_dies);
  std::printf("service %llu cycles/request, weighting share %.1f%%\n\n",
              (unsigned long long)pipe_setups[0].service,
              100.0 * static_cast<double>(pipe_weighting) /
                  static_cast<double>(pipe_setups[0].service));
  json << ",\"pipeline\":{\"dies\":" << pipe_dies
       << ",\"service_cycles\":" << pipe_setups[0].service
       << ",\"weighting_cycles\":" << pipe_weighting << ",\"curves\":[";
  std::vector<ServingReport> pipe_reports(pipe_setups.size() * rhos.size());
  bench::parallel_for(pipe_reports.size(), [&](std::size_t cell) {
    const PipeSetup& setup = pipe_setups[cell / rhos.size()];
    const double mean_gap = static_cast<double>(setup.service) /
                            (rhos[cell % rhos.size()] * static_cast<double>(pipe_dies));
    serve::RequestTrace trace = serve::RequestTrace::poisson(
        {{setup.plan, &heavy.data.features}}, opt.requests, mean_gap, opt.seed);
    pipe_reports[cell] = setup.cluster->simulate(
        trace, {.scheduler = serve::SchedulerKind::kShortestQueue});
  });
  for (std::size_t pi = 0; pi < pipe_setups.size(); ++pi) {
    std::printf("--- pipeline %s ---\n", pipe_setups[pi].pipeline ? "on" : "off");
    std::printf("%8s %14s %14s %16s %14s\n", "rho", "p50 (cyc)", "p99 (cyc)",
                "hidden (cyc)", "makespan");
    json << (pi == 0 ? "" : ",") << "{\"pipeline\":"
         << (pipe_setups[pi].pipeline ? "true" : "false") << ",\"points\":[";
    for (std::size_t ri = 0; ri < rhos.size(); ++ri) {
      const ServingReport& rep = pipe_reports[pi * rhos.size() + ri];
      std::printf("%8.2f %14llu %14llu %16llu %14llu\n", rhos[ri],
                  (unsigned long long)rep.p50_latency_cycles(),
                  (unsigned long long)rep.p99_latency_cycles(),
                  (unsigned long long)rep.pipeline_hidden_cycles,
                  (unsigned long long)rep.makespan);
      json << (ri == 0 ? "" : ",") << "{\"rho\":" << rhos[ri]
           << ",\"p50_latency_cycles\":" << rep.p50_latency_cycles()
           << ",\"p99_latency_cycles\":" << rep.p99_latency_cycles()
           << ",\"pipeline_hidden_cycles\":" << rep.pipeline_hidden_cycles
           << ",\"makespan_cycles\":" << rep.makespan << "}";
    }
    json << "]}";
    std::printf("\n");
  }
  json << "]}}";

  if (!bench::write_json(json.str(), opt.json_path)) return 1;
  std::printf(
      "\nLatency is flat at the service time below the knee; past rho ~ 1 the\n"
      "open-loop queue grows without bound and the percentiles follow.\n");
  return 0;
}
