// Wall-clock throughput of the serving simulator core.
//
// Everything else in bench/ measures the *modeled* system in virtual
// cycles; this binary measures the simulator itself — how many simulation
// events per wall-clock second the event loop retires on a million-request
// open-loop trace. An event is one arrival or one service-slot completion
// (coalesced slots complete once for the whole group), so the count is a
// property of the modeled run, fully deterministic, and identical across
// repetitions; only the wall time varies.
//
// Two scenarios bracket the hot paths:
//   * poisson-shortest-queue — one graph, 4 dies, rho 0.9: the plain
//     event loop (heap pops, queue moves, estimate refresh) with nothing
//     warmth- or batching-shaped to hide behind.
//   * warm-coalescing-mix — two graphs 4:1, warmth on with a one-plan
//     budget, max_coalesce 8, rho 1.1: deep queues, per-fingerprint drain
//     scans, warmth touches and swap charging all on the clock.
//
// Each scenario runs --reps times over the same prebuilt trace and reports
// the best (minimum) wall time — best-of-N is the standard way to shave
// scheduler noise off a CPU-bound measurement. A per-run FNV-1a checksum
// over every record must agree across repetitions (the simulator is
// deterministic; disagreement is a bug and exits non-zero).
//
// Emits one JSON object (stdout by default, --json=PATH for a file) that
// scripts/check_bench.py gates against bench/baseline_throughput.json in
// the Release CI leg. The checked-in baseline is a conservative floor, not
// a measured median — see that file and README "Simulator performance".
//
//   $ ./bench_serve_throughput --requests=1000000 --scale=0.03
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/cluster.hpp"

namespace {

/// FNV-1a over the fields that pin a record's identity; the simulator is
/// deterministic, so every repetition must produce the same fold.
std::uint64_t fold_records(const gnnie::ServingReport& rep) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const gnnie::RequestRecord& r : rep.requests) {
    mix(r.die);
    mix(r.start);
    mix(r.finish);
    mix(r.group_size);
  }
  return h;
}

struct ScenarioResult {
  std::string name;
  std::uint64_t events = 0;  ///< arrivals + service-slot completions
  double best_seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t checksum = 0;
};

/// Runs `trace` on `cluster` opt.reps times, keeps the best wall time, and
/// insists the record checksum never moves between repetitions.
ScenarioResult run_scenario(const std::string& name, const gnnie::serve::Cluster& cluster,
                            const gnnie::serve::RequestTrace& trace,
                            const gnnie::serve::Scheduler& scheduler,
                            const gnnie::bench::BenchOptions& opt) {
  using clock = std::chrono::steady_clock;
  ScenarioResult result;
  result.name = name;
  for (std::size_t rep = 0; rep < opt.reps; ++rep) {
    const auto t0 = clock::now();
    const gnnie::ServingReport report = cluster.simulate(trace, {.custom_scheduler = &scheduler});
    const double seconds = std::chrono::duration<double>(clock::now() - t0).count();
    const std::uint64_t checksum = fold_records(report);
    if (rep == 0) {
      result.checksum = checksum;
      result.events = static_cast<std::uint64_t>(report.requests.size()) +
                      report.total_groups();
      result.best_seconds = seconds;
    } else {
      if (checksum != result.checksum) {
        std::fprintf(stderr, "%s: repetition %zu produced a different record checksum\n",
                     name.c_str(), rep);
        std::exit(1);
      }
      result.best_seconds = std::min(result.best_seconds, seconds);
    }
  }
  result.events_per_sec = static_cast<double>(result.events) / result.best_seconds;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gnnie;
  bench::BenchOptions defaults;
  defaults.requests = 1'000'000;
  const bench::BenchOptions opt =
      bench::parse_options(argc, argv, bench::kServe | bench::kReps, defaults);

  bench::print_banner("Serving: simulator wall-clock throughput",
                      "the event loop retires a million-request trace in seconds, not minutes");

  bench::Workload w =
      bench::make_workload(spec_of(DatasetId::kCora), opt.scale, GnnKind::kGcn, opt.seed);
  bench::Workload w2 = bench::make_workload(spec_of(DatasetId::kCiteseer), opt.scale,
                                            GnnKind::kGcn, opt.seed + 1);
  DatasetSpec w2_spec = w2.data.spec;
  w2_spec.feature_length = w.data.spec.feature_length;  // one model, both graphs
  SparseMatrix features_b = generate_features(w2_spec, opt.seed + 2);

  const std::size_t dies = 4;
  auto scheduler = serve::Scheduler::make(serve::SchedulerKind::kShortestQueue);
  std::vector<ScenarioResult> results;

  // Scenario 1: plain event loop, one graph at rho 0.9.
  {
    Engine engine(EngineConfig::paper_default(false));
    CompiledModel compiled = engine.compile(w.model, w.weights);
    GraphPlanPtr plan = compiled.plan(w.data.graph);
    const Cycles service = compiled.cost({plan, &w.data.features}).total_cycles;
    const double mean_gap = static_cast<double>(service) / (0.9 * static_cast<double>(dies));
    serve::RequestTrace trace = serve::RequestTrace::poisson(
        {{plan, &w.data.features}}, opt.requests, mean_gap, opt.seed);
    serve::Cluster cluster(compiled, dies);
    results.push_back(
        run_scenario("poisson-shortest-queue", cluster, trace, *scheduler, opt));
  }

  // Scenario 2: warmth + coalescing under overload (rho 1.1) on a 4:1 mix.
  {
    EngineConfig config = EngineConfig::paper_default(false);
    config.batching.max_coalesce = 8;
    Engine engine(config);
    CompiledModel compiled = engine.compile(w.model, w.weights);
    GraphPlanPtr plan_a = compiled.plan(w.data.graph);
    GraphPlanPtr plan_b = compiled.plan(w2.data.graph);
    // Re-compile with warmth on and a one-plan budget (working sets are
    // warmth-independent, so the cold plans size the budget).
    config.warmth.enabled = true;
    config.warmth.die_budget_bytes =
        std::max(plan_a->warm_working_set_bytes(), plan_b->warm_working_set_bytes());
    Engine warm_engine(config);
    CompiledModel warm_compiled = warm_engine.compile(w.model, w.weights);
    GraphPlanPtr warm_a = warm_compiled.plan(w.data.graph);
    GraphPlanPtr warm_b = warm_compiled.plan(w2.data.graph);
    const Cycles cost_a = warm_compiled.cost({warm_a, &w.data.features}).total_cycles;
    const Cycles cost_b = warm_compiled.cost({warm_b, &features_b}).total_cycles;
    const double mean_service = (4.0 * cost_a + cost_b) / 5.0;
    const double mean_gap = mean_service / (1.1 * static_cast<double>(dies));
    serve::RequestTrace trace = serve::RequestTrace::poisson(
        {{warm_a, &w.data.features, 4.0}, {warm_b, &features_b, 1.0}}, opt.requests,
        mean_gap, opt.seed);
    serve::Cluster cluster(warm_compiled, dies);
    results.push_back(run_scenario("warm-coalescing-mix", cluster, trace, *scheduler, opt));
  }

  std::ostringstream json;
  json << "{\"requests\":" << opt.requests << ",\"scale\":" << opt.scale
       << ",\"seed\":" << opt.seed << ",\"reps\":" << opt.reps << ",\"scenarios\":[";
  std::printf("%-26s %14s %12s %16s %18s\n", "scenario", "events", "best (s)",
              "events/sec", "checksum");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::printf("%-26s %14llu %12.3f %16.0f %018llx\n", r.name.c_str(),
                (unsigned long long)r.events, r.best_seconds, r.events_per_sec,
                (unsigned long long)r.checksum);
    char checksum_hex[32];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                  (unsigned long long)r.checksum);
    json << (i == 0 ? "" : ",") << "{\"name\":\"" << r.name << "\",\"events\":" << r.events
         << ",\"best_seconds\":" << r.best_seconds
         << ",\"events_per_sec\":" << r.events_per_sec << ",\"checksum\":\"" << checksum_hex
         << "\"}";
  }
  json << "]}";

  if (!bench::write_json(json.str(), opt.json_path)) return 1;
  std::printf(
      "\nEvents/sec is wall-clock, so compare like builds only: the CI gate\n"
      "runs Release without sanitizers against a deliberately conservative\n"
      "baseline floor (bench/baseline_throughput.json).\n");
  return 0;
}
