// SLO attainment vs fleet cost: what a deadline buys per MAC.
//
// A skewed two-tenant deadline trace (synthetic Cora 4:1 over Citeseer;
// the hot stream carries a tight SLO with a quarter service time of
// queueing slack past the slowest design, the cold stream a loose one)
// is replayed over a set of fleet mixes — homogeneous design-A,
// homogeneous design-E, and the mixed EEAA fleet — under the slack-aware
// scheduler with shed-hopeless admission. Each fleet is swept over offered load ρ
// relative to its own aggregate capacity, so the curves compare what a
// fleet's MAC budget buys in attainment at the same relative pressure,
// not just at the same arrival rate.
//
// Emits one JSON object (stdout by default, --json=PATH for a file):
// per-fleet {mix, cost, dies, points[{rho, slo_attainment, ...}]}, which
// scripts/check_bench.py gates against bench/baseline_slo.json in CI.
// Exits non-zero if the emitted JSON is malformed:
//
// The (fleet, rho) cells are independent — one trace seed, a stateless
// scheduler/admission pair, const thread-safe Cluster::simulate — so they
// are replayed with bench::parallel_for and emitted serially in the
// original order (output is byte-identical to the sequential loop).
//
//   $ ./bench_serve_slo_vs_cost --requests=64 --scale=0.03
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/cluster.hpp"
#include "serve/fleet.hpp"
#include "serve/slo.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const bench::BenchOptions opt = bench::parse_options(argc, argv, bench::kServe);

  bench::print_banner("Serving: SLO attainment vs fleet cost",
                      "mixed fleets buy deadline attainment per MAC that uniform ones cannot");

  // Two tenants, one model: synthetic Cora (hot, tight SLO) and synthetic
  // Citeseer at the same feature width (cold, loose SLO).
  bench::Workload w =
      bench::make_workload(spec_of(DatasetId::kCora), opt.scale, GnnKind::kGcn, opt.seed);
  bench::Workload w2 = bench::make_workload(spec_of(DatasetId::kCiteseer), opt.scale,
                                            GnnKind::kGcn, opt.seed + 1);
  DatasetSpec w2_spec = w2.data.spec;
  w2_spec.feature_length = w.data.spec.feature_length;
  SparseMatrix features_b = generate_features(w2_spec, opt.seed + 2);

  // The reference model every fleet serves (paper-default design A).
  Engine engine(EngineConfig::paper_default(false));
  CompiledModel compiled = engine.compile(w.model, w.weights);
  GraphPlanPtr plan_a = compiled.plan(w.data.graph);
  GraphPlanPtr plan_b = compiled.plan(w2.data.graph);

  // Deadlines from the measured service-time spread of the designs in the
  // mixes (which design is faster flips with graph scale, so measure, don't
  // assume). The tight SLO leaves a quarter service time of queueing slack
  // past the slowest design — every idle die can meet it, so attainment is
  // decided by routing and queueing, not by a die being categorically
  // hopeless. The loose SLO only fails behind a deep queue.
  CompiledModel on_a = Engine(EngineConfig::design_point('A', false))
                           .compile(w.model, w.weights);
  CompiledModel on_e = Engine(EngineConfig::design_point('E', false))
                           .compile(w.model, w.weights);
  const Cycles cost_on_a =
      on_a.cost({on_a.plan(w.data.graph), &w.data.features}).total_cycles;
  const Cycles cost_on_e =
      on_e.cost({on_e.plan(w.data.graph), &w.data.features}).total_cycles;
  const Cycles cost_slow = std::max(cost_on_a, cost_on_e);
  const auto tight_slo = static_cast<std::int64_t>(cost_slow + cost_slow / 4);
  const auto loose_slo = static_cast<std::int64_t>(8 * cost_slow);
  std::printf("tight SLO %lld cycles (design A %llu, design E %llu), loose SLO %lld\n\n",
              (long long)tight_slo, (unsigned long long)cost_on_a,
              (unsigned long long)cost_on_e, (long long)loose_slo);

  serve::TraceStream tight{plan_a, &w.data.features, 4.0, tight_slo};
  serve::TraceStream loose{plan_b, &features_b, 1.0, loose_slo};

  const std::vector<std::string> mixes = {"AA", "AAAA", "EEAA", "EEEE"};
  const std::vector<double> rhos = {0.4, 0.6, 0.8, 0.9, 1.0, 1.1};
  auto scheduler = serve::Scheduler::make(serve::SchedulerKind::kSloAware);
  auto admission = serve::AdmissionPolicy::make(serve::AdmissionKind::kShedHopeless);

  std::ostringstream json;
  json << "{\"datasets\":[\"" << w.data.spec.name << "\",\"" << w2.data.spec.name
       << "\"],\"scale\":" << opt.scale << ",\"requests\":" << opt.requests
       << ",\"seed\":" << opt.seed << ",\"tight_slo_cycles\":" << tight_slo
       << ",\"loose_slo_cycles\":" << loose_slo
       << ",\"scheduler\":\"" << scheduler->name()
       << "\",\"admission\":\"" << admission->name() << "\",\"fleets\":[";

  // Per-fleet compiled state built serially, then every (fleet, rho) cell
  // replayed in parallel and emitted serially below.
  struct FleetSetup {
    std::size_t dies = 0;
    double fleet_rate = 0.0;
    std::unique_ptr<serve::Cluster> cluster;
  };
  std::vector<FleetSetup> fleet_setups;
  for (const std::string& mix : mixes) {
    const serve::FleetSpec spec = serve::FleetSpec::from_designs(mix);
    FleetSetup setup;
    setup.dies = spec.die_count();
    setup.cluster = std::make_unique<serve::Cluster>(compiled, spec);

    // Aggregate capacity of this mix: each die serves the 4:1 blend at its
    // own config's mean service time, so the fleet's service rate is the
    // sum of per-die rates and ρ = arrival rate / that sum.
    for (std::size_t d = 0; d < spec.die_count(); ++d) {
      const serve::FleetDieConfig& die_cfg = spec.configs[spec.assignment[d]];
      CompiledModel on_die = Engine(die_cfg.engine).compile(w.model, w.weights);
      const Cycles die_a =
          on_die.cost({on_die.plan(w.data.graph), &w.data.features}).total_cycles;
      const Cycles die_b =
          on_die.cost({on_die.plan(w2.data.graph), &features_b}).total_cycles;
      const double mean_service =
          (4.0 * static_cast<double>(die_a) + static_cast<double>(die_b)) / 5.0;
      setup.fleet_rate += 1.0 / mean_service;
    }
    fleet_setups.push_back(std::move(setup));
  }
  std::vector<ServingReport> fleet_reports(fleet_setups.size() * rhos.size());
  bench::parallel_for(fleet_reports.size(), [&](std::size_t cell) {
    const FleetSetup& setup = fleet_setups[cell / rhos.size()];
    const double mean_gap = 1.0 / (rhos[cell % rhos.size()] * setup.fleet_rate);
    serve::RequestTrace trace =
        serve::RequestTrace::poisson({tight, loose}, opt.requests, mean_gap, opt.seed);
    fleet_reports[cell] = setup.cluster->simulate(
        trace, {.custom_scheduler = scheduler.get(), .custom_admission = admission.get()});
  });

  for (std::size_t mi = 0; mi < mixes.size(); ++mi) {
    const FleetSetup& setup = fleet_setups[mi];
    const serve::Cluster& fleet = *setup.cluster;

    std::printf("--- fleet %s (cost %.2f, %zu dies) ---\n", fleet.fleet().mix_label().c_str(),
                fleet.fleet_cost(), setup.dies);
    std::printf("%8s %12s %12s %12s %10s %14s\n", "rho", "attainment", "tight", "loose",
                "shed", "p99 (cyc)");
    json << (mi == 0 ? "" : ",") << "{\"mix\":\"" << fleet.fleet().mix_label()
         << "\",\"cost\":" << fleet.fleet_cost() << ",\"dies\":" << setup.dies
         << ",\"points\":[";
    for (std::size_t ri = 0; ri < rhos.size(); ++ri) {
      const double rho = rhos[ri];
      const double mean_gap = 1.0 / (rho * setup.fleet_rate);
      const ServingReport& rep = fleet_reports[mi * rhos.size() + ri];
      const double shed_rate =
          static_cast<double>(rep.shed_count()) / static_cast<double>(rep.requests.size());
      std::printf("%8.2f %11.1f%% %11.1f%% %11.1f%% %9.1f%% %14llu\n", rho,
                  100.0 * rep.slo_attainment(), 100.0 * rep.stream_slo_attainment(0),
                  100.0 * rep.stream_slo_attainment(1), 100.0 * shed_rate,
                  (unsigned long long)rep.p99_latency_cycles());
      json << (ri == 0 ? "" : ",") << "{\"rho\":" << rho
           << ",\"mean_gap_cycles\":" << mean_gap
           << ",\"slo_attainment\":" << rep.slo_attainment()
           << ",\"tight_slo_attainment\":" << rep.stream_slo_attainment(0)
           << ",\"loose_slo_attainment\":" << rep.stream_slo_attainment(1)
           << ",\"shed_rate\":" << shed_rate
           << ",\"p99_latency_cycles\":" << rep.p99_latency_cycles()
           << ",\"throughput_per_second\":" << rep.throughput_per_second() << "}";
    }
    json << "]}";
    std::printf("\n");
  }
  json << "]}";

  if (!bench::write_json(json.str(), opt.json_path)) return 1;
  std::printf(
      "\nAt the knee the mixed fleet holds the tight stream's attainment with\n"
      "fewer MACs than the uniform fleets; shedding converts hopeless waits\n"
      "into headroom for requests that can still meet their deadlines.\n");
  return 0;
}
