// Fig. 18 — effectiveness of GNNIE's optimizations.
//  Left:   Aggregation time under CP, CP+FM, CP+FM+LB relative to a
//          baseline with no degree-aware caching, 4 MACs/CPE, no load
//          balancing (paper: CP cuts aggregation time 11%/35%/80% on
//          CR/CS/PB; CP+FM 17%/39%/82%; CP+FM+LB 47%/69%/87%).
//  Middle: GCN inference time under CP, CP+FM+LR, CP+FM+LR+LB.
//  Right:  GAT inference time under the same stacks.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/aggregation.hpp"

namespace {

using namespace gnnie;

EngineConfig stack_config(bool large, bool fm, bool lr, bool lb) {
  EngineConfig cfg = EngineConfig::paper_default(large);
  cfg.array = fm ? ArrayConfig::design_e() : ArrayConfig::design_a();
  cfg.opts.workload_binning = fm;
  cfg.opts.load_redistribution = lr;
  cfg.opts.aggregation_load_balance = lb;
  return cfg;
}

// CP is the degree-aware cache policy; without it the §VIII-E baseline pulls
// neighbors on demand (random DRAM).
std::shared_ptr<const CachePolicy> stack_policy(bool cp) {
  return CachePolicy::make(cp ? CachePolicyKind::kDegreeAware : CachePolicyKind::kOnDemand);
}

AggregationReport aggregation_report(const Dataset& d, const EngineConfig& cfg, bool cp) {
  Matrix hw(d.graph.vertex_count(), 128, 0.5f);
  HbmModel hbm(cfg.hbm);
  AggregationEngine eng(cfg, &hbm);
  const std::shared_ptr<const CachePolicy> policy = stack_policy(cp);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;
  task.policy = policy.get();
  AggregationReport rep;
  eng.run(task, &rep);
  return rep;
}

void print_reduction_row(Table& t, const char* name, Cycles base, Cycles v1, Cycles v2,
                         Cycles v3, const char* c1, const char* c2, const char* c3) {
  auto pct = [&](Cycles c) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%",
                  100.0 * (1.0 - static_cast<double>(c) / static_cast<double>(base)));
    return std::string(buf);
  };
  t.add_row({name, Table::cell(base), pct(v1) + " " + c1, pct(v2) + " " + c2,
             pct(v3) + " " + c3});
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, bench::BenchFlags::kSeed);

  bench::print_banner(
      "Fig. 18: Effectiveness of GNNIE's optimization methods",
      "Aggregation-time reduction — CP: 11/35/80%, CP+FM: 17/39/82%, CP+FM+LB: 47/69/87% "
      "(CR/CS/PB); inference time drops more for Pubmed than Cora (scalability)");

  std::printf("\n[left] Aggregation time (GCN layer, 128-wide), vs on-demand baseline\n");
  Table agg({"dataset", "baseline cyc", "CP", "CP+FM", "CP+FM+LB"});
  Table aggc({"dataset", "baseline compute cyc", "CP", "CP+FM", "CP+FM+LB (compute-only)"});
  for (const char* name : {"CR", "CS", "PB"}) {
    const DatasetSpec& spec = spec_by_short_name(name);
    const bool large = spec.vertices > 10000;
    Dataset d = generate_dataset(spec, opt.seed);
    const auto base = aggregation_report(d, stack_config(large, false, false, false), false);
    const auto cp = aggregation_report(d, stack_config(large, false, false, false), true);
    const auto cp_fm = aggregation_report(d, stack_config(large, true, false, false), true);
    const auto cp_fm_lb = aggregation_report(d, stack_config(large, true, false, true), true);
    print_reduction_row(agg, name, base.total_cycles, cp.total_cycles, cp_fm.total_cycles,
                        cp_fm_lb.total_cycles, "(paper 11/35/80)", "(paper 17/39/82)",
                        "(paper 47/69/87)");
    print_reduction_row(aggc, name, base.compute_cycles, cp.compute_cycles,
                        cp_fm.compute_cycles, cp_fm_lb.compute_cycles, "", "", "");
  }
  std::printf("%s", agg.render().c_str());
  std::printf(
      "\nCompute-only view (our HBM model leaves aggregation memory-bound, which\n"
      "hides FM/LB in end-to-end time; the compute-side effect of FM/LB is below):\n");
  std::printf("%s", aggc.render().c_str());

  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kGat}) {
    std::printf("\n[%s] full inference time\n", kind == GnnKind::kGcn ? "middle" : "right");
    Table inf({"dataset", "baseline cyc", "CP", "CP+FM+LR", "CP+FM+LR+LB"});
    for (const char* name : {"CR", "CS", "PB"}) {
      const DatasetSpec& spec = spec_by_short_name(name);
      const bool large = spec.vertices > 10000;
      bench::Workload w = bench::make_workload(spec, 1.0, kind, opt.seed);
      const Cycles base =
          bench::run_gnnie(w, stack_config(large, false, false, false), stack_policy(false))
              .total_cycles;
      const Cycles cp =
          bench::run_gnnie(w, stack_config(large, false, false, false), stack_policy(true))
              .total_cycles;
      const Cycles cp_fl =
          bench::run_gnnie(w, stack_config(large, true, true, false), stack_policy(true))
              .total_cycles;
      const Cycles cp_all =
          bench::run_gnnie(w, stack_config(large, true, true, true), stack_policy(true))
              .total_cycles;
      print_reduction_row(inf, name, base, cp, cp_fl, cp_all, "", "", "");
    }
    std::printf("%s", inf.render().c_str());
  }
  return 0;
}
