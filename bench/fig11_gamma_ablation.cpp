// Fig. 11 — ablation on the eviction threshold γ: DRAM accesses during
// Aggregation vs γ for Cora, Citeseer, Pubmed. The paper: larger γ evicts
// more vertices that must be refetched later (more DRAM accesses); too-low
// γ risks deadlock, handled by dynamic escalation (§VI).
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/aggregation.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv, bench::BenchFlags::kSeed);

  bench::print_banner("Fig. 11: Ablation on gamma — DRAM accesses vs eviction threshold",
                      "DRAM accesses increase with gamma (CR, CS, PB); gamma=5 is the default");

  const std::uint32_t gammas[] = {1, 2, 3, 5, 8, 12, 16, 24, 32};
  Table t({"dataset", "gamma", "dram accesses", "dram bytes", "evictions", "refetches",
           "rounds", "gamma escalations"});
  for (const char* name : {"CR", "CS", "PB"}) {
    const DatasetSpec& spec = spec_by_short_name(name);
    Dataset d = generate_dataset(spec, opt.seed);
    Matrix hw(d.graph.vertex_count(), 128, 0.5f);
    for (std::uint32_t gamma : gammas) {
      EngineConfig cfg = EngineConfig::paper_default(spec.vertices > 10000);
      cfg.cache.gamma = gamma;
      HbmModel hbm(cfg.hbm);
      AggregationEngine eng(cfg, &hbm);
      AggregationTask task;
      task.graph = &d.graph;
      task.hw = &hw;
      task.kind = AggKind::kGcnNormalizedSum;
      AggregationReport rep;
      eng.run(task, &rep);
      t.add_row({name, Table::cell(std::uint64_t{gamma}), Table::cell(rep.dram_accesses),
                 Table::cell(rep.dram_bytes), Table::cell(rep.evictions),
                 Table::cell(rep.refetches), Table::cell(rep.rounds),
                 Table::cell(rep.gamma_escalations)});
    }
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
