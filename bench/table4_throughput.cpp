// Table IV — throughput (TOPS): the array's peak and the effective TOPS
// achieved on Cora, Citeseer, Pubmed (GCN, Table III config). Paper: peak
// 3.17, CR 2.88, CS 2.69, PB 2.57 — throughput degrades only moderately
// with graph size.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv, bench::BenchFlags::kSeed);

  bench::print_banner("Table IV: Throughput (TOPS)",
                      "peak 3.17; CR 2.88, CS 2.69, PB 2.57 — moderate degradation with size");

  const double peak_tops = EngineConfig::paper_default(true).peak_tops();
  Table t({"point", "TOPS (measured)", "TOPS (paper)", "fraction of peak"});
  t.add_row({"Peak", Table::cell(peak_tops), "3.17", "1.00"});

  const double paper[] = {2.88, 2.69, 2.57};
  int i = 0;
  for (const char* name : {"CR", "CS", "PB"}) {
    const DatasetSpec& spec = spec_by_short_name(name);
    bench::Workload w = bench::make_workload(spec, 1.0, GnnKind::kGcn, opt.seed);
    EngineConfig cfg = EngineConfig::paper_default(spec.vertices > 10000);
    const InferenceReport rep = bench::run_gnnie(w, cfg);
    char frac[32];
    std::snprintf(frac, sizeof(frac), "%.2f", rep.effective_tops() / peak_tops);
    t.add_row({name, Table::cell(rep.effective_tops()), Table::cell(paper[i]), frac});
    ++i;
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nEffective TOPS counts useful ops (zero-skipped MACs excluded), so sparse\n"
      "inputs and memory-bound aggregation phases lower it below peak.\n");
  return 0;
}
