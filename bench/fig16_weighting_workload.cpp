// Fig. 16 — per-CPE-row workload during Weighting: baseline (no load
// balancing) vs FM (flexible-MAC binning) vs FM+LR, on Cora, Citeseer,
// and Pubmed. The paper reports FM alone cuts weighting cycles by 6% (CR),
// 14% (CS), 31% (PB), and LR further smooths the max-min spread.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/weighting.hpp"
#include "nn/reference.hpp"

namespace {

gnnie::WeightingReport run_weighting(const gnnie::Dataset& d, bool binning, bool lr) {
  using namespace gnnie;
  EngineConfig cfg = EngineConfig::paper_default(d.spec.vertices > 10000);
  // §VIII-E: the baseline is Design A (4 MACs/CPE uniform, no reordering);
  // FM and FM+LR use the flexible-MAC Design E.
  cfg.array = binning ? ArrayConfig::design_e() : ArrayConfig::design_a();
  cfg.opts.workload_binning = binning;
  cfg.opts.load_redistribution = lr;
  HbmModel hbm(cfg.hbm);
  WeightingEngine eng(cfg, &hbm);
  ModelConfig m;
  m.kind = GnnKind::kGcn;
  m.input_dim = d.spec.feature_length;
  GnnWeights w = init_weights(m, 11);
  WeightingReport rep;
  eng.run(d.features, w.layers[0].w, &rep);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv, bench::BenchFlags::kSeed);

  bench::print_banner("Fig. 16: CPE row workload in Weighting (baseline vs FM vs FM+LR)",
                      "FM reduces weighting cycles by 6% (CR), 14% (CS), 31% (PB); "
                      "LR further shrinks the max-min spread");

  const double paper_fm_reduction[3] = {0.06, 0.14, 0.31};
  int idx = 0;
  for (const char* name : {"CR", "CS", "PB"}) {
    const DatasetSpec& spec = spec_by_short_name(name);
    Dataset d = generate_dataset(spec, opt.seed);

    WeightingReport base = run_weighting(d, false, false);
    WeightingReport fm = run_weighting(d, true, false);
    WeightingReport fmlr = run_weighting(d, true, true);

    std::printf("\n--- %s ---\n", name);
    Table t({"row", "baseline cyc", "FM cyc", "FM+LR cyc"});
    for (std::size_t r = 0; r < base.row_cycles.size(); ++r) {
      t.add_row({Table::cell(std::uint64_t{r}), Table::cell(base.row_cycles[r]),
                 Table::cell(fm.row_cycles[r]), Table::cell(fmlr.row_cycles[r])});
    }
    std::printf("%s", t.render().c_str());

    const double fm_red =
        1.0 - static_cast<double>(fm.compute_cycles) / static_cast<double>(base.compute_cycles);
    const double fmlr_red = 1.0 - static_cast<double>(fmlr.compute_cycles) /
                                      static_cast<double>(base.compute_cycles);
    std::printf("spread: baseline=%llu  FM=%llu  FM+LR=%llu\n",
                (unsigned long long)base.row_spread(), (unsigned long long)fm.row_spread(),
                (unsigned long long)fmlr.row_spread());
    std::printf("cycle reduction: FM=%.1f%% (paper %.0f%%)   FM+LR=%.1f%%\n", 100.0 * fm_red,
                100.0 * paper_fm_reduction[idx], 100.0 * fmlr_red);
    ++idx;
  }
  return 0;
}
