// Fig. 17 — speedup-gain vs hardware-overhead ratio β (Eq. 9) for Designs
// B–E against the Design-A baseline (1024 MACs), during Weighting on Cora,
// Citeseer, Pubmed. The paper: β falls as MACs are added uniformly
// (B → C → D), while the flexible-MAC Design E achieves the highest β —
// extra MACs placed where the workload needs them.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/weighting.hpp"

namespace {

gnnie::Cycles weighting_cycles(const gnnie::Dataset& d, const gnnie::ArrayConfig& arr,
                               bool binning) {
  using namespace gnnie;
  EngineConfig cfg = EngineConfig::paper_default(d.spec.vertices > 10000);
  cfg.array = arr;
  cfg.opts.workload_binning = binning;
  cfg.opts.load_redistribution = false;
  HbmModel hbm(cfg.hbm);
  WeightingEngine eng(cfg, &hbm);
  ModelConfig m;
  m.kind = GnnKind::kGcn;
  m.input_dim = d.spec.feature_length;
  GnnWeights w = init_weights(m, 21);
  WeightingReport rep;
  eng.run(d.features, w.layers[0].w, &rep);
  return rep.compute_cycles;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv, bench::BenchFlags::kSeed);

  bench::print_banner(
      "Fig. 17: Speedup gain vs hardware overhead (beta, Eq. 9) for Designs B-E",
      "beta drops for uniform designs B->C->D; flexible-MAC Design E has the highest beta");

  struct DesignPoint {
    const char* name;
    ArrayConfig arr;
    bool binning;
  };
  const DesignPoint designs[] = {
      {"B (5 MAC/CPE, 1280)", ArrayConfig::design_b(), false},
      {"C (6 MAC/CPE, 1536)", ArrayConfig::design_c(), false},
      {"D (7 MAC/CPE, 1792)", ArrayConfig::design_d(), false},
      {"E (FM 4/5/6, 1216)", ArrayConfig::design_e(), true},
  };

  Table t({"dataset", "design", "cycles", "baseline cycles", "added MACs", "beta"});
  for (const char* name : {"CR", "CS", "PB"}) {
    Dataset d = generate_dataset(spec_by_short_name(name), opt.seed);
    const Cycles base_cycles = weighting_cycles(d, ArrayConfig::design_a(), false);
    const double base_macs = ArrayConfig::design_a().total_macs();
    for (const DesignPoint& dp : designs) {
      const Cycles cycles = weighting_cycles(d, dp.arr, dp.binning);
      const double added = dp.arr.total_macs() - base_macs;
      const double beta =
          (static_cast<double>(base_cycles) - static_cast<double>(cycles)) / added;
      t.add_row({name, dp.name, Table::cell(cycles), Table::cell(base_cycles),
                 Table::cell(added), Table::cell(beta)});
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nbeta = (baseline cycles - design cycles) / added MACs   (Eq. 9)\n");
  return 0;
}
