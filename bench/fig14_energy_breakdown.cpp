// Fig. 14 — energy breakdown for GCN and GAT across CR/CS/PB, including
// the DRAM energy attributable to each on-chip buffer. Paper: the output
// buffer has the most DRAM transactions (psum spills), weight-buffer
// energy is negligible; total power ≈ 3.9 W.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "energy/energy_model.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv, bench::BenchFlags::kSeed);

  bench::print_banner(
      "Fig. 14: Energy breakdown for GCN and GAT",
      "output-buffer DRAM traffic dominates (psum storage); weight-buffer energy "
      "negligible; power ~3.9 W @ 32 nm");

  Table t({"GNN", "dataset", "E total (J)", "DRAM in", "DRAM out", "DRAM wt", "MAC", "SFU",
           "buffers", "leak", "avg power (W)"});
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kGat}) {
    for (const char* name : {"CR", "CS", "PB"}) {
      const DatasetSpec& spec = spec_by_short_name(name);
      bench::Workload w = bench::make_workload(spec, 1.0, kind, opt.seed);
      EngineConfig cfg = EngineConfig::paper_default(spec.vertices > 10000);
      const InferenceReport rep = bench::run_gnnie(w, cfg);
      const EnergyBreakdown e = compute_energy(rep);
      auto frac = [&](double x) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * x / e.total());
        return std::string(buf);
      };
      t.add_row({to_string(kind), name, format_sci(e.total()), frac(e.dram_input),
                 frac(e.dram_output), frac(e.dram_weight), frac(e.mac), frac(e.sfu),
                 frac(e.input_buffer + e.output_buffer + e.weight_buffer), frac(e.leakage),
                 Table::cell(average_power_w(e, rep))});
    }
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
