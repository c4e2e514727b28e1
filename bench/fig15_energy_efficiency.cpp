// Fig. 15 — energy efficiency (inferences/kJ): GNNIE vs HyGCN vs AWB-GCN
// on GCN across the datasets. Paper ranges: GNNIE 7.4e3–6.7e6, HyGCN
// 2.3e1–5.2e5, AWB-GCN 1.5e2–4.4e5 inferences/kJ — GNNIE dominates on
// every dataset.
#include <cstdio>

#include "baselines/awb_gcn.hpp"
#include "baselines/hygcn.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "energy/energy_model.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv);

  bench::print_banner("Fig. 15: Energy efficiency (inferences/kJ), GCN",
                      "GNNIE 7.4e3-6.7e6 vs HyGCN 2.3e1-5.2e5 vs AWB-GCN 1.5e2-4.4e5; "
                      "GNNIE wins on every dataset");

  HygcnModel hygcn;
  AwbGcnModel awb;
  std::vector<std::string> datasets =
      opt.datasets.empty() ? std::vector<std::string>{"CR", "CS", "PB", "PPI", "RD"}
                           : opt.datasets;

  Table t({"dataset", "GNNIE inf/kJ", "HyGCN inf/kJ", "AWB-GCN inf/kJ", "GNNIE/HyGCN",
           "GNNIE/AWB"});
  for (const auto& name : datasets) {
    const DatasetSpec& spec = spec_by_short_name(name);
    const double scale = opt.scale_for(spec);
    bench::Workload w = bench::make_workload(spec, scale, GnnKind::kGcn, opt.seed);
    EngineConfig cfg = EngineConfig::paper_default(spec.vertices > 10000);
    const InferenceReport rep = bench::run_gnnie(w, cfg);
    const double gnnie_eff = inferences_per_kilojoule(compute_energy(rep));
    const double hygcn_eff = inferences_per_kilojoule(
        kHygcnPowerW, hygcn.run(w.model, w.data.graph, w.data.features).runtime_seconds);
    const double awb_eff = inferences_per_kilojoule(
        kAwbGcnPowerW, awb.run(w.model, w.data.graph, w.data.features).runtime_seconds);
    t.add_row({bench::scale_note(spec, scale), format_sci(gnnie_eff), format_sci(hygcn_eff),
               format_sci(awb_eff), Table::cell(gnnie_eff / hygcn_eff),
               Table::cell(gnnie_eff / awb_eff)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
