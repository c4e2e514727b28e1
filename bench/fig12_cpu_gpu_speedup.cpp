// Fig. 12 — GNNIE speedup over (a) PyG-CPU and (b) PyG-GPU for all five
// GNNs across the datasets. Paper averages: (a) GCN 18556×, GAT 12120×,
// SAGE 1827×, GIN 72954×, DiffPool 615×; (b) GCN 11×, GAT 416×,
// SAGE 2427×, GIN 412×, DiffPool 231×. The claim under test is the SHAPE:
// GIN ≫ GCN ≈ GAT ≫ SAGE ≫ DiffPool on CPU, and the GPU compressing
// dense-friendly models (GCN, DiffPool) far more than irregular ones.
#include <cmath>
#include <cstdio>

#include "baselines/sw_platform.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv);

  bench::print_banner(
      "Fig. 12: GNNIE speedup vs PyG-CPU (a) and PyG-GPU (b)",
      "avg CPU speedups GCN 18556x GAT 12120x SAGE 1827x GIN 72954x DiffPool 615x; "
      "avg GPU speedups GCN 11x GAT 416x SAGE 2427x GIN 412x DiffPool 231x");

  SoftwareBaseline cpu(SoftwarePlatformConfig::pyg_cpu());
  SoftwareBaseline gpu(SoftwarePlatformConfig::pyg_gpu());

  const double paper_cpu[] = {18556, 1827, 12120, 72954, 615};
  const double paper_gpu[] = {11, 2427, 416, 412, 231};

  std::vector<std::string> datasets =
      opt.datasets.empty() ? std::vector<std::string>{"CR", "CS", "PB", "PPI", "RD"}
                           : opt.datasets;

  Table t({"GNN", "dataset", "GNNIE (s)", "PyG-CPU (s)", "PyG-GPU (s)", "speedup CPU",
           "speedup GPU"});
  std::size_t kind_idx = 0;
  for (GnnKind kind : all_gnn_kinds()) {
    double geo_cpu = 1.0, geo_gpu = 1.0;
    int count = 0;
    for (const auto& name : datasets) {
      const DatasetSpec& spec = spec_by_short_name(name);
      const double scale = opt.scale_for(spec);
      bench::Workload w = bench::make_workload(spec, scale, kind, opt.seed);
      EngineConfig cfg = EngineConfig::paper_default(spec.vertices > 10000);
      const InferenceReport rep = bench::run_gnnie(w, cfg);
      const Seconds t_gnnie = rep.runtime_seconds();
      const Seconds t_cpu = cpu.predict_runtime(w.model, w.data.graph, w.data.features);
      const Seconds t_gpu = gpu.predict_runtime(w.model, w.data.graph, w.data.features);
      geo_cpu *= t_cpu / t_gnnie;
      geo_gpu *= t_gpu / t_gnnie;
      ++count;
      t.add_row({to_string(kind), bench::scale_note(spec, scale), format_sci(t_gnnie),
                 format_sci(t_cpu), format_sci(t_gpu), Table::cell(t_cpu / t_gnnie),
                 Table::cell(t_gpu / t_gnnie)});
    }
    const double avg_cpu = std::pow(geo_cpu, 1.0 / count);
    const double avg_gpu = std::pow(geo_gpu, 1.0 / count);
    char summary[160];
    std::snprintf(summary, sizeof(summary), "geomean %.3g (paper avg %.5g)", avg_cpu,
                  paper_cpu[kind_idx]);
    char summary_gpu[160];
    std::snprintf(summary_gpu, sizeof(summary_gpu), "geomean %.3g (paper avg %.5g)", avg_gpu,
                  paper_gpu[kind_idx]);
    t.add_row({to_string(kind), "== avg ==", "", "", "", summary, summary_gpu});
    ++kind_idx;
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nNote: PyG-CPU/GPU are analytic roofline models; absolute\n"
      "speedups depend on their throughput constants — the claim checked here is the\n"
      "per-model ordering and the CPU/GPU contrast.\n");
  return 0;
}
