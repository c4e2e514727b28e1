// Fig. 13 — cross-accelerator comparison: GNNIE vs HyGCN (GCN, GraphSAGE,
// GINConv) and vs AWB-GCN (GCN only). Paper: 25× over HyGCN on GCN, 72× on
// GraphSAGE, 7× on GINConv (35× overall), and 2.1× over AWB-GCN with 3.4×
// fewer MACs. Neither comparator supports GAT/DiffPool (§VII).
#include <cmath>
#include <cstdio>

#include "baselines/awb_gcn.hpp"
#include "baselines/hygcn.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv);

  bench::print_banner(
      "Fig. 13: GNNIE vs HyGCN and AWB-GCN",
      "avg speedup over HyGCN: GCN 25x, GraphSAGE 72x, GINConv 7x (35x overall); "
      "over AWB-GCN (GCN only): 2.1x with 3.4x fewer MACs");

  HygcnModel hygcn;
  AwbGcnModel awb;

  std::vector<std::string> datasets =
      opt.datasets.empty() ? std::vector<std::string>{"CR", "CS", "PB", "PPI", "RD"}
                           : opt.datasets;

  const struct {
    GnnKind kind;
    double paper_hygcn;
  } rows[] = {{GnnKind::kGcn, 25.0}, {GnnKind::kGraphSage, 72.0}, {GnnKind::kGinConv, 7.0}};

  Table t({"GNN", "dataset", "GNNIE (s)", "HyGCN (s)", "AWB-GCN (s)", "vs HyGCN",
           "vs AWB-GCN"});
  for (const auto& row : rows) {
    double geo_h = 1.0, geo_a = 1.0;
    int count = 0, count_a = 0;
    for (const auto& name : datasets) {
      const DatasetSpec& spec = spec_by_short_name(name);
      const double scale = opt.scale_for(spec);
      bench::Workload w = bench::make_workload(spec, scale, row.kind, opt.seed);
      EngineConfig cfg = EngineConfig::paper_default(spec.vertices > 10000);
      const Seconds t_gnnie = bench::run_gnnie(w, cfg).runtime_seconds();
      const Seconds t_hygcn =
          hygcn.run(w.model, w.data.graph, w.data.features).runtime_seconds;
      std::string awb_cell = "n/a";
      std::string awb_speedup = "n/a";
      if (AwbGcnModel::supports(row.kind)) {
        const Seconds t_awb = awb.run(w.model, w.data.graph, w.data.features).runtime_seconds;
        awb_cell = format_sci(t_awb);
        awb_speedup = Table::cell(t_awb / t_gnnie);
        geo_a *= t_awb / t_gnnie;
        ++count_a;
      }
      geo_h *= t_hygcn / t_gnnie;
      ++count;
      t.add_row({to_string(row.kind), bench::scale_note(spec, scale), format_sci(t_gnnie),
                 format_sci(t_hygcn), awb_cell, Table::cell(t_hygcn / t_gnnie), awb_speedup});
    }
    char h_sum[96];
    std::snprintf(h_sum, sizeof(h_sum), "geomean %.3g (paper %.3g)",
                  std::pow(geo_h, 1.0 / count), row.paper_hygcn);
    std::string a_sum = "n/a";
    if (count_a > 0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "geomean %.3g (paper 2.1)",
                    std::pow(geo_a, 1.0 / count_a));
      a_sum = buf;
    }
    t.add_row({to_string(row.kind), "== avg ==", "", "", "", h_sum, a_sum});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nGNNIE uses %u MACs; AWB-GCN uses %u (%.1fx more).\n",
              ArrayConfig::design_e().total_macs(), kAwbGcnMacs,
              static_cast<double>(kAwbGcnMacs) / ArrayConfig::design_e().total_macs());
  std::printf("HyGCN/AWB-GCN cannot run GAT or DiffPool (no neighborhood softmax; §VII).\n");
  return 0;
}
