// Table II — dataset statistics. Regenerates the paper's table from the
// synthetic stat-matched datasets and reports the graph properties the
// introduction quotes (adjacency sparsity > 99.8% for the citation graphs,
// Reddit's "11% of vertices cover 88% of edges").
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "graph/stats.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv);

  bench::print_banner(
      "Table II: Dataset Information",
      "CR 2708/10556/1433/98.73%  CS 3327/9104/3703/99.15%  PB 19717/88648/500/90%  "
      "PPI 56944/1.63M/50/98.1%  RD 232965/114.6M/602/48.4%");

  Table t({"Dataset", "Vertices", "Edges", "FeatLen", "FeatSparsity(paper)",
           "FeatSparsity(gen)", "AdjSparsity", "Top11%EdgeCover", "MaxDeg/MeanDeg"});
  for (const DatasetSpec& spec : table2_specs()) {
    if (!opt.datasets.empty() &&
        std::find(opt.datasets.begin(), opt.datasets.end(), spec.short_name) ==
            opt.datasets.end()) {
      continue;
    }
    const double scale = opt.scale_for(spec);
    Dataset d = generate_dataset(spec.scaled(scale), opt.seed);
    DegreeStats s = compute_degree_stats(d.graph);
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1f",
                  s.mean_degree > 0 ? s.max_degree / s.mean_degree : 0.0);
    t.add_row({bench::scale_note(spec, scale), Table::cell(std::uint64_t{d.graph.vertex_count()}),
               Table::cell(d.graph.edge_count()),
               Table::cell(std::uint64_t{d.spec.feature_length}),
               Table::cell(spec.feature_sparsity), Table::cell(d.features.sparsity()),
               Table::cell(d.graph.adjacency_sparsity()), Table::cell(s.edge_coverage_top11),
               ratio});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nNote: PPI/RD run at --scale=%g (mean degree preserved); CR/CS/PB full size.\n",
              opt.scale);
  return 0;
}
