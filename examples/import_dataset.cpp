// Scenario: running YOUR graph through GNNIE. Writes a small edge-list
// file (stand-in for a SNAP/Planetoid export), imports it, attaches
// features, runs GCN inference, and saves the bundle in the binary format
// for fast reloading.
//
//   $ ./example_import_dataset [edge_list.txt]
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/report_io.hpp"
#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "graph/io.hpp"
#include "nn/model.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;

  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    // No file given: write a demo edge list (a small synthetic graph).
    path = (std::filesystem::temp_directory_path() / "gnnie_demo_edges.txt").string();
    Dataset demo = generate_dataset(spec_of(DatasetId::kCora).scaled(0.2), 9);
    std::ofstream out(path);
    write_edge_list(out, demo.graph);
    std::printf("no input given — wrote a demo edge list to %s\n", path.c_str());
  }

  // 1. Import. Edge lists are treated as undirected by default.
  EdgeListOptions opt;
  opt.symmetrize = false;  // our demo file already lists both directions
  Csr g = read_edge_list_file(path, opt);
  std::printf("imported: %u vertices, %llu directed edges\n", g.vertex_count(),
              (unsigned long long)g.edge_count());

  // 2. Features: real deployments load them from disk; here we synthesize
  //    a 64-wide 95%-sparse matrix for the imported vertex count.
  DatasetSpec spec = spec_of(DatasetId::kCora);
  spec.vertices = g.vertex_count();
  spec.feature_length = 64;
  spec.feature_sparsity = 0.95;
  SparseMatrix features = generate_features(spec, 3);

  // 3. Inference.
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.input_dim = 64;
  GnnWeights weights = init_weights(model, 5);
  Engine engine(EngineConfig::paper_default(g.vertex_count() > 10000));
  CompiledModel compiled = engine.compile(model, weights);
  InferenceResult res = compiled.run({compiled.plan(g), &features});
  std::printf("inference: %.1f us, %.2f effective TOPS\n",
              res.report.runtime_seconds() * 1e6, res.report.effective_tops());

  // 4. Persist the bundle + the report.
  const std::string bundle =
      (std::filesystem::temp_directory_path() / "gnnie_demo_bundle.bin").string();
  write_binary_file(bundle, g, features);
  std::printf("saved graph+features bundle to %s\n", bundle.c_str());

  const std::string report =
      (std::filesystem::temp_directory_path() / "gnnie_demo_report.json").string();
  std::ofstream rout(report);
  rout << report_to_json(res.report);
  std::printf("saved inference report to %s\n", report.c_str());
  return 0;
}
