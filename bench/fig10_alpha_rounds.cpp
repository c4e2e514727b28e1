// Fig. 10 — histogram of α (unprocessed-edge counts) in the input buffer
// across cache Rounds (Pubmed). The paper's point: the initial distribution
// mirrors the power-law degree distribution, and each Round flattens it —
// both the peak frequency and the maximum α shrink.
#include <cstdio>

#include "bench_util.hpp"
#include "core/aggregation.hpp"
#include "nn/reference.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;
  const auto opt = bench::parse_options(argc, argv, bench::BenchFlags::kSeed);

  bench::print_banner("Fig. 10: Histogram of alpha through Rounds (Pubmed)",
                      "histogram grows flatter every Round: peak frequency and max alpha drop");

  Dataset d = generate_dataset(spec_of(DatasetId::kPubmed), opt.seed);
  Matrix hw(d.graph.vertex_count(), 128, 0.5f);

  EngineConfig cfg = EngineConfig::paper_default(true);
  HbmModel hbm(cfg.hbm);
  AggregationEngine eng(cfg, &hbm);
  AggregationTask task;
  task.graph = &d.graph;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;
  AggregationReport rep;
  eng.run(task, &rep);

  std::printf("cache capacity: %llu vertices, gamma=%u, rounds=%llu, iterations=%llu\n\n",
              (unsigned long long)rep.cache_capacity_vertices, cfg.cache.gamma,
              (unsigned long long)rep.rounds, (unsigned long long)rep.iterations);
  for (std::size_t r = 0; r < rep.alpha_round_histograms.size(); ++r) {
    const Histogram& h = rep.alpha_round_histograms[r];
    std::printf("--- Round %zu snapshot: peak=%llu  max_alpha<=%.0f  cached=%llu ---\n", r,
                (unsigned long long)h.peak(), h.max_nonempty_edge(),
                (unsigned long long)h.total());
    std::printf("%s\n", h.render(55).c_str());
  }
  return 0;
}
