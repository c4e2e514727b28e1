// Extension ablation (beyond the paper's figures): the full
// cache-policy family side by side, anchored to the offline-optimal oracle —
//   * GNNIE's degree-aware policy (CP, §VI),
//   * the same subgraph machinery with an ID-ordered layout,
//   * an on-demand LRU pull baseline (HyGCN-style, random DRAM on miss),
//   * the set-aware layout (deals hubs across blocks; §VI/Fig. 9 conflicts),
//   * the DCI-style dual cache (pinned hubs + LRU fill, split searched per
//     workload over the recorded access trace),
//   * the Belady oracle (offline-optimal replacement over the trace).
// Every policy's replayed hit rate is reported as a fraction of the
// oracle's — the optimality yardstick — alongside the engine's actual
// cycles and DRAM traffic under a 4-way set-associative input buffer.
// All five datasets, GCN aggregation, feature width 128.
//
// --json=PATH emits the run as one JSON object for scripts/check_bench.py
// (gated in CI against bench/baseline_cache.json).
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cache/alloc.hpp"
#include "common/table.hpp"
#include "core/aggregation.hpp"

int main(int argc, char** argv) {
  using namespace gnnie;

  const auto opt =
      bench::parse_options(argc, argv, bench::kSeedScaleDatasets | bench::kJson);

  bench::print_banner(
      "Extension: cache-policy ablation vs the Belady oracle",
      "degree-aware beats ID-order and on-demand; dual-cache closes part of "
      "the remaining gap to offline-optimal on skewed workloads");

  const std::vector<std::string> datasets =
      opt.datasets.empty() ? std::vector<std::string>{"CR", "CS", "PB", "PPI", "RD"}
                           : opt.datasets;
  constexpr std::size_t kFeatureWidth = 128;
  constexpr std::uint32_t kAssociativity = 4;  // Fig. 9's 4-way buffer model

  Table t({"dataset", "policy", "hit rate", "frac of oracle", "cycles", "DRAM MB",
           "conflict evict"});
  std::ostringstream json;
  json << "{\"scale\":" << opt.scale << ",\"seed\":" << opt.seed
       << ",\"feature_width\":" << kFeatureWidth
       << ",\"associativity\":" << kAssociativity << ",\"workloads\":[";

  for (std::size_t di = 0; di < datasets.size(); ++di) {
    const DatasetSpec& spec = spec_by_short_name(datasets[di]);
    const double scale = opt.scale_for(spec);
    Dataset d = generate_dataset(spec.scaled(scale), opt.seed);
    const Csr& g = d.graph;
    Matrix hw(g.vertex_count(), kFeatureWidth, 0.5f);

    EngineConfig cfg = EngineConfig::paper_default(spec.vertices > 10000);
    cfg.cache.associativity = kAssociativity;
    const std::uint64_t capacity = AggregationEngine::cache_capacity_for(
        cfg, g, kFeatureWidth, AggKind::kGcnNormalizedSum);
    const cache::WorkloadCacheAnalysis analysis = cache::analyze_workload(g, capacity);

    json << (di == 0 ? "" : ",") << "{\"dataset\":\"" << datasets[di]
         << "\",\"capacity\":" << capacity
         << ",\"trace_accesses\":" << analysis.trace_accesses
         << ",\"oracle\":{\"hit_rate\":" << analysis.oracle.hit_rate()
         << ",\"fetches\":" << analysis.oracle.fetches << "},\"policies\":[";

    for (std::size_t pi = 0; pi < analysis.policies.size(); ++pi) {
      const auto& entry = analysis.policies[pi];
      const auto policy = CachePolicy::make(entry.kind);

      AggregationTask task;
      task.graph = &g;
      task.hw = &hw;
      task.kind = AggKind::kGcnNormalizedSum;
      task.policy = policy.get();
      HbmModel hbm(cfg.hbm);
      AggregationEngine eng(cfg, &hbm);
      AggregationReport rep;
      eng.run(task, &rep);
      const double dram_mb = static_cast<double>(rep.dram_bytes) / 1048576.0;

      char hit[32], frac[32];
      std::snprintf(hit, sizeof(hit), "%.1f%%", 100.0 * entry.replay.hit_rate());
      std::snprintf(frac, sizeof(frac), "%.3f", entry.fraction_of_oracle);
      t.add_row({bench::scale_note(spec, scale), policy->name(), hit, frac,
                 Table::cell(rep.total_cycles), Table::cell(dram_mb),
                 Table::cell(rep.set_conflict_evictions)});

      json << (pi == 0 ? "" : ",") << "{\"policy\":\"" << policy->name()
           << "\",\"hit_rate\":" << entry.replay.hit_rate()
           << ",\"fraction_of_oracle\":" << entry.fraction_of_oracle
           << ",\"fetches\":" << entry.replay.fetches
           << ",\"cycles\":" << rep.total_cycles << ",\"dram_mb\":" << dram_mb << "}";
    }
    json << "]}";
  }
  json << "]}";
  std::printf("%s", t.render().c_str());

  if (!bench::write_json(json.str(), opt.json_path)) return 1;
  std::printf(
      "\nHit rates are trace replays over one shared access sequence; the oracle\n"
      "row is offline-optimal, so every fraction-of-oracle is <= 1 by theorem.\n");
  return 0;
}
