// Scenario: a GAT deep-dive. Demonstrates (a) the §V-A reordering that
// turns O(|V||E|) attention-vector multiplication into O(|V|+|E|) and the
// cycle savings it buys, and (b) the accuracy of the SFU's LUT-based exp
// against libm, end to end through attention coefficients.
//
//   $ ./example_attention_study
#include <cmath>
#include <cstdio>

#include "arch/sfu.hpp"
#include "common/rng.hpp"
#include "core/attention.hpp"
#include "core/engine_config.hpp"
#include "datasets/synthetic.hpp"
#include "nn/model.hpp"
#include "nn/reference.hpp"

int main() {
  using namespace gnnie;

  Dataset data = generate_dataset(DatasetId::kPubmed, 1.0, 3);
  const std::size_t f = 128;

  // Weighted features ηw (random stand-in for H·W).
  Rng rng(5);
  Matrix hw(data.graph.vertex_count(), f);
  for (float& x : hw.data()) x = static_cast<float>(rng.next_double(-0.5, 0.5));
  std::vector<float> a1(f), a2(f);
  for (float& x : a1) x = static_cast<float>(rng.next_double(-0.3, 0.3));
  for (float& x : a2) x = static_cast<float>(rng.next_double(-0.3, 0.3));

  EngineConfig cfg = EngineConfig::paper_default(true);
  HbmModel hbm(cfg.hbm);
  AttentionEngine attention(cfg, &hbm);
  AttentionReport rep;
  AttentionResult res = attention.run(hw, a1, a2, &rep);

  const Cycles naive =
      attention.naive_cycles(data.graph.vertex_count(), data.graph.edge_count(), f);
  std::printf("=== §V-A reordering: eij = a1'nw_i + a2'nw_j ===\n");
  std::printf("reordered (O(V+E)): %llu cycles\n", (unsigned long long)rep.total_cycles);
  std::printf("naive (O(V*E) recompute per edge): %llu cycles\n", (unsigned long long)naive);
  std::printf("savings: %.1fx\n\n",
              static_cast<double>(naive) / static_cast<double>(rep.total_cycles));

  // SFU LUT exp vs libm, through the attention coefficient of one vertex.
  SfuExpLut sfu;
  std::printf("=== SFU LUT exp accuracy (%u-entry LUT) ===\n", 1u << kSfuLutLog2Entries);
  std::printf("max relative error over [-20, 10]: %.2e\n",
              sfu.max_relative_error(-20.0f, 10.0f));

  // Worst-case attention-coefficient divergence over the highest-degree
  // vertex's neighborhood.
  VertexId hub = 0;
  for (VertexId v = 1; v < data.graph.vertex_count(); ++v) {
    if (data.graph.degree(v) > data.graph.degree(hub)) hub = v;
  }
  auto nbrs = data.graph.neighbors(hub);
  double denom_ref = 0.0, denom_lut = 0.0;
  std::vector<double> num_ref, num_lut;
  for (VertexId j : nbrs) {
    const float e = res.e1[hub] + res.e2[j];
    const float act = e >= 0.0f ? e : 0.2f * e;
    num_ref.push_back(std::exp(static_cast<double>(act)));
    num_lut.push_back(static_cast<double>(sfu.exp(act)));
    denom_ref += num_ref.back();
    denom_lut += num_lut.back();
  }
  double worst = 0.0;
  for (std::size_t k = 0; k < num_ref.size(); ++k) {
    const double alpha_ref = num_ref[k] / denom_ref;
    const double alpha_lut = num_lut[k] / denom_lut;
    if (alpha_ref > 0.0) worst = std::max(worst, std::fabs(alpha_lut - alpha_ref) / alpha_ref);
  }
  std::printf("hub vertex degree %u: worst attention-coefficient error %.2e\n",
              data.graph.degree(hub), worst);
  std::printf("(prior GAT hardware skipped this normalization entirely — §I)\n");
  return 0;
}
