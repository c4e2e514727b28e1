#include "baselines/hygcn.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace gnnie {
namespace {

// The published design point (Yan et al., HPCA 2020).
constexpr double kHygcnClockHz = 1.0e9;
constexpr std::uint32_t kSimdCores = 32;
constexpr std::uint32_t kSimdWidth = 16;
constexpr std::uint32_t kSystolicMacs = 4608;  // combination engine (32×144)
constexpr double kSystolicUtilization = 0.65;  // no zero skipping, fill/drain
constexpr double kWindowReuse = 0.35;          // shard overlap reuse on sparse graphs
constexpr double kPipelineImbalancePenalty = 0.15;
constexpr double kDramBandwidth = 256.0e9;
// Effective bandwidth fraction for neighbor gathers: irregular accesses at
// cache-line granularity with row-buffer thrash (§VII's "random memory
// access" critique of sharding on highly sparse adjacency).
constexpr double kGatherEfficiency = 0.15;
// Window sliding/shrinking re-reads features across shards.
constexpr double kShardRefetch = 2.0;

}  // namespace

bool HygcnModel::supports(GnnKind kind) {
  return kind == GnnKind::kGcn || kind == GnnKind::kGraphSage || kind == GnnKind::kGinConv;
}

HygcnReport HygcnModel::run(const ModelConfig& model, const Csr& g,
                            const SparseMatrix& features) const {
  GNNIE_REQUIRE(supports(model.kind),
                "HyGCN cannot execute " + to_string(model.kind) +
                    " (no neighborhood softmax hardware, §VII)");
  HygcnReport rep;
  const double v = g.vertex_count();
  const double e = g.edge_count();
  const double f0 = features.col_count();

  double sampled_e = 0.0;
  for (VertexId u = 0; u < g.vertex_count(); ++u) {
    sampled_e += std::min<double>(g.degree(u), model.sample_size);
  }

  const double simd_lanes = static_cast<double>(kSimdCores) * kSimdWidth;
  double agg_cycles = 0.0;
  double comb_cycles = 0.0;
  double gather_bytes = 0.0;     // irregular neighbor traffic
  double streaming_bytes = 0.0;  // outputs + weights

  for (std::uint32_t l = 0; l < model.num_layers; ++l) {
    const double f_in = l == 0 ? f0 : model.hidden_dim;
    const double f_out = model.hidden_dim;
    const double edges = model.kind == GnnKind::kGraphSage ? sampled_e + v : e + v;

    // Aggregation-first: every edge moves an F_in-wide vector through the
    // SIMD cores.
    agg_cycles += edges * f_in / simd_lanes;
    // Sharding reuse limits: (1 − reuse) of neighbor traffic hits DRAM,
    // re-read across shards by the sliding/shrinking window. Sampling
    // (GraphSAGE) leaves windows with almost no overlapping neighbors, so
    // reuse collapses and shards shrink faster.
    const double reuse =
        model.kind == GnnKind::kGraphSage ? 0.0 : kWindowReuse;
    const double refetch =
        model.kind == GnnKind::kGraphSage ? 1.5 * kShardRefetch : kShardRefetch;
    gather_bytes += edges * f_in * 4.0 * (1.0 - reuse) * refetch;

    // Combination: dense (no zero skipping), V × F_in × F_out MACs.
    double macs = v * f_in * f_out;
    if (model.kind == GnnKind::kGinConv) macs += v * f_out * f_out;  // MLP second linear
    comb_cycles +=
        macs / (static_cast<double>(kSystolicMacs) * kSystolicUtilization);
    streaming_bytes += v * f_out * 4.0 + f_in * f_out;  // layer output + weights
  }

  const double dram_bytes = gather_bytes + streaming_bytes;
  const double mem_cycles =
      (gather_bytes / (kDramBandwidth * kGatherEfficiency) + streaming_bytes / kDramBandwidth) *
      kHygcnClockHz;
  // The engines pipeline; the slower one dominates and the imbalance
  // penalty models inter-engine stalls (§VII).
  const double pipelined = std::max(agg_cycles, comb_cycles) *
                           (1.0 + kPipelineImbalancePenalty);
  const double total = std::max(pipelined, mem_cycles);

  rep.aggregation_cycles = static_cast<Cycles>(std::llround(agg_cycles));
  rep.combination_cycles = static_cast<Cycles>(std::llround(comb_cycles));
  rep.total_cycles = static_cast<Cycles>(std::llround(total));
  rep.dram_bytes = static_cast<Bytes>(dram_bytes);
  rep.runtime_seconds = total / kHygcnClockHz;
  return rep;
}

}  // namespace gnnie
