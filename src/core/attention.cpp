#include "core/attention.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace gnnie {
namespace {

std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

}  // namespace

AttentionEngine::AttentionEngine(const EngineConfig& config, HbmModel* hbm,
                                 const DramLayout& layout)
    : config_(config), hbm_(hbm), layout_(layout) {
  GNNIE_REQUIRE(hbm != nullptr, "attention needs an HbmModel to time its DRAM stream");
  config_.validate();
}

AttentionResult AttentionEngine::run(const Matrix& hw, std::span<const float> a1,
                                     std::span<const float> a2, AttentionReport* report,
                                     std::uint32_t heads) {
  GNNIE_REQUIRE(a1.size() == hw.cols() && a2.size() == hw.cols(),
                "attention halves must match the feature width");
  GNNIE_REQUIRE(heads > 0 && hw.cols() % heads == 0, "heads must divide the feature width");
  const std::size_t v_count = hw.rows();
  const std::size_t f = hw.cols();
  const std::size_t f_head = f / heads;

  AttentionResult res;
  res.heads = heads;
  res.e1.assign(v_count * heads, 0.0f);
  res.e2.assign(v_count * heads, 0.0f);
  for (std::size_t v = 0; v < v_count; ++v) {
    auto row = hw.row(v);
    for (std::uint32_t hd = 0; hd < heads; ++hd) {
      float s1 = 0.0f, s2 = 0.0f;
      for (std::size_t c = hd * f_head; c < (hd + 1) * f_head; ++c) {
        s1 += a1[c] * row[c];
        s2 += a2[c] * row[c];
      }
      res.e1[v * heads + hd] = s1;
      res.e2[v * heads + hd] = s2;
    }
  }

  AttentionReport local;
  AttentionReport& rep = report != nullptr ? *report : local;
  rep = AttentionReport{};
  const ArrayConfig& arr = config_.array;
  // One vertex per CPE row; its F-vector splits into N blocks of G, the
  // row's CPEs each finishing in ⌈G/|MAC|⌉ cycles. Rows run in parallel;
  // vertices round-robin over rows; two passes (a1 then a2).
  const std::uint64_t g_block = div_ceil(f, arr.cols);
  std::uint64_t max_row_cycles = 0;
  for (std::uint32_t r = 0; r < arr.rows; ++r) {
    const std::uint64_t vertices_on_row = v_count / arr.rows + (r < v_count % arr.rows ? 1 : 0);
    max_row_cycles =
        std::max(max_row_cycles, vertices_on_row * div_ceil(g_block, arr.macs_in_row(r)));
  }
  rep.compute_cycles = 2 * max_row_cycles;
  rep.macs = 2ull * v_count * f;

  // ηw streams once per pass (a1 pass, then a2 pass reusing weights in the
  // alternate spad); e1/e2 append to the property array.
  hbm_->begin_epoch();
  const Bytes hw_bytes = static_cast<Bytes>(v_count) * f * kFeatureBytes;
  hbm_->access(layout_.property_base, hw_bytes, false, MemClient::kInput);
  hbm_->access(layout_.property_base, hw_bytes, false, MemClient::kInput);
  hbm_->access(layout_.property_base + hw_bytes, static_cast<Bytes>(v_count) * heads * 8, true,
               MemClient::kOutput);
  rep.memory_cycles = hbm_->epoch_cycles();
  rep.total_cycles = std::max(rep.compute_cycles, rep.memory_cycles);
  return res;
}

Cycles AttentionEngine::naive_cycles(std::uint64_t vertices, std::uint64_t edges,
                                     std::size_t f) const {
  const ArrayConfig& arr = config_.array;
  const std::uint64_t g_block = div_ceil(2 * f, arr.cols);  // 2F-wide concat dot product
  // Each edge direction (plus the self edge) recomputes the full product;
  // M rows work in parallel with the smallest-MAC row as the bottleneck.
  const std::uint64_t per_edge = div_ceil(g_block, arr.macs_per_row.front());
  const std::uint64_t total_edge_ops = edges + vertices;
  return div_ceil(total_edge_ops, arr.rows) * per_edge;
}

}  // namespace gnnie
