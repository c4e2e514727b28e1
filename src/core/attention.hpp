// GAT attention-vector multiplication (§V-A/B).
//
// The reordering insight: eij = a1ᵀ·ηw_i + a2ᵀ·ηw_j (Eq. 7), so each
// vertex's two partial products e_{i,1} and e_{i,2} are computed ONCE and
// shared by every incident edge — O(|V|+|E|) instead of the naïve
// O(|V|·|E|) of recomputing a 2F-wide dot product per edge.
//
// Mapping (§V-B): ηw_i is split into N blocks of G = ⌈F/N⌉ across one CPE
// row; a1 stays stationary in the spads for a full pass over the vertices,
// then a2 replaces it and ηw is reused. Dense operands → no load balancing
// needed.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/engine_config.hpp"
#include "mem/hbm.hpp"
#include "nn/matrix.hpp"

namespace gnnie {

struct AttentionReport {
  Cycles compute_cycles = 0;
  Cycles memory_cycles = 0;
  Cycles total_cycles = 0;
  std::uint64_t macs = 0;  ///< 2·V·F
  std::uint64_t passes = 2;
};

struct AttentionResult {
  /// Per-vertex, per-head partial products, laid out [v·heads + h]:
  /// e1 = a1[head slice]ᵀ·ηw_i[head slice] (used at vertex i),
  /// e2 = likewise with a2 (exported to i's neighbors).
  std::vector<float> e1;
  std::vector<float> e2;
  std::uint32_t heads = 1;
};

class AttentionEngine {
 public:
  /// `hbm` times the two ηw passes and the e1/e2 write-back on every run,
  /// with or without a report; null throws std::invalid_argument.
  AttentionEngine(const EngineConfig& config, HbmModel* hbm, const DramLayout& layout = {});

  /// `heads` must divide hw.cols(); each head uses its own column slice of
  /// a1/a2 (see ModelConfig::gat_heads). Total MAC work is independent of
  /// the head count.
  AttentionResult run(const Matrix& hw, std::span<const float> a1, std::span<const float> a2,
                      AttentionReport* report = nullptr, std::uint32_t heads = 1);

  /// Cycle cost of the naïve per-edge recomputation (for the §V-A
  /// complexity comparison in examples/benches): every edge direction
  /// performs a 2F-wide dot product on one CPE row.
  Cycles naive_cycles(std::uint64_t vertices, std::uint64_t edges, std::size_t f) const;

 private:
  const EngineConfig& config_;
  HbmModel* hbm_;
  DramLayout layout_;
};

}  // namespace gnnie
