// The Weighting engine (§IV): multiplies vertex feature vectors by the
// weight matrix on the CPE array under the weight-stationary dataflow.
//
// Mapping (§IV-A): features are split into k-element blocks (k = ⌈F_in/M⌉),
// one block row per CPE row; weights stream in passes of N columns. A CPE
// with |MAC| units finishes a block with z nonzeros in ⌈z/|MAC|⌉ cycles;
// all-zero blocks are skipped by the zero-detection buffer.
//
// Load balancing (§IV-C): FM bins blocks by nonzero count — the bin with
// the fewest nonzeros goes to the row group with the fewest MACs — and LR
// then offloads work from the heaviest to the lightest rows at a small
// weight-reload cost per moved block.
//
// The engine is both functional (returns H·W) and timed (fills a
// WeightingReport with per-row cycle counts, Fig. 16's series).
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine_config.hpp"
#include "mem/hbm.hpp"
#include "nn/matrix.hpp"
#include "sparse/sparse_matrix.hpp"

namespace gnnie {

struct WeightingReport {
  Cycles compute_cycles = 0;  ///< array time (bottleneck row × passes + stalls)
  Cycles memory_cycles = 0;   ///< DRAM stream time (weights + features + output)
  Cycles total_cycles = 0;    ///< per-pass max(compute, memory), summed
  Cycles stall_cycles = 0;    ///< MPE psum-slot pressure (§IV-C)
  std::uint64_t passes = 0;
  std::uint64_t macs = 0;             ///< useful MACs performed
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_skipped = 0;   ///< zero blocks skipped
  /// Cycles per CPE row for ONE pass (the Fig. 16 bar series).
  std::vector<Cycles> row_cycles;
  /// Blocks moved by LR and the overhead charged for them.
  std::uint64_t lr_moved_blocks = 0;
  Cycles lr_overhead_cycles = 0;
  /// DRAM bytes streamed for the weight columns alone (passes × the layer's
  /// weight_stream_bytes_per_pass) vs. the stage's whole DRAM stream
  /// (weights + features + outputs + psum spills). A coalesced same-plan
  /// follower skips the weight share of the exposed memory time (see
  /// ServiceCost::batch_saving_cycles in core/serving.hpp).
  Bytes weight_stream_bytes = 0;
  Bytes dram_stream_bytes = 0;

  /// max/mean per-row cycles (1.0 = perfectly balanced).
  double row_imbalance() const;
  /// max − min per-row cycles (the "spread" the paper plots shrinking).
  Cycles row_spread() const;
};

/// Block/pass geometry of one weighting layer: everything about the §IV-A
/// mapping that depends only on the array design and the layer dimensions,
/// not on per-run feature values. CompiledModel precomputes one per layer
/// at compile time so repeated runs skip re-deriving it.
struct WeightingGeometry {
  std::size_t f_in = 0;
  std::size_t f_out = 0;
  std::uint32_t k = 0;                   ///< elements per feature block (⌈F_in/M⌉)
  std::uint32_t blocks_per_vertex = 0;   ///< ⌈F_in/k⌉
  std::uint64_t passes = 0;              ///< output-column passes (⌈F_out/N⌉)
  Bytes weight_stream_bytes_per_pass = 0;

  static WeightingGeometry for_dims(const EngineConfig& config, std::size_t f_in,
                                    std::size_t f_out);
};

class WeightingEngine {
 public:
  /// `hbm` times every pass's weight, feature and output stream; null
  /// throws std::invalid_argument.
  WeightingEngine(const EngineConfig& config, HbmModel* hbm,
                  const DramLayout& layout = {});

  /// Layer-0 path: sparse input features streamed in RLC form. `geometry`
  /// is an optional precomputed layer geometry (must match the operand
  /// dimensions); null → derived on the fly.
  Matrix run(const SparseMatrix& h, const Matrix& w, WeightingReport* report = nullptr,
             const WeightingGeometry* geometry = nullptr);

  /// Later-layer path: dense features (RLC bypassed); zero detection still
  /// skips zero elements produced by ReLU.
  Matrix run(const Matrix& h, const Matrix& w, WeightingReport* report = nullptr,
             const WeightingGeometry* geometry = nullptr);

 private:
  struct BlockGrid;  // per-(vertex, block) nonzero counts

  void simulate(const BlockGrid& grid, const WeightingGeometry& geom,
                Bytes feature_stream_bytes, bool dense_input, WeightingReport* report);
  std::vector<double> schedule_rows(const BlockGrid& grid, WeightingReport* report) const;

  const EngineConfig& config_;
  HbmModel* hbm_;
  DramLayout layout_;
};

}  // namespace gnnie
