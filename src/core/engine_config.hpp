// Top-level GNNIE configuration: the PE array design point, on-chip buffer
// sizes, HBM parameters, and the optimization switches the paper ablates in
// §VIII-E (FM = flexible-MAC workload binning, LR = load redistribution,
// LB = aggregation load balancing). The fourth ablated switch, CP (the
// degree-aware cache policy), is not a flag: it is the CachePolicy handed to
// Engine (core/cache_policy.hpp), degree-aware unless told otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/pe_array.hpp"
#include "arch/sfu.hpp"
#include "common/units.hpp"
#include "mem/hbm.hpp"

namespace gnnie {

/// On-chip buffer capacities (§III, §VIII-A): input 256 KB for CR and CS or
/// 512 KB for the larger datasets, output 1 MB, weight 128 KB (4K × 16 × 2
/// for double-buffering). The input buffer sizes the cached subgraph and the
/// weighting passes' resident features; the output buffer holds partial
/// sums and the previous layer's result. No model reads the weight
/// buffer's size: weights stream from DRAM per pass (core/weighting.hpp).
struct BufferSizes {
  Bytes input;
  Bytes output = 1u << 20;  // 1 MB

  /// `large_dataset` selects the 512 KB input buffer (PB, PPI, RD).
  static BufferSizes for_dataset(bool large_dataset);
};

struct OptimizationFlags {
  /// Weighting: skip all-zero feature blocks via the zero-detection buffer.
  bool zero_skip = true;
  /// Weighting: FM workload binning — bin blocks by nnz and assign bins to
  /// row groups by MAC capacity (§IV-C). Without it, block i of a vertex
  /// maps to row i (feature-index order).
  bool workload_binning = true;
  /// Weighting: LR — offload blocks from heavy to light rows after FM.
  bool load_redistribution = true;
  /// Aggregation: edge-level load balancing across CPEs (LB, §V-C).
  /// Without it each vertex's aggregation runs on a single CPE.
  bool aggregation_load_balance = true;

  static OptimizationFlags all_on() { return {}; }
  static OptimizationFlags all_off() {
    return {false, false, false, false};
  }
};

/// The input-buffer knobs the benches sweep. The rest of the §VI cache
/// geometry is fixed: r = capacity/8 replacements per iteration, γ escalates
/// on deadlock (the paper's proposed fallback), and DRAM cache blocks hold
/// kCacheBlockVertices vertices (core/cache_policy.hpp).
struct CacheConfig {
  /// Eviction threshold γ: a cached vertex with fewer than γ unprocessed
  /// edges is an eviction candidate (§VI; the paper uses a static γ = 5).
  std::uint32_t gamma = 5;
  /// Input-buffer associativity (§VI/Fig. 9: a 4-way set-associative cache
  /// controller). A fetched vertex maps to set (block % sets); a full set
  /// forces an eviction within that set even when the γ rule finds no
  /// candidate. 0 = fully associative (no placement constraint).
  std::uint32_t associativity = 0;
};

/// Flat cycles the serving cluster charges when servicing a plan whose
/// working set is not resident displaces another plan's resident state (a
/// plan swap, EngineConfig::warmth). Never charged on warm hits or on a die
/// with spare residency budget.
inline constexpr Cycles kPlanSwapPenaltyCycles = 1000;

/// Scheduler-visible cache warmth for the serving cluster (serve::Cluster).
/// Models what stays resident on a die between requests: each die retains
/// the cached feature working sets of recently serviced plans (LRU within a
/// byte budget), and a request whose plan is resident skips that share of
/// the aggregation stages' exposed DRAM-fetch time (see
/// ServiceCost::warm_total in core/serving.hpp); a plan swap costs
/// kPlanSwapPenaltyCycles. Default-off: with enabled=false every request is
/// charged the cold cost and the simulator is bit-exact with the
/// warmth-unaware one.
struct WarmthConfig {
  bool enabled = false;
  /// Modeled per-die residency budget for warm working sets. 0 → the input
  /// buffer capacity (the hardware that actually holds the cached subgraph).
  Bytes die_budget_bytes = 0;
};

/// Die-level same-plan coalescing for the serving cluster (serve::Cluster).
/// When a die starts a service it may drain further queued requests sharing
/// the head request's plan fingerprint into the same service slot: the slot
/// streams each weighting pass's weight columns once, so followers skip the
/// weight-stream share of their weighting stages' exposed memory time
/// (weighting geometry and FM bin setup are plan/compile-level precomputes
/// already shared). Aggregation stays per request — it is graph- and
/// value-dependent. Default max_coalesce = 1: strictly serial service,
/// bit-exact with the uncoalesced simulator.
struct BatchingConfig {
  /// Most requests one service slot may absorb (head + followers); 1 = off.
  std::uint32_t max_coalesce = 1;
};

/// Intra-die weighting/aggregation pipelining and per-shape plan variants
/// for the serving cluster (serve::Cluster).
///
/// With `enabled`, a die's service timeline splits into two resource
/// tracks: a *stream* track (the slot head's weight streaming — the
/// weighting-stage share of its service — plus any variant setup) and a
/// *compute* track (everything else). While the die's compute track is
/// still busy with slot k, the stream track may already run slot k+1's
/// weight streaming, so a queued slot's weights can be fully hidden behind
/// the predecessor's aggregation and `pipelined ≤ serial` holds per slot by
/// construction. Default-off: every slot is charged serially, bit-exact
/// with the pipeline-unaware simulator.
///
/// `variant_widths` names a family of plan variants (plan_variant_family in
/// core/serving.hpp, the AR-1/AR-8-style geometry family): a variant of
/// width w fuses at most w slot members over one weight stream — followers
/// beyond position w re-stream weights and lose the coalescing saving — and
/// costs `(w − 1) · kVariantSetupCycles` of one-time slot setup on the
/// stream track. The cluster's dispatch picks the cheapest variant per slot
/// at assembly time (smallest width on ties; deterministic), recorded in
/// RequestRecord::variant_width. Empty (the default) means a single
/// unbounded variant of width 0 and zero setup — exactly the pre-variant
/// slot model, bit-exact.
struct PipelineConfig {
  bool enabled = false;
  /// Ascending, strictly increasing coalesce widths (each ≥ 1); empty =
  /// the single unbounded default variant (family size 1).
  std::vector<std::uint32_t> variant_widths;
};

/// Per-extra-width slot setup charge of a wide plan variant (see
/// PipelineConfig::variant_widths).
inline constexpr Cycles kVariantSetupCycles = 64;

/// Weight precision in bytes (§VIII-A sizes the weight buffer for 1-byte
/// weights).
inline constexpr std::uint32_t kWeightBytes = 1;
/// Feature and psum precision in bytes: the feature path is FP32.
inline constexpr std::uint32_t kFeatureBytes = 4;
/// LR overhead: cycles charged per redistributed block (weight reload into
/// the light row's spad).
inline constexpr double kLrCyclesPerBlock = 0.5;

/// One die's design. Every cycle it models is at kClockHz
/// (common/units.hpp), and the HBM 2.0 part and the SFU are fixed parts
/// (mem/hbm.hpp, arch/sfu.hpp).
struct EngineConfig {
  ArrayConfig array = ArrayConfig::design_e();
  BufferSizes buffers = BufferSizes::for_dataset(true);
  /// No data: HbmModel(config.hbm) builds the part's model.
  HbmConfig hbm;
  OptimizationFlags opts;
  CacheConfig cache;
  /// Serving-layer knob: the per-die cache-residency (warmth) model.
  WarmthConfig warmth;
  /// Serving-layer knob: die-level same-plan request coalescing.
  BatchingConfig batching;
  /// Serving-layer knob: intra-die stage pipelining and plan variants.
  PipelineConfig pipeline;

  /// The per-die residency budget the warmth model actually uses:
  /// warmth.die_budget_bytes, defaulting to the input buffer capacity.
  Bytes warmth_die_budget() const {
    return warmth.die_budget_bytes != 0 ? warmth.die_budget_bytes : buffers.input;
  }

  /// Paper configuration for a dataset size (§VIII-A input buffer rule).
  static EngineConfig paper_default(bool large_dataset);

  /// paper_default with the PE array swapped for one of the evaluated design
  /// points ('A'..'E', the fig13/fig17 design space). Heterogeneous serving
  /// fleets (serve/fleet.hpp) mix these per die.
  static EngineConfig design_point(char letter, bool large_dataset);

  /// Peak TOPS of the configured array with the 1 MAC = 2 ops convention
  /// (Table IV "Peak").
  double peak_tops() const;

  void validate() const;
};

/// DRAM address map. Regions are spaced far apart so the HBM row-buffer
/// model sees distinct rows per region; within a region the engine lays
/// data out in *processing order*, which is what makes policy-mode fetches
/// sequential.
struct DramLayout {
  std::uint64_t property_base = 0x0000'0000'0000ull;  ///< ηw + α (+ e1,e2 for GAT)
  std::uint64_t adjacency_base = 0x0010'0000'0000ull; ///< offsets + coordinates
  std::uint64_t weight_base = 0x0020'0000'0000ull;    ///< weight matrices
  std::uint64_t feature_base = 0x0030'0000'0000ull;   ///< input features (RLC)
  std::uint64_t output_base = 0x0040'0000'0000ull;    ///< results / psum spills
};

}  // namespace gnnie
