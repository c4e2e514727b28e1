#include "core/weighting.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/require.hpp"

namespace gnnie {

double WeightingReport::row_imbalance() const {
  if (row_cycles.empty()) return 1.0;
  const Cycles mx = *std::max_element(row_cycles.begin(), row_cycles.end());
  const double mean =
      static_cast<double>(std::accumulate(row_cycles.begin(), row_cycles.end(), Cycles{0})) /
      static_cast<double>(row_cycles.size());
  return mean == 0.0 ? 1.0 : static_cast<double>(mx) / mean;
}

Cycles WeightingReport::row_spread() const {
  if (row_cycles.empty()) return 0;
  const auto [mn, mx] = std::minmax_element(row_cycles.begin(), row_cycles.end());
  return *mx - *mn;
}

/// Nonzero count of every (vertex, block) pair: the unit of work the FM
/// scheduler bins. k = ⌈F_in/M⌉ so a vertex has at most M blocks.
struct WeightingEngine::BlockGrid {
  std::uint32_t k = 0;
  std::uint32_t blocks_per_vertex = 0;
  std::size_t vertices = 0;
  /// z[v * blocks_per_vertex + b] = nonzeros of block b of vertex v.
  std::vector<std::uint32_t> z;

  std::uint64_t total_nnz() const {
    return std::accumulate(z.begin(), z.end(), std::uint64_t{0});
  }
};

WeightingEngine::WeightingEngine(const EngineConfig& config, HbmModel* hbm,
                                 const DramLayout& layout)
    : config_(config), hbm_(hbm), layout_(layout) {
  GNNIE_REQUIRE(hbm != nullptr, "weighting needs an HbmModel to time its DRAM stream");
  config_.validate();
}

WeightingGeometry WeightingGeometry::for_dims(const EngineConfig& config, std::size_t f_in,
                                              std::size_t f_out) {
  GNNIE_REQUIRE(f_in > 0 && f_out > 0, "layer dimensions must be positive");
  WeightingGeometry g;
  g.f_in = f_in;
  g.f_out = f_out;
  g.k = (static_cast<std::uint32_t>(f_in) + config.array.rows - 1) / config.array.rows;
  g.blocks_per_vertex = (static_cast<std::uint32_t>(f_in) + g.k - 1) / g.k;
  g.passes = std::max<std::uint64_t>(
      1, (f_out + config.array.cols - 1) / config.array.cols);
  g.weight_stream_bytes_per_pass =
      static_cast<Bytes>(config.array.cols) * f_in * kWeightBytes;
  return g;
}

namespace {

std::uint32_t div_ceil_u32(std::uint32_t a, std::uint32_t b) { return (a + b - 1) / b; }

/// Approximate size of the §III RLC feature stream, the zero-run scheme of
/// [28]: one 5-byte token (1-byte run of preceding zeros, 4-byte value) per
/// nonzero, plus a filler token per 255 zeros of a longer run (worst case).
Bytes rlc_stream_bytes(std::uint64_t nnz, std::uint64_t zeros) {
  return 5 * (nnz + zeros / 255 + 1);
}

}  // namespace

Matrix WeightingEngine::run(const SparseMatrix& h, const Matrix& w, WeightingReport* report,
                            const WeightingGeometry* geometry) {
  GNNIE_REQUIRE(h.col_count() == w.rows(), "H/W inner dimension mismatch");
  const std::size_t f_in = h.col_count();
  const std::size_t f_out = w.cols();
  GNNIE_REQUIRE(geometry == nullptr || (geometry->f_in == f_in && geometry->f_out == f_out),
                "precomputed geometry does not match the operands");
  const WeightingGeometry geom =
      geometry != nullptr ? *geometry : WeightingGeometry::for_dims(config_, f_in, f_out);

  BlockGrid grid;
  grid.k = geom.k;
  grid.blocks_per_vertex = geom.blocks_per_vertex;
  grid.vertices = h.row_count();
  grid.z.assign(grid.vertices * grid.blocks_per_vertex, 0);
  for (std::size_t v = 0; v < grid.vertices; ++v) {
    std::uint32_t* z = grid.z.data() + v * grid.blocks_per_vertex;
    for (std::uint32_t idx : h.row(v).indices()) ++z[idx / grid.k];
  }

  const std::uint64_t nnz = h.total_nnz();
  const std::uint64_t zeros = grid.vertices * f_in - nnz;
  simulate(grid, geom, rlc_stream_bytes(nnz, zeros), /*dense_input=*/false, report);

  // Functional result: sparse-aware H·W.
  Matrix out(h.row_count(), f_out);
  for (std::size_t v = 0; v < h.row_count(); ++v) {
    const SparseRow& row = h.row(v);
    auto out_row = out.row(v);
    for (std::size_t i = 0; i < row.nnz(); ++i) {
      axpy(row.values()[i], w.row(row.indices()[i]), out_row);
    }
  }
  return out;
}

Matrix WeightingEngine::run(const Matrix& h, const Matrix& w, WeightingReport* report,
                            const WeightingGeometry* geometry) {
  GNNIE_REQUIRE(h.cols() == w.rows(), "H/W inner dimension mismatch");
  const std::size_t f_in = h.cols();
  const std::size_t f_out = w.cols();
  GNNIE_REQUIRE(geometry == nullptr || (geometry->f_in == f_in && geometry->f_out == f_out),
                "precomputed geometry does not match the operands");
  const WeightingGeometry geom =
      geometry != nullptr ? *geometry : WeightingGeometry::for_dims(config_, f_in, f_out);

  BlockGrid grid;
  grid.k = geom.k;
  grid.blocks_per_vertex = geom.blocks_per_vertex;
  grid.vertices = h.rows();
  grid.z.resize(grid.vertices * grid.blocks_per_vertex);
  for (std::size_t v = 0; v < grid.vertices; ++v) {
    auto row = h.row(v);
    for (std::uint32_t b = 0; b < grid.blocks_per_vertex; ++b) {
      const std::size_t lo = static_cast<std::size_t>(b) * grid.k;
      const std::size_t hi = std::min<std::size_t>(lo + grid.k, f_in);
      std::uint32_t count = 0;
      for (std::size_t i = lo; i < hi; ++i) count += (row[i] != 0.0f);
      grid.z[v * grid.blocks_per_vertex + b] = count;
    }
  }

  // Dense path: RLC bypassed, the full FP32 matrix streams per pass.
  simulate(grid, geom, static_cast<Bytes>(grid.vertices) * f_in * kFeatureBytes,
           /*dense_input=*/true, report);
  return matmul(h, w);
}

std::vector<double> WeightingEngine::schedule_rows(const BlockGrid& grid,
                                                   WeightingReport* report) const {
  const ArrayConfig& arr = config_.array;
  const bool zero_skip = config_.opts.zero_skip;
  std::vector<double> row_cycles(arr.rows, 0.0);

  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_skipped = 0;

  if (!config_.opts.workload_binning) {
    // Base mapping (§IV-A): block b of every vertex lands on row b.
    for (std::size_t v = 0; v < grid.vertices; ++v) {
      for (std::uint32_t b = 0; b < grid.blocks_per_vertex; ++b) {
        const std::uint32_t z = grid.z[v * grid.blocks_per_vertex + b];
        ++blocks_total;
        if (z == 0 && zero_skip) {
          ++blocks_skipped;
          continue;
        }
        const std::uint32_t work = zero_skip ? z : grid.k;
        row_cycles[b] += div_ceil_u32(std::max(work, 1u), arr.macs_in_row(b));
      }
    }
  } else {
    // FM (§IV-C): bin blocks by nonzero count; lowest-nnz bin → fewest-MAC
    // group. Bin boundaries are contiguous z-ranges chosen to minimize the
    // bottleneck group's per-row cycles (a small DP over the nnz histogram
    // — the histogram itself is the paper's linear-time preprocessing).
    const auto groups = arr.row_groups();
    const std::size_t n_groups = groups.size();
    std::vector<std::uint64_t> z_hist(grid.k + 1, 0);
    for (std::uint32_t z : grid.z) {
      if (z == 0 && zero_skip) continue;
      const std::uint32_t work = zero_skip ? z : grid.k;
      z_hist[work] += 1;
    }
    // prefix_cycles[g][z] = Σ_{z'<=z} hist[z']·⌈z'/m_g⌉ — group-g CPE cycles
    // if all blocks up to nnz z landed in group g.
    std::vector<std::vector<std::uint64_t>> prefix_cycles(
        n_groups, std::vector<std::uint64_t>(grid.k + 2, 0));
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::uint32_t m = arr.macs_in_row(groups[g].front());
      for (std::uint32_t z = 0; z <= grid.k; ++z) {
        const std::uint64_t cost = z == 0 ? (zero_skip ? 0 : 1) : (z + m - 1) / m;
        prefix_cycles[g][z + 1] = prefix_cycles[g][z] + z_hist[z] * cost;
      }
    }
    // DP: best[g][z] = minimal bottleneck (per-row cycles) assigning nnz
    // values [0, z) to the first g groups. O(G·k²) with k ≤ F_in/M.
    constexpr std::uint64_t kInf = ~0ull;
    std::vector<std::vector<std::uint64_t>> best(
        n_groups + 1, std::vector<std::uint64_t>(grid.k + 2, kInf));
    std::vector<std::vector<std::uint32_t>> cut(
        n_groups + 1, std::vector<std::uint32_t>(grid.k + 2, 0));
    best[0][0] = 0;
    for (std::size_t g = 1; g <= n_groups; ++g) {
      const auto rows_g = static_cast<std::uint64_t>(groups[g - 1].size());
      for (std::uint32_t hi = 0; hi <= grid.k + 1; ++hi) {
        for (std::uint32_t lo = 0; lo <= hi; ++lo) {
          if (best[g - 1][lo] == kInf) continue;
          const std::uint64_t load =
              (prefix_cycles[g - 1][hi] - prefix_cycles[g - 1][lo] + rows_g - 1) / rows_g;
          const std::uint64_t bottleneck = std::max(best[g - 1][lo], load);
          if (bottleneck < best[g][hi]) {
            best[g][hi] = bottleneck;
            cut[g][hi] = lo;
          }
        }
      }
    }
    // Recover bin_of_z from the cuts.
    std::vector<std::uint32_t> bin_of_z(grid.k + 1, 0);
    {
      std::uint32_t hi = grid.k + 1;
      for (std::size_t g = n_groups; g >= 1; --g) {
        const std::uint32_t lo = cut[g][hi];
        for (std::uint32_t z = lo; z < hi; ++z) {
          bin_of_z[z] = static_cast<std::uint32_t>(g - 1);
        }
        hi = lo;
      }
    }
    // Greedy least-loaded assignment within each group (the input-buffer
    // scheduler of §IV-C).
    for (std::size_t v = 0; v < grid.vertices; ++v) {
      for (std::uint32_t b = 0; b < grid.blocks_per_vertex; ++b) {
        const std::uint32_t z = grid.z[v * grid.blocks_per_vertex + b];
        ++blocks_total;
        if (z == 0 && zero_skip) {
          ++blocks_skipped;
          continue;
        }
        const std::uint32_t work = zero_skip ? z : grid.k;
        const auto& rows = groups[bin_of_z[work]];
        std::uint32_t best = rows[0];
        for (std::uint32_t r : rows) {
          if (row_cycles[r] < row_cycles[best]) best = r;
        }
        row_cycles[best] += div_ceil_u32(std::max(work, 1u), arr.macs_in_row(best));
      }
    }
  }

  std::uint64_t lr_moved = 0;
  double lr_overhead = 0.0;
  if (config_.opts.load_redistribution) {
    // LR (§IV-C): pair heavy and light rows and split the difference; each
    // moved block costs a weight reload. Block move granularity is the mean
    // block cost on the receiving row.
    std::vector<std::uint32_t> idx(arr.rows);
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(),
              [&](std::uint32_t a, std::uint32_t b) { return row_cycles[a] < row_cycles[b]; });
    const double mean_block_cost =
        blocks_total > blocks_skipped
            ? std::accumulate(row_cycles.begin(), row_cycles.end(), 0.0) /
                  static_cast<double>(blocks_total - blocks_skipped)
            : 1.0;
    for (std::uint32_t p = 0; p < arr.rows / 2; ++p) {
      const std::uint32_t light = idx[p];
      const std::uint32_t heavy = idx[arr.rows - 1 - p];
      const double diff = row_cycles[heavy] - row_cycles[light];
      if (diff <= 2.0 * kLrCyclesPerBlock) continue;
      const double moved_cycles = diff / 2.0;
      const auto moved_blocks =
          static_cast<std::uint64_t>(std::ceil(moved_cycles / std::max(mean_block_cost, 1e-9)));
      const double overhead =
          static_cast<double>(moved_blocks) * kLrCyclesPerBlock;
      const double mid = (row_cycles[heavy] + row_cycles[light]) / 2.0;
      row_cycles[heavy] = mid;
      row_cycles[light] = mid + overhead;
      lr_moved += moved_blocks;
      lr_overhead += overhead;
    }
  }

  if (report != nullptr) {
    report->blocks_total = blocks_total;
    report->blocks_skipped = blocks_skipped;
    report->lr_moved_blocks = lr_moved;
    report->lr_overhead_cycles = static_cast<Cycles>(std::llround(lr_overhead));
  }
  return row_cycles;
}

void WeightingEngine::simulate(const BlockGrid& grid, const WeightingGeometry& geom,
                               Bytes feature_stream_bytes, bool dense_input,
                               WeightingReport* report) {
  const std::size_t f_out = geom.f_out;
  WeightingReport local;
  WeightingReport& rep = report != nullptr ? *report : local;
  rep = WeightingReport{};

  const ArrayConfig& arr = config_.array;
  const std::vector<double> row_cycles = schedule_rows(grid, &rep);
  rep.row_cycles.assign(arr.rows, 0);
  for (std::uint32_t r = 0; r < arr.rows; ++r) {
    rep.row_cycles[r] = static_cast<Cycles>(std::llround(row_cycles[r]));
  }

  const double max_row = *std::max_element(row_cycles.begin(), row_cycles.end());
  const double min_row = *std::min_element(row_cycles.begin(), row_cycles.end());

  // MPE psum pressure (§IV-C): fast rows run ahead of slow rows by up to
  // (1 − min/max)·V vertices; overflow beyond the psum slots stalls the
  // array for one vertex interval per excess vertex.
  double stall = 0.0;
  if (grid.vertices > 0 && max_row > 0.0) {
    const double in_flight =
        static_cast<double>(grid.vertices) * (1.0 - (max_row == 0.0 ? 1.0 : min_row / max_row));
    const double excess = in_flight - static_cast<double>(arr.psum_slots_per_mpe);
    if (excess > 0.0) {
      stall = excess * (max_row / static_cast<double>(grid.vertices));
    }
  }

  const std::uint64_t passes = geom.passes;
  const double per_pass_compute = max_row + stall;

  // Memory per pass: N weight columns + the feature stream + the pass's
  // output slice, all sequential. Features re-stream every pass under the
  // weight-stationary scheme, EXCEPT the fraction resident in the input
  // buffer, which is fetched once and reused across passes (§IV-A: "the
  // feature vectors fetched in the input buffer get reused").
  const Bytes weight_bytes_per_pass = geom.weight_stream_bytes_per_pass;
  const Bytes output_bytes_per_pass =
      static_cast<Bytes>(grid.vertices) * arr.cols * kFeatureBytes;
  // Dense inputs are the previous layer's result, which is still staged
  // in the output buffer — both buffers contribute residency capacity.
  const Bytes resident_capacity =
      config_.buffers.input + (dense_input ? config_.buffers.output : 0);
  const double resident =
      std::min(1.0, static_cast<double>(resident_capacity) /
                        std::max<double>(1.0, static_cast<double>(feature_stream_bytes)));
  for (std::uint64_t p = 0; p < passes; ++p) {
    hbm_->begin_epoch();
    hbm_->access(layout_.weight_base + p * weight_bytes_per_pass, weight_bytes_per_pass, false,
                 MemClient::kWeight);
    const Bytes feature_bytes_this_pass =
        p == 0 ? feature_stream_bytes
               : static_cast<Bytes>(static_cast<double>(feature_stream_bytes) * (1.0 - resident));
    hbm_->access(layout_.feature_base, feature_bytes_this_pass, false, MemClient::kInput);
    hbm_->access(layout_.output_base + p * output_bytes_per_pass, output_bytes_per_pass, true,
                 MemClient::kOutput);
    rep.weight_stream_bytes += weight_bytes_per_pass;
    rep.dram_stream_bytes +=
        weight_bytes_per_pass + feature_bytes_this_pass + output_bytes_per_pass;
    // Psum pressure beyond the MPE slots spills partials through the
    // output buffer to DRAM and reads them back ("the output buffer has
    // the most transactions with DRAM due to psum storage", Fig. 14).
    if (grid.vertices > 0 && max_row > 0.0 && min_row < max_row) {
      const double in_flight = static_cast<double>(grid.vertices) * (1.0 - min_row / max_row);
      const double excess = in_flight - static_cast<double>(arr.psum_slots_per_mpe);
      if (excess > 0.0) {
        const auto spill_bytes = static_cast<Bytes>(
            excess / in_flight * static_cast<double>(output_bytes_per_pass));
        hbm_->access(layout_.output_base + passes * output_bytes_per_pass, spill_bytes, true,
                     MemClient::kOutput);
        hbm_->access(layout_.output_base + passes * output_bytes_per_pass, spill_bytes, false,
                     MemClient::kOutput);
        rep.dram_stream_bytes += 2 * spill_bytes;
      }
    }
    const Cycles mem_per_pass = hbm_->epoch_cycles();
    rep.memory_cycles += mem_per_pass;
    rep.total_cycles +=
        std::max<Cycles>(static_cast<Cycles>(std::llround(per_pass_compute)), mem_per_pass);
  }

  rep.passes = passes;
  rep.compute_cycles = static_cast<Cycles>(std::llround(per_pass_compute)) * passes;
  rep.stall_cycles = static_cast<Cycles>(std::llround(stall)) * passes;
  rep.macs = grid.total_nnz() * f_out;
}

}  // namespace gnnie
