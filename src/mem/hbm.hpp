// HBM 2.0 DRAM model (Ramulator substitute).
//
// The model captures the first-order behaviour GNNIE's caching argument
// rests on: sequential streams ride open row buffers at near-peak bandwidth,
// while fine-grained random accesses pay an activate/precharge penalty and
// waste burst granularity. Addresses are interleaved across channels at
// burst granularity; each bank tracks its open row (open-page policy).
//
// Cycle accounting: every access adds busy time to its channel; an epoch's
// memory time is the maximum channel busy time since begin_epoch() —
// channels work in parallel, requests on one channel serialize.
//
// Geometry: the part's channels, banks per channel, burst bytes and bursts
// per row are powers of two (static_asserts below), so the model maps a
// burst to its channel, row and bank with shifts and masks, never a
// division. Busy time still accumulates one burst at a time, in each
// channel's address order: floating-point addition is not associative, so
// summing a row's bursts in closed form (n × service) would move
// epoch_cycles() — 32 sequential additions of the 2.6-cycle burst give
// 83.19999999999997, the product 83.19999999999999.
//
// Settling: access() only counts bytes and bursts and queues the access.
// The queue is charged to the channels (row hits and misses, busy time)
// when it fills and before begin_epoch(), epoch_cycles() and stats() answer,
// one channel at a time, so a channel's busy time stays in a register while
// it walks the queued accesses. Channels share no state, so the result is
// the same as charging every burst in address order at access time. The
// reason is steadiness, not peak speed: a loop over the bursts in address
// order reads and writes the open-row, stream and busy tables for every
// burst, and its time swung 1.6× (p90/p10) with other load on a shared
// 4-vCPU VM while replaying a recorded on-demand access stream; this walk
// swung 1.2× on the same stream and host.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/units.hpp"

namespace gnnie {

/// The HBM 2.0 part of §VIII-A. Its parameters are fixed: the evaluation
/// uses one part, and every cycle it returns is at kClockHz.
struct HbmConfig {
  static constexpr double peak_bandwidth_bytes_per_s = 256.0e9;  ///< §VIII-A: 256 GB/s
  static constexpr std::uint32_t channels = 8;
  static constexpr std::uint32_t banks_per_channel = 16;
  static constexpr std::uint32_t row_bytes = 2048;
  static constexpr std::uint32_t burst_bytes = 64;
  /// Extra cycles charged to the channel when a burst misses its bank's
  /// open row (activate + precharge, in accelerator cycles) after a
  /// non-sequential jump.
  static constexpr double row_miss_penalty = 24.0;
  /// Residual miss cost on a *streaming* pattern (consecutive bursts):
  /// consecutive rows land in different banks, so the next activation
  /// overlaps with the current transfer and is almost free.
  static constexpr double streaming_miss_penalty = 2.0;
  /// DRAM transfer energy [26], for HbmModel::energy and the energy model
  /// (energy/energy_model.hpp) alike.
  static constexpr double energy_pj_per_bit = 3.97;

  /// Transfer time of one burst on one channel, in accelerator cycles.
  static constexpr double burst_cycles() {
    return static_cast<double>(burst_bytes) /
           (peak_bandwidth_bytes_per_s / static_cast<double>(channels) / kClockHz);
  }
};
static_assert(std::is_empty_v<HbmConfig>, "the HBM part has no settable parameter");
static_assert(std::has_single_bit(HbmConfig::channels) &&
                  std::has_single_bit(HbmConfig::banks_per_channel),
              "channels and banks per channel must be powers of two");
static_assert(std::has_single_bit(HbmConfig::burst_bytes) &&
                  HbmConfig::row_bytes % HbmConfig::burst_bytes == 0 &&
                  std::has_single_bit(HbmConfig::row_bytes / HbmConfig::burst_bytes),
              "bursts and bursts per row must be powers of two");

/// Which on-chip buffer a DRAM transaction serves — the paper's energy
/// breakdown (Fig. 14) reports DRAM traffic per buffer.
enum class MemClient { kInput = 0, kOutput = 1, kWeight = 2 };
inline constexpr std::size_t kMemClientCount = 3;

struct HbmStats {
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;
  std::uint64_t bursts = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::array<Bytes, kMemClientCount> client_bytes{};  // read + write per client
  std::uint64_t accesses = 0;

  double row_hit_rate() const {
    const std::uint64_t total = row_hits + row_misses;
    return total == 0 ? 0.0 : static_cast<double>(row_hits) / static_cast<double>(total);
  }
};

/// One engine run's DRAM. Not safe to share between threads, even through
/// its const accessors: they settle queued accesses (see the file comment).
class HbmModel {
 public:
  /// HbmConfig carries no data; the parameter lets a caller build the model
  /// from EngineConfig::hbm.
  explicit HbmModel(HbmConfig = {});

  /// Starts a new overlap window; epoch_cycles() measures from here.
  void begin_epoch();

  /// One logical access: `bytes` starting at byte address `addr`.
  /// Rounded up to burst granularity (fine-grained random access wastes
  /// bandwidth exactly as on real DRAM).
  void access(std::uint64_t addr, Bytes bytes, bool write, MemClient client);

  /// Busy cycles of the most-loaded channel since begin_epoch().
  Cycles epoch_cycles() const;

  /// Lifetime totals (not reset by begin_epoch). Row hits and misses in the
  /// returned reference are current until the next access().
  const HbmStats& stats() const {
    settle();
    return stats_;
  }

  /// DRAM transfer energy: pJ/bit over all bytes moved (burst-granular).
  Joules energy() const;

 private:
  struct Bank {
    std::uint64_t open_row = ~0ull;
  };
  /// A queued access: its burst range and its stream (see kStreamSlots).
  struct PendingAccess {
    std::uint64_t first_burst = 0;
    std::uint64_t last_burst = 0;
    std::uint32_t stream = 0;  // region × 2 + write
  };
  static constexpr std::size_t kMaxPending = 256;  // 6 KiB: the queue stays in L1
  /// Streaming detection per (channel, address region): the memory-access
  /// scheduler (§III) batches requests per stream, so interleaved traffic
  /// from different regions (properties, adjacency, outputs …) does not
  /// break each stream's row locality. Regions follow DramLayout's 2^36
  /// spacing.
  static constexpr std::size_t kStreamSlots = 16;  // 8 regions × {read, write}

  /// Charges the queued accesses to their channels (see the file comment).
  void settle() const;

  // Everything settle() updates is mutable: the const accessors settle the
  // queue before they answer.
  mutable std::vector<PendingAccess> pending_;
  mutable std::uint64_t pending_bursts_ = 0;
  mutable std::array<Bank, HbmConfig::channels * HbmConfig::banks_per_channel> banks_{};
  mutable std::array<double, HbmConfig::channels> channel_busy_{};  // cycles this epoch
  mutable std::array<std::uint64_t, HbmConfig::channels * kStreamSlots> last_channel_burst_;
  mutable HbmStats stats_;
};

}  // namespace gnnie
