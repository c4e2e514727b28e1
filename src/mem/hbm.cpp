#include "mem/hbm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace gnnie {
namespace {

// The part's geometry as shifts and masks, and the three per-burst service
// times: a row hit, a streaming miss and a jump miss. A miss costs the burst
// plus its penalty; the sum is the same double for every burst, so it is
// formed once.
constexpr unsigned kBurstShift = std::countr_zero(HbmConfig::burst_bytes);
constexpr unsigned kChannelShift = std::countr_zero(HbmConfig::channels);
constexpr unsigned kRowShift = std::countr_zero(HbmConfig::row_bytes / HbmConfig::burst_bytes);
constexpr unsigned kBankShift = std::countr_zero(HbmConfig::banks_per_channel);
constexpr std::uint64_t kChannelMask = HbmConfig::channels - 1;
constexpr std::uint64_t kBankMask = HbmConfig::banks_per_channel - 1;
constexpr double kHitCycles = HbmConfig::burst_cycles();
constexpr double kStreamingMissCycles = kHitCycles + HbmConfig::streaming_miss_penalty;
constexpr double kJumpMissCycles = kHitCycles + HbmConfig::row_miss_penalty;

}  // namespace

HbmModel::HbmModel(HbmConfig) {
  last_channel_burst_.fill(~0ull);
  pending_.reserve(kMaxPending);
}

void HbmModel::begin_epoch() {
  settle();
  channel_busy_.fill(0.0);
}

void HbmModel::access(std::uint64_t addr, Bytes bytes, bool write, MemClient client) {
  if (bytes == 0) return;
  ++stats_.accesses;
  const std::uint64_t first_burst = addr >> kBurstShift;
  const std::uint64_t last_burst = (addr + bytes - 1) >> kBurstShift;
  const std::uint64_t burst_count = last_burst - first_burst + 1;
  const Bytes moved = burst_count << kBurstShift;

  (write ? stats_.bytes_written : stats_.bytes_read) += moved;
  stats_.client_bytes[static_cast<std::size_t>(client)] += moved;
  stats_.bursts += burst_count;

  // Reads and writes occupy separate scheduler queues (write buffering),
  // so they form separate streams as well.
  const std::uint64_t region = std::min<std::uint64_t>(addr >> 36, kStreamSlots / 2 - 1);
  pending_.push_back({first_burst, last_burst, static_cast<std::uint32_t>(region * 2 + write)});
  pending_bursts_ += burst_count;
  if (pending_.size() == kMaxPending) settle();
}

void HbmModel::settle() const {
  if (pending_.empty()) return;
  std::uint64_t hits = 0;
  for (std::size_t channel = 0; channel < HbmConfig::channels; ++channel) {
    Bank* const bank = banks_.data() + (channel << kBankShift);
    std::uint64_t* const stream_end = last_channel_burst_.data() + channel * kStreamSlots;
    double busy = channel_busy_[channel];
    for (const PendingAccess& p : pending_) {
      // Burst-granularity channel interleave: the access's bursts on this
      // channel start at its first burst that maps here and are consecutive
      // channel bursts, so sequential streams stay sequential per channel.
      const std::uint64_t b = p.first_burst + ((channel - p.first_burst) & kChannelMask);
      if (b > p.last_burst) continue;
      std::uint64_t channel_burst = b >> kChannelShift;
      const std::uint64_t channel_last = channel_burst + ((p.last_burst - b) >> kChannelShift);
      // A streaming pattern activates the next row (in another bank) while
      // the current one transfers; a jump pays the full activate+precharge.
      double miss = channel_burst == stream_end[p.stream] + 1 ? kStreamingMissCycles
                                                             : kJumpMissCycles;
      stream_end[p.stream] = channel_last;
      for (;;) {
        const std::uint64_t row = channel_burst >> kRowShift;
        const std::uint64_t row_last = std::min(channel_last, ((row + 1) << kRowShift) - 1);
        Bank& state = bank[row & kBankMask];
        if (state.open_row == row) {
          busy += kHitCycles;
          ++hits;
        } else {
          state.open_row = row;
          busy += miss;
        }
        // The rest of this row's bursts hit it, one addition each.
        for (std::uint64_t c = channel_burst; c < row_last; ++c) busy += kHitCycles;
        hits += row_last - channel_burst;
        if (row_last == channel_last) break;
        channel_burst = row_last + 1;
        miss = kStreamingMissCycles;  // the access runs on into the next row
      }
    }
    channel_busy_[channel] = busy;
  }
  stats_.row_hits += hits;
  stats_.row_misses += pending_bursts_ - hits;
  pending_bursts_ = 0;
  pending_.clear();
}

Cycles HbmModel::epoch_cycles() const {
  settle();
  const double worst = *std::max_element(channel_busy_.begin(), channel_busy_.end());
  return static_cast<Cycles>(std::llround(std::ceil(worst)));
}

Joules HbmModel::energy() const {
  const double bits = static_cast<double>(stats_.bytes_read + stats_.bytes_written) * 8.0;
  return bits * HbmConfig::energy_pj_per_bit * 1e-12;
}

}  // namespace gnnie
