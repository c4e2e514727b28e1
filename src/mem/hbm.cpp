#include "mem/hbm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/require.hpp"

namespace gnnie {

double HbmConfig::burst_cycles() const {
  const double bytes_per_cycle_per_channel =
      peak_bandwidth_bytes_per_s / static_cast<double>(channels) / clock_hz;
  return static_cast<double>(burst_bytes) / bytes_per_cycle_per_channel;
}

void HbmConfig::validate() const {
  GNNIE_REQUIRE(std::has_single_bit(channels) && std::has_single_bit(banks_per_channel),
                "channels and banks per channel must be powers of two");
  GNNIE_REQUIRE(std::has_single_bit(burst_bytes), "burst size must be a power of two");
  GNNIE_REQUIRE(row_bytes % burst_bytes == 0 && std::has_single_bit(row_bytes / burst_bytes),
                "a row must hold a power-of-two number of bursts");
  GNNIE_REQUIRE(std::isfinite(peak_bandwidth_bytes_per_s) && peak_bandwidth_bytes_per_s > 0.0,
                "peak bandwidth must be finite and positive");
  GNNIE_REQUIRE(std::isfinite(clock_hz) && clock_hz > 0.0, "clock must be finite and positive");
  GNNIE_REQUIRE(std::isfinite(row_miss_penalty) && row_miss_penalty >= 0.0 &&
                    std::isfinite(streaming_miss_penalty) && streaming_miss_penalty >= 0.0,
                "row-miss penalties must be finite and non-negative");
  GNNIE_REQUIRE(std::isfinite(energy_pj_per_bit) && energy_pj_per_bit >= 0.0,
                "DRAM energy must be finite and non-negative");
  GNNIE_REQUIRE(std::isfinite(burst_cycles()), "burst transfer time must be finite");
}

HbmModel::HbmModel(HbmConfig config) : config_(config) {
  config_.validate();
  burst_shift_ = static_cast<unsigned>(std::countr_zero(config_.burst_bytes));
  channel_shift_ = static_cast<unsigned>(std::countr_zero(config_.channels));
  row_shift_ = static_cast<unsigned>(std::countr_zero(config_.row_bytes / config_.burst_bytes));
  bank_shift_ = static_cast<unsigned>(std::countr_zero(config_.banks_per_channel));
  channel_mask_ = config_.channels - 1;
  bank_mask_ = config_.banks_per_channel - 1;
  // A miss costs the burst plus its penalty; the sum is the same double for
  // every burst, so it is formed once.
  hit_cycles_ = config_.burst_cycles();
  streaming_miss_cycles_ = hit_cycles_ + config_.streaming_miss_penalty;
  jump_miss_cycles_ = hit_cycles_ + config_.row_miss_penalty;
  banks_.resize(static_cast<std::size_t>(config_.channels) * config_.banks_per_channel);
  channel_busy_.assign(config_.channels, 0.0);
  last_channel_burst_.assign(static_cast<std::size_t>(config_.channels) * kStreamSlots,
                             ~0ull);
  pending_.reserve(kMaxPending);
}

void HbmModel::begin_epoch() {
  settle();
  channel_busy_.assign(config_.channels, 0.0);
}

void HbmModel::access(std::uint64_t addr, Bytes bytes, bool write, MemClient client) {
  if (bytes == 0) return;
  ++stats_.accesses;
  const std::uint64_t first_burst = addr >> burst_shift_;
  const std::uint64_t last_burst = (addr + bytes - 1) >> burst_shift_;
  const std::uint64_t burst_count = last_burst - first_burst + 1;
  const Bytes moved = burst_count << burst_shift_;

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
  for (std::size_t channel = 0; channel < config_.channels; ++channel) {
    Bank* const bank = banks_.data() + (channel << bank_shift_);
    std::uint64_t* const stream_end = last_channel_burst_.data() + channel * kStreamSlots;
    double busy = channel_busy_[channel];
    for (const PendingAccess& p : pending_) {
      // Burst-granularity channel interleave: the access's bursts on this
      // channel start at its first burst that maps here and are consecutive
      // channel bursts, so sequential streams stay sequential per channel.
      const std::uint64_t b = p.first_burst + ((channel - p.first_burst) & channel_mask_);
      if (b > p.last_burst) continue;
      std::uint64_t channel_burst = b >> channel_shift_;
      const std::uint64_t channel_last = channel_burst + ((p.last_burst - b) >> channel_shift_);
      // A streaming pattern activates the next row (in another bank) while
      // the current one transfers; a jump pays the full activate+precharge.
      double miss = channel_burst == stream_end[p.stream] + 1 ? streaming_miss_cycles_
                                                             : jump_miss_cycles_;
      stream_end[p.stream] = channel_last;
      for (;;) {
        const std::uint64_t row = channel_burst >> row_shift_;
        const std::uint64_t row_last = std::min(channel_last, ((row + 1) << row_shift_) - 1);
        Bank& state = bank[row & bank_mask_];
        if (state.open_row == row) {
          busy += hit_cycles_;
          ++hits;
        } else {
          state.open_row = row;
          busy += miss;
        }
        // The rest of this row's bursts hit it, one addition each.
        for (std::uint64_t c = channel_burst; c < row_last; ++c) busy += hit_cycles_;
        hits += row_last - channel_burst;
        if (row_last == channel_last) break;
        channel_burst = row_last + 1;
        miss = streaming_miss_cycles_;  // the access runs on into the next row
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
  return bits * config_.energy_pj_per_bit * 1e-12;
}

}  // namespace gnnie
