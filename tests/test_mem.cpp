// Tests for src/mem: HBM row-buffer behaviour (sequential ≫ random — the
// property GNNIE's cache policy exploits), epoch accounting, and the
// paper's buffer sizes (core/engine_config.hpp).
//
// ReferenceHbm keeps the model's earlier per-burst loop, which mapped each
// burst to its channel, row and bank by division, and the suite pins
// HbmModel against it access for access.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/engine_config.hpp"
#include "mem/hbm.hpp"

namespace gnnie {
namespace {

class ReferenceHbm {
 public:
  ReferenceHbm()
      : open_row_(std::size_t{HbmConfig::channels} * HbmConfig::banks_per_channel, ~0ull),
        channel_busy_(HbmConfig::channels, 0.0),
        last_channel_burst_(std::size_t{HbmConfig::channels} * kStreamSlots, ~0ull) {}

  void begin_epoch() { channel_busy_.assign(HbmConfig::channels, 0.0); }

  void access(std::uint64_t addr, Bytes bytes, bool write, MemClient client) {
    if (bytes == 0) return;
    ++stats_.accesses;
    const std::uint64_t first_burst = addr / HbmConfig::burst_bytes;
    const std::uint64_t last_burst = (addr + bytes - 1) / HbmConfig::burst_bytes;
    const std::uint64_t burst_count = last_burst - first_burst + 1;
    const Bytes moved = burst_count * HbmConfig::burst_bytes;
    (write ? stats_.bytes_written : stats_.bytes_read) += moved;
    stats_.client_bytes[static_cast<std::size_t>(client)] += moved;
    stats_.bursts += burst_count;

    const std::uint32_t bursts_per_row = HbmConfig::row_bytes / HbmConfig::burst_bytes;
    for (std::uint64_t b = first_burst; b <= last_burst; ++b) {
      const std::uint32_t channel = static_cast<std::uint32_t>(b % HbmConfig::channels);
      const std::uint64_t channel_burst = b / HbmConfig::channels;
      const std::uint64_t row = channel_burst / bursts_per_row;
      const std::uint32_t bank = static_cast<std::uint32_t>(row % HbmConfig::banks_per_channel);
      std::uint64_t& open_row =
          open_row_[static_cast<std::size_t>(channel) * HbmConfig::banks_per_channel + bank];
      const std::size_t region = std::min<std::uint64_t>(addr >> 36, kStreamSlots / 2 - 1);
      const std::size_t stream_slot =
          static_cast<std::size_t>(channel) * kStreamSlots + region * 2 + (write ? 1 : 0);
      const bool streaming = channel_burst == last_channel_burst_[stream_slot] + 1;
      last_channel_burst_[stream_slot] = channel_burst;
      double service = HbmConfig::burst_cycles();
      if (open_row == row) {
        ++stats_.row_hits;
      } else {
        ++stats_.row_misses;
        open_row = row;
        service += streaming ? HbmConfig::streaming_miss_penalty : HbmConfig::row_miss_penalty;
      }
      channel_busy_[channel] += service;
    }
  }

  Cycles epoch_cycles() const {
    const double worst = *std::max_element(channel_busy_.begin(), channel_busy_.end());
    return static_cast<Cycles>(std::llround(std::ceil(worst)));
  }

  const HbmStats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kStreamSlots = 16;
  std::vector<std::uint64_t> open_row_;
  std::vector<double> channel_busy_;
  std::vector<std::uint64_t> last_channel_burst_;
  HbmStats stats_;
};

TEST(HbmConfig, BurstCyclesMatchesBandwidth) {
  // 256 GB/s over 8 channels at 1.3 GHz → 24.6 B/cycle/channel;
  // a 64 B burst ≈ 2.6 cycles.
  EXPECT_NEAR(HbmConfig::burst_cycles(), 64.0 / (256.0e9 / 8.0 / 1.3e9), 1e-9);
}

TEST(Hbm, SequentialStreamHitsRows) {
  HbmModel m;
  m.begin_epoch();
  m.access(0, 1u << 20, false, MemClient::kInput);  // 1 MB stream
  EXPECT_GT(m.stats().row_hit_rate(), 0.95);
}

TEST(Hbm, RandomSmallReadsMissRows) {
  HbmModel m;
  m.begin_epoch();
  // 4-byte reads scattered over 1 GB: essentially every access misses.
  std::uint64_t addr = 12345;
  for (int i = 0; i < 20000; ++i) {
    m.access(addr % (1u << 30), 4, false, MemClient::kInput);
    addr = addr * 6364136223846793005ull + 1442695040888963407ull;
  }
  EXPECT_LT(m.stats().row_hit_rate(), 0.10);
}

TEST(Hbm, SequentialIsMuchFasterThanRandomForSameBytes) {
  const Bytes total = 4u << 20;
  HbmModel seq;
  seq.begin_epoch();
  seq.access(0, total, false, MemClient::kInput);
  const Cycles seq_cycles = seq.epoch_cycles();

  HbmModel rnd;
  rnd.begin_epoch();
  std::uint64_t addr = 99991;
  const int accesses = static_cast<int>(total / 64);
  for (int i = 0; i < accesses; ++i) {
    rnd.access(addr % (1u << 30), 64, false, MemClient::kInput);
    addr = addr * 6364136223846793005ull + 1442695040888963407ull;
  }
  const Cycles rnd_cycles = rnd.epoch_cycles();
  EXPECT_GT(rnd_cycles, 5 * seq_cycles);
}

TEST(Hbm, SequentialStreamApproachesPeakBandwidth) {
  HbmModel m;
  m.begin_epoch();
  const Bytes total = 64u << 20;
  m.access(0, total, false, MemClient::kInput);
  const double seconds = cycles_to_seconds(m.epoch_cycles());
  const double achieved = static_cast<double>(total) / seconds;
  EXPECT_GT(achieved, 0.80 * HbmConfig::peak_bandwidth_bytes_per_s);
  EXPECT_LE(achieved, 1.01 * HbmConfig::peak_bandwidth_bytes_per_s);
}

TEST(Hbm, SmallAccessRoundsUpToBurst) {
  HbmModel m;
  m.begin_epoch();
  m.access(10, 1, false, MemClient::kWeight);
  EXPECT_EQ(m.stats().bytes_read, 64u);
  EXPECT_EQ(m.stats().bursts, 1u);
}

TEST(Hbm, AccessSpanningBurstBoundaryCountsTwoBursts) {
  HbmModel m;
  m.begin_epoch();
  m.access(60, 8, false, MemClient::kInput);  // crosses the 64 B line
  EXPECT_EQ(m.stats().bursts, 2u);
}

TEST(Hbm, ZeroByteAccessIsNoop) {
  HbmModel m;
  m.begin_epoch();
  m.access(0, 0, false, MemClient::kInput);
  EXPECT_EQ(m.stats().accesses, 0u);
  EXPECT_EQ(m.epoch_cycles(), 0u);
}

TEST(Hbm, EpochResetsBusyNotStats) {
  HbmModel m;
  m.begin_epoch();
  m.access(0, 4096, false, MemClient::kInput);
  EXPECT_GT(m.epoch_cycles(), 0u);
  m.begin_epoch();
  EXPECT_EQ(m.epoch_cycles(), 0u);
  EXPECT_GT(m.stats().bytes_read, 0u);
}

TEST(Hbm, ClientAttribution) {
  HbmModel m;
  m.begin_epoch();
  m.access(0, 128, false, MemClient::kInput);
  m.access(1 << 20, 256, true, MemClient::kOutput);
  m.access(2 << 20, 64, false, MemClient::kWeight);
  EXPECT_EQ(m.stats().client_bytes[0], 128u);
  EXPECT_EQ(m.stats().client_bytes[1], 256u);
  EXPECT_EQ(m.stats().client_bytes[2], 64u);
}

TEST(Hbm, EnergyMatchesPjPerBit) {
  HbmModel m;
  m.begin_epoch();
  m.access(0, 1000, false, MemClient::kInput);  // rounds to 1024 bytes
  const double expected = 1024.0 * 8.0 * 3.97e-12;
  EXPECT_NEAR(m.energy(), expected, expected * 1e-9);
}

TEST(Hbm, WritesTrackedSeparately) {
  HbmModel m;
  m.begin_epoch();
  m.access(0, 64, true, MemClient::kOutput);
  EXPECT_EQ(m.stats().bytes_written, 64u);
  EXPECT_EQ(m.stats().bytes_read, 0u);
}

// Every HbmStats field by name, so a mismatch prints the field that moved.
std::vector<std::pair<std::string, std::uint64_t>> fields_of(const HbmStats& s) {
  return {{"bytes_read", s.bytes_read},           {"bytes_written", s.bytes_written},
          {"bursts", s.bursts},                   {"row_hits", s.row_hits},
          {"row_misses", s.row_misses},           {"client_bytes[0]", s.client_bytes[0]},
          {"client_bytes[1]", s.client_bytes[1]}, {"client_bytes[2]", s.client_bytes[2]},
          {"accesses", s.accesses}};
}

TEST(Hbm, MatchesPerBurstReferenceBitForBit) {
  const DramLayout layout;
  const std::uint64_t regions[] = {layout.property_base, layout.adjacency_base,
                                   layout.weight_base, layout.feature_base, layout.output_base};
  HbmModel model;
  // Queried only at the epoch ends that fall on even accesses, so its
  // accesses settle in batches: when its queue fills, when it answers,
  // or when an epoch starts.
  HbmModel batched;
  ReferenceHbm reference;
  // An access longer than this visits some bank twice.
  const Bytes bank_sweep =
      Bytes{HbmConfig::channels} * HbmConfig::banks_per_channel * HbmConfig::row_bytes;
  std::uint64_t stream_end[5][2] = {};  // per region and direction
  Rng rng(9001);
  for (int i = 0; i < 100000; ++i) {
    if (rng.next_below(64) == 0) {
      if (i % 2 == 0) {
        ASSERT_EQ(fields_of(batched.stats()), fields_of(reference.stats())) << "access " << i;
        ASSERT_EQ(batched.epoch_cycles(), reference.epoch_cycles()) << "access " << i;
      }
      model.begin_epoch();
      batched.begin_epoch();
      reference.begin_epoch();
    }
    const std::size_t region = rng.next_below(5);
    const bool write = rng.next_bool(0.3);
    const auto client = static_cast<MemClient>(rng.next_below(kMemClientCount));
    Bytes bytes = 0;
    const std::uint64_t size_kind = rng.next_below(200);
    if (size_kind == 0) {
      bytes = rng.next_below((Bytes{2} << 20) + 1);  // up to 2 MiB
    } else if (size_kind < 3) {
      bytes = bank_sweep + rng.next_below(bank_sweep);
    } else if (size_kind < 60) {
      bytes = rng.next_below(2 * Bytes{HbmConfig::burst_bytes} + 1);  // 0 to two bursts
    } else if (size_kind < 120) {
      bytes = Bytes{HbmConfig::burst_bytes} * (1 + rng.next_below(64));  // whole bursts
    } else {
      bytes = 1 + rng.next_below(4096);
    }
    std::uint64_t offset = 0;
    switch (rng.next_below(4)) {
      case 0:
        offset = stream_end[region][write];  // continues the stream
        break;
      case 1:
        offset = stream_end[region][write] + rng.next_below(512);  // a short skip
        break;
      case 2:
        offset = rng.next_below(Bytes{4} << 20);
        break;
      default:
        offset = rng.next_below(Bytes{1} << 30);
    }
    if (rng.next_bool(0.5)) offset &= ~(std::uint64_t{HbmConfig::burst_bytes} - 1);
    stream_end[region][write] = offset + bytes;

    model.access(regions[region] + offset, bytes, write, client);
    batched.access(regions[region] + offset, bytes, write, client);
    reference.access(regions[region] + offset, bytes, write, client);
    ASSERT_EQ(fields_of(model.stats()), fields_of(reference.stats())) << "access " << i;
    ASSERT_EQ(model.epoch_cycles(), reference.epoch_cycles()) << "access " << i;
  }
  EXPECT_EQ(fields_of(batched.stats()), fields_of(reference.stats()));
  EXPECT_EQ(batched.epoch_cycles(), reference.epoch_cycles());
  EXPECT_GT(model.stats().row_hits, 0u);
  EXPECT_GT(model.stats().row_misses, 0u);
}

TEST(Buffer, PaperSizes) {
  BufferSizes small = BufferSizes::for_dataset(false);
  BufferSizes large = BufferSizes::for_dataset(true);
  EXPECT_EQ(small.input, 256u << 10);
  EXPECT_EQ(large.input, 512u << 10);
  EXPECT_EQ(small.output, 1u << 20);
}

}  // namespace
}  // namespace gnnie
