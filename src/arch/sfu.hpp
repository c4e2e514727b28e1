// Special Function Unit models (§III): exponentiation via a lookup-table /
// Taylor hybrid (the paper cites the Nilsson et al. hardware exp [25]) and
// LeakyReLU.
//
// SfuExpLut is a standalone functional model of the hardware exp, measured
// by example_attention_study; its relative error stays well under 1e-3,
// which tests verify. The engine's GAT scores call std::exp (gat_score in
// core/aggregation.cpp), and the cycle model charges SFU work only through
// lane throughput (kSfuLanes) and the exp pipeline fill (kSfuExpLatency).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace gnnie {

/// Number of SFU lanes (the array interleaves "multiple columns" of SFUs;
/// we model two columns' worth).
inline constexpr std::uint32_t kSfuLanes = 32;
/// Exp pipeline fill: one result per lane per cycle after it.
inline constexpr Cycles kSfuExpLatency = 3;
/// log2 of the exp LUT's 2^frac entries (256 reproduces a small ROM).
inline constexpr std::uint32_t kSfuLutLog2Entries = 8;

class SfuExpLut {
 public:
  SfuExpLut();

  /// Hardware-style exp: e^x = 2^(x·log2 e); integer part by exponent
  /// manipulation, fractional part by LUT + linear interpolation.
  float exp(float x) const;

  float leaky_relu(float x, float slope) const;

  /// Worst-case relative error of the LUT exp over [lo, hi], sampled.
  double max_relative_error(float lo, float hi, int samples = 4096) const;

 private:
  std::vector<float> pow2_lut_;  ///< 2^f for f in [0,1)
};

}  // namespace gnnie
