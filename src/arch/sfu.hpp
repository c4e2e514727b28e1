// Special Function Unit models (§III): exponentiation via a lookup-table /
// Taylor hybrid (the paper cites the Nilsson et al. hardware exp [25]) and
// LeakyReLU.
//
// SfuExpLut is a standalone functional model of the hardware exp, measured
// by example_attention_study; its relative error stays well under 1e-3,
// which tests verify. The engine's GAT scores call std::exp (gat_score in
// core/aggregation.cpp), and the cycle model charges SFU work only through
// lane throughput (kSfuLanes in core/engine_config.hpp) and the exp
// pipeline fill (exp_latency).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace gnnie {

struct SfuConfig {
  /// log2 of the 2^frac LUT size (256 entries reproduces a small ROM).
  std::uint32_t lut_log2_entries = 8;
  Cycles exp_latency = 3;  ///< pipelined: one result/cycle after fill
};

class SfuExpLut {
 public:
  explicit SfuExpLut(SfuConfig config = {});

  /// Hardware-style exp: e^x = 2^(x·log2 e); integer part by exponent
  /// manipulation, fractional part by LUT + linear interpolation.
  float exp(float x) const;

  float leaky_relu(float x, float slope) const;

  const SfuConfig& config() const { return config_; }

  /// Worst-case relative error of the LUT exp over [lo, hi], sampled.
  double max_relative_error(float lo, float hi, int samples = 4096) const;

 private:
  SfuConfig config_;
  std::vector<float> pow2_lut_;  ///< 2^f for f in [0,1)
};

}  // namespace gnnie
