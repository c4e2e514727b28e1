// Special Function Unit models (§III): exponentiation via a lookup-table /
// Taylor hybrid (the paper cites the Nilsson et al. hardware exp [25]) and
// LeakyReLU.
//
// The functional path matters for GATs: exp() feeds the attention softmax.
// The LUT keeps relative error well under 1e-3, which tests verify. The
// cycle model charges SFU work by lane throughput (kSfuLanes in
// core/engine_config.hpp) plus the exp pipeline fill (exp_latency).
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
