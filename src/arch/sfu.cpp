#include "arch/sfu.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/require.hpp"

namespace gnnie {

SfuExpLut::SfuExpLut() {
  const std::size_t n = 1ull << kSfuLutLog2Entries;
  pow2_lut_.resize(n + 1);  // +1 sentinel so interpolation never reads past the end
  for (std::size_t i = 0; i <= n; ++i) {
    pow2_lut_[i] = std::pow(2.0f, static_cast<float>(i) / static_cast<float>(n));
  }
}

float SfuExpLut::exp(float x) const {
  // e^x = 2^t with t = x·log2(e). Clamp to the float-representable window —
  // hardware saturates rather than producing inf/0 denormals.
  constexpr float kLog2E = 1.4426950408889634f;
  float t = x * kLog2E;
  if (t > 126.0f) t = 126.0f;
  if (t < -126.0f) t = -126.0f;
  const float fl = std::floor(t);
  const float frac = t - fl;
  const std::size_t n = pow2_lut_.size() - 1;
  const float scaled = frac * static_cast<float>(n);
  // Just below an integer t, t − floor(t) rounds to 1.0f; clamping keeps the
  // interpolation inside the table (weight 1 on the 2^1 entry).
  const auto idx = std::min<std::size_t>(static_cast<std::size_t>(scaled), n - 1);
  const float w = scaled - static_cast<float>(idx);
  const float pow2_frac = pow2_lut_[idx] * (1.0f - w) + pow2_lut_[idx + 1] * w;
  return std::ldexp(pow2_frac, static_cast<int>(fl));
}

float SfuExpLut::leaky_relu(float x, float slope) const {
  return x >= 0.0f ? x : slope * x;
}

double SfuExpLut::max_relative_error(float lo, float hi, int samples) const {
  GNNIE_REQUIRE(samples > 1 && hi > lo, "bad error-scan parameters");
  double worst = 0.0;
  for (int i = 0; i < samples; ++i) {
    const float x = lo + (hi - lo) * static_cast<float>(i) / static_cast<float>(samples - 1);
    const double truth = std::exp(static_cast<double>(x));
    if (truth == 0.0) continue;
    const double err = std::fabs(static_cast<double>(this->exp(x)) - truth) / truth;
    worst = std::max(worst, err);
  }
  return worst;
}

}  // namespace gnnie
