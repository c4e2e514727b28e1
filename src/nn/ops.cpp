#include "nn/ops.hpp"

#include <algorithm>
#include <cmath>

namespace gnnie {

void relu_inplace(Matrix& m) {
  for (float& x : m.data()) x = std::max(0.0f, x);
}

float leaky_relu(float x, float slope) { return x >= 0.0f ? x : slope * x; }

void softmax_inplace(std::span<float> v) {
  if (v.empty()) return;
  const float mx = *std::max_element(v.begin(), v.end());
  float sum = 0.0f;
  for (float& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (float& x : v) x /= sum;
}

void row_softmax_inplace(Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) softmax_inplace(m.row(r));
}

}  // namespace gnnie
