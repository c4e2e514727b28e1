// Elementwise / rowwise neural operations shared by the reference layers
// and (for LeakyReLU/softmax semantics) mirrored by the accelerator's SFUs.
#pragma once

#include <span>

#include "nn/matrix.hpp"

namespace gnnie {

void relu_inplace(Matrix& m);
float leaky_relu(float x, float slope = 0.2f);

/// Numerically-stable softmax over a span, in place.
void softmax_inplace(std::span<float> v);

/// Row-wise softmax.
void row_softmax_inplace(Matrix& m);

}  // namespace gnnie
