#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/builder.hpp"
#include "nn/ops.hpp"

namespace gnnie {

Matrix gcn_normalize_aggregate(const Csr& g, const Matrix& hw) {
  GNNIE_REQUIRE(hw.rows() == g.vertex_count(), "feature row count must match vertex count");
  std::vector<float> inv_sqrt_deg(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    inv_sqrt_deg[v] = 1.0f / std::sqrt(static_cast<float>(g.degree(v)) + 1.0f);
  }
  Matrix out(hw.rows(), hw.cols());
  for (VertexId i = 0; i < g.vertex_count(); ++i) {
    // Self loop: coefficient 1/d̃_i.
    axpy(inv_sqrt_deg[i] * inv_sqrt_deg[i], hw.row(i), out.row(i));
    for (VertexId j : g.neighbors(i)) {
      axpy(inv_sqrt_deg[i] * inv_sqrt_deg[j], hw.row(j), out.row(i));
    }
  }
  return out;
}

Matrix sum_aggregate(const Csr& g, const Matrix& hw, float self_weight) {
  GNNIE_REQUIRE(hw.rows() == g.vertex_count(), "feature row count must match vertex count");
  Matrix out(hw.rows(), hw.cols());
  for (VertexId i = 0; i < g.vertex_count(); ++i) {
    axpy(self_weight, hw.row(i), out.row(i));
    for (VertexId j : g.neighbors(i)) axpy(1.0f, hw.row(j), out.row(i));
  }
  return out;
}

Matrix max_aggregate(const Csr& sampled, const Matrix& hw) {
  GNNIE_REQUIRE(hw.rows() == sampled.vertex_count(), "feature row count must match vertex count");
  Matrix out(hw.rows(), hw.cols());
  for (VertexId i = 0; i < sampled.vertex_count(); ++i) {
    auto out_row = out.row(i);
    auto self = hw.row(i);
    std::copy(self.begin(), self.end(), out_row.begin());
    for (VertexId j : sampled.neighbors(i)) {
      auto nb = hw.row(j);
      for (std::size_t c = 0; c < out_row.size(); ++c) {
        out_row[c] = std::max(out_row[c], nb[c]);
      }
    }
  }
  return out;
}

Matrix gcn_layer(const Csr& g, const Matrix& h, const LayerWeights& lw, bool final_activation) {
  Matrix hw = matmul(h, lw.w);
  Matrix out = gcn_normalize_aggregate(g, hw);
  if (final_activation) relu_inplace(out);
  return out;
}

Matrix sage_layer(const Csr& sampled, const Matrix& h, const LayerWeights& lw) {
  Matrix hw = matmul(h, lw.w);
  Matrix out = max_aggregate(sampled, hw);
  relu_inplace(out);
  return out;
}

Matrix gat_layer(const Csr& g, const Matrix& h, const LayerWeights& lw, float leaky_slope,
                 std::uint32_t heads) {
  GNNIE_REQUIRE(!lw.a1.empty() && lw.a1.size() == lw.a2.size(), "GAT layer needs attention vector");
  const Matrix hw = matmul(h, lw.w);  // ηw (§V-A)
  const std::size_t f = hw.cols();
  GNNIE_REQUIRE(lw.a1.size() == f, "attention half must match output width");
  GNNIE_REQUIRE(heads > 0 && f % heads == 0, "heads must divide the output width");
  const std::size_t f_head = f / heads;

  // Reordered linear-complexity form (Eq. 7), one partial pair per head:
  // e1[v·H + h] = a1[head h slice]ᵀ · ηw_v[head h slice].
  std::vector<float> e1(static_cast<std::size_t>(g.vertex_count()) * heads, 0.0f);
  std::vector<float> e2(static_cast<std::size_t>(g.vertex_count()) * heads, 0.0f);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    auto row = hw.row(v);
    for (std::uint32_t hd = 0; hd < heads; ++hd) {
      float s1 = 0.0f, s2 = 0.0f;
      for (std::size_t c = hd * f_head; c < (hd + 1) * f_head; ++c) {
        s1 += lw.a1[c] * row[c];
        s2 += lw.a2[c] * row[c];
      }
      e1[v * heads + hd] = s1;
      e2[v * heads + hd] = s2;
    }
  }

  Matrix out(hw.rows(), hw.cols());
  std::vector<float> scores;
  std::vector<VertexId> nbrs;
  for (VertexId i = 0; i < g.vertex_count(); ++i) {
    // Per-head softmax over {i} ∪ N(i) (Eq. 8); head outputs concatenate.
    nbrs.assign(1, i);
    for (VertexId j : g.neighbors(i)) nbrs.push_back(j);
    scores.resize(nbrs.size());
    for (std::uint32_t hd = 0; hd < heads; ++hd) {
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        scores[k] = leaky_relu(e1[i * heads + hd] + e2[nbrs[k] * heads + hd], leaky_slope);
      }
      softmax_inplace(scores);
      auto out_row = out.row(i);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        auto src = hw.row(nbrs[k]);
        for (std::size_t c = hd * f_head; c < (hd + 1) * f_head; ++c) {
          out_row[c] += scores[k] * src[c];
        }
      }
    }
  }
  relu_inplace(out);
  return out;
}

Matrix gin_layer(const Csr& g, const Matrix& h, const LayerWeights& lw, float eps) {
  GNNIE_REQUIRE(lw.w2.rows() > 0, "GIN layer needs the second MLP linear");
  // MLP((1+ε)h_i + Σ h_j) with a linear first stage lets us run
  // weighting-first: z = h·W1, aggregate, then bias/ReLU and the second
  // dense linear.
  Matrix z = matmul(h, lw.w);
  Matrix agg = sum_aggregate(g, z, 1.0f + eps);
  for (std::size_t r = 0; r < agg.rows(); ++r) {
    auto row = agg.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += lw.b1[c];
  }
  relu_inplace(agg);
  Matrix out = matmul(agg, lw.w2);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto row = out.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += lw.b2[c];
  }
  relu_inplace(out);
  return out;
}

Csr sample_neighborhood(const Csr& g, std::uint32_t sample_size, std::uint64_t seed) {
  GNNIE_REQUIRE(sample_size > 0, "sample size must be positive");
  Rng rng(seed);
  std::vector<EdgeId> offsets(static_cast<std::size_t>(g.vertex_count()) + 1, 0);
  std::vector<VertexId> neighbors;
  neighbors.reserve(std::min<std::uint64_t>(
      g.edge_count(), static_cast<std::uint64_t>(g.vertex_count()) * sample_size));
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    auto nb = g.neighbors(v);
    const auto deg = static_cast<std::uint32_t>(nb.size());
    if (deg <= sample_size) {
      neighbors.insert(neighbors.end(), nb.begin(), nb.end());
    } else {
      std::vector<std::uint32_t> picks = rng.sample_without_replacement(deg, sample_size);
      std::sort(picks.begin(), picks.end());
      for (std::uint32_t p : picks) neighbors.push_back(nb[p]);
    }
    offsets[v + 1] = neighbors.size();
  }
  return Csr(std::move(offsets), std::move(neighbors));
}

}  // namespace gnnie
