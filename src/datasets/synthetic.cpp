#include "datasets/synthetic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/alias_table.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/builder.hpp"

namespace gnnie {
namespace {

// The feature nnz mixture. Region centers are multiples of the overall
// mean nnz: A's center is derived so the mixture mean stays at 1.0× and
// Table II sparsity is matched ((2/3)·0.55 + (1/3)·1.90 ≈ 1.0).
constexpr double kRegionAWeight = 2.0 / 3.0;  // share of vertices in sparse Region A
constexpr double kRegionBCenter = 1.90;
constexpr double kRegionSigma = 0.22;  // within-region relative std deviation

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL + 1;
}

std::uint64_t pair_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Exact set of distinct pair keys: an open-addressed table (linear
/// probing, load at most 1/2) that only answers membership, plus the keys
/// in draw order. 0 marks an empty slot; pair_key never returns 0 because
/// u != v.
class PairSet {
 public:
  explicit PairSet(std::uint64_t capacity)
      : slots_(std::bit_ceil(2 * capacity), 0),
        shift_(64 - static_cast<unsigned>(std::countr_zero(slots_.size()))) {
    keys_.reserve(capacity);
  }

  void insert(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of key · 2^64/φ.
    for (std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;; i = (i + 1) & mask) {
      if (slots_[i] == key) return;
      if (slots_[i] == 0) {
        slots_[i] = key;
        keys_.push_back(key);
        return;
      }
    }
  }

  std::size_t size() const { return keys_.size(); }
  const std::vector<std::uint64_t>& keys() const { return keys_; }

 private:
  std::vector<std::uint64_t> slots_;
  unsigned shift_;
  std::vector<std::uint64_t> keys_;
};

}  // namespace

Csr generate_graph(const DatasetSpec& spec, std::uint64_t seed) {
  GNNIE_REQUIRE(spec.vertices >= 2, "graph generation needs at least two vertices");
  const std::uint64_t max_pairs =
      static_cast<std::uint64_t>(spec.vertices) * (spec.vertices - 1) / 2;
  std::uint64_t target_pairs = std::min<std::uint64_t>(spec.edges / 2, max_pairs);
  GNNIE_REQUIRE(target_pairs > 0, "edge target too small");
  GNNIE_REQUIRE(target_pairs <= (1ull << 62), "edge target too large");  // PairSet sizing

  Rng rng(mix_seed(seed, 0xA11CE));

  // Chung–Lu weights: heavy-tailed with the spec's exponent. The weight cap
  // keeps expected multi-edge probability manageable for dense specs.
  std::vector<double> weights(spec.vertices);
  const auto w_hi = static_cast<std::uint64_t>(
      std::max<double>(8.0, std::sqrt(static_cast<double>(target_pairs))));
  for (double& w : weights) {
    w = static_cast<double>(rng.next_power_law(1, w_hi, spec.degree_exponent));
  }
  const AliasTable endpoints(weights);

  PairSet pairs(target_pairs);
  const std::uint64_t max_attempts = 64 * target_pairs + 1024;
  std::uint64_t attempts = 0;
  while (pairs.size() < target_pairs && attempts < max_attempts) {
    ++attempts;
    const VertexId u = endpoints.sample(rng);
    const VertexId v = endpoints.sample(rng);
    if (u == v) continue;
    pairs.insert(pair_key(u, v));
  }
  // Near-clique corner (tiny scaled specs): fill deterministically.
  if (pairs.size() < target_pairs) {
    for (VertexId u = 0; u < spec.vertices && pairs.size() < target_pairs; ++u) {
      for (VertexId v = u + 1; v < spec.vertices && pairs.size() < target_pairs; ++v) {
        pairs.insert(pair_key(u, v));
      }
    }
  }

  GraphBuilder b(spec.vertices);
  for (std::uint64_t key : pairs.keys()) {
    b.add_edge(static_cast<VertexId>(key >> 32), static_cast<VertexId>(key & 0xffffffffu));
  }
  b.symmetrize();
  // Vertex ids stay in arbitrary (weight-uncorrelated) order, like the
  // dictionary ids of the Planetoid datasets — ID order carries no useful
  // locality, which is exactly the regime GNNIE's degree-aware layout
  // addresses.
  return b.build();
}

SparseMatrix generate_features(const DatasetSpec& spec, std::uint64_t seed) {
  GNNIE_REQUIRE(spec.feature_length > 0, "feature length must be positive");
  GNNIE_REQUIRE(spec.feature_sparsity >= 0.0 && spec.feature_sparsity < 1.0,
                "sparsity must be in [0,1)");
  Rng rng(mix_seed(seed, 0xFEA7));

  const double mean_nnz =
      (1.0 - spec.feature_sparsity) * static_cast<double>(spec.feature_length);
  // For dense specs (Reddit: 48% sparsity) the Region-B mode would clip at
  // the feature length and drag the realized mean below target; pull B in
  // and push A out so the mixture mean stays at 1.0× the target.
  double center_b = kRegionBCenter;
  const double max_center_b =
      0.90 * static_cast<double>(spec.feature_length) / std::max(mean_nnz, 1.0);
  if (center_b > max_center_b) {
    center_b = max_center_b;
    // w_a·c_a + (1-w_a)·c_b = 1.
  }
  const double center_a =
      std::max(0.05, (1.0 - (1.0 - kRegionAWeight) * center_b) / kRegionAWeight);

  // Zipfian feature popularity: index i carries weight (i+1)^-s, so
  // low-index ranges are denser (bag-of-words frequent terms). Nonzero
  // positions are drawn without replacement proportionally to these weights
  // (Efraimidis–Vitter keys: top-z of log(u)/w).
  // key_i = log(u)/w_i with w_i = (i+1)^-s, i.e. log(u)·(i+1)^s; log(u) is
  // negative, so larger (i+1)^s → more negative key → less likely selected.
  std::vector<double> recip_weight(spec.feature_length);
  for (std::uint32_t i = 0; i < spec.feature_length; ++i) {
    recip_weight[i] = std::pow(static_cast<double>(i) + 1.0, spec.feature_zipf_s);
  }

  std::vector<SparseRow> rows;
  rows.reserve(spec.vertices);
  std::vector<std::pair<double, std::uint32_t>> keys(spec.feature_length);
  for (std::uint32_t v = 0; v < spec.vertices; ++v) {
    const bool region_a = rng.next_bool(kRegionAWeight);
    const double center = (region_a ? center_a : center_b) * mean_nnz;
    const double drawn = center * (1.0 + kRegionSigma * rng.next_gaussian());
    // Clamp symmetrically around the center: one-sided truncation at the
    // feature length would bias the realized mean (and thus the sparsity).
    const double sigma_abs = kRegionSigma * center;
    const double delta = std::min({2.5 * sigma_abs,
                                   static_cast<double>(spec.feature_length) - center, center});
    const auto nnz = static_cast<std::uint32_t>(
        std::clamp(drawn, center - delta, center + delta));

    std::vector<std::uint32_t> idx(nnz);
    if (nnz > 0) {
      for (std::uint32_t i = 0; i < spec.feature_length; ++i) {
        double u = rng.next_double();
        if (u <= 0.0) u = 1e-300;
        keys[i] = {std::log(u) * recip_weight[i], i};  // larger key = more likely
      }
      std::nth_element(keys.begin(), keys.begin() + nnz, keys.end(),
                       [](const auto& a, const auto& b) { return a.first > b.first; });
      for (std::uint32_t i = 0; i < nnz; ++i) idx[i] = keys[i].second;
      std::sort(idx.begin(), idx.end());
    }
    std::vector<float> val(idx.size());
    for (float& x : val) x = static_cast<float>(rng.next_double(0.1, 1.0));
    rows.emplace_back(std::move(idx), std::move(val), spec.feature_length);
  }
  return SparseMatrix(std::move(rows), spec.feature_length);
}

Dataset generate_dataset(const DatasetSpec& spec, std::uint64_t seed) {
  Dataset d{spec, generate_graph(spec, mix_seed(seed, 1)),
            generate_features(spec, mix_seed(seed, 2))};
  return d;
}

Dataset generate_dataset(DatasetId id, double scale, std::uint64_t seed) {
  return generate_dataset(spec_of(id).scaled(scale), seed);
}

}  // namespace gnnie
