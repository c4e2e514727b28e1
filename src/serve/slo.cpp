#include "serve/slo.hpp"

#include <limits>

#include "common/require.hpp"

namespace gnnie::serve {

namespace {

struct AdmitAllPolicy final : AdmissionPolicy {
  AdmissionKind kind() const override { return AdmissionKind::kAdmitAll; }

  bool shed(const TracedRequest&, std::span<const RequestEstimate>,
            std::span<const DieStatus>, Cycles) const override {
    return false;
  }
};

struct ShedHopelessPolicy final : AdmissionPolicy {
  AdmissionKind kind() const override { return AdmissionKind::kShedHopeless; }

  bool shed(const TracedRequest& request,
            std::span<const RequestEstimate> estimates,
            std::span<const DieStatus> dies, Cycles now) const override {
    if (!request.has_slo()) return false;
    // Best case anywhere in the fleet: the fastest die's fully-warm service
    // (its cold service on a die without a warmth model), as if that die
    // were idle right now. Only a request that loses even this race is
    // hopeless; finishing exactly on the deadline still meets it, so
    // zero-slack requests are admitted.
    Cycles best = std::numeric_limits<Cycles>::max();
    for (std::size_t d = 0; d < estimates.size(); ++d) {
      const ServiceCost& cost = *estimates[d].cost;
      best = std::min(best, dies[d].warmth != nullptr ? cost.warm_cycles : cost.total_cycles);
    }
    return now + best > request.deadline;
  }
};

}  // namespace

const char* to_string(AdmissionKind kind) {
  switch (kind) {
    case AdmissionKind::kAdmitAll:
      return "admit-all";
    case AdmissionKind::kShedHopeless:
      return "shed-hopeless";
  }
  return "?";
}

const AdmissionPolicy& AdmissionPolicy::admit_all() {
  static const AdmitAllPolicy policy;
  return policy;
}

std::unique_ptr<AdmissionPolicy> AdmissionPolicy::make(AdmissionKind kind) {
  switch (kind) {
    case AdmissionKind::kAdmitAll:
      return std::make_unique<AdmitAllPolicy>();
    case AdmissionKind::kShedHopeless:
      return std::make_unique<ShedHopelessPolicy>();
  }
  GNNIE_REQUIRE(false, "unknown admission kind");
  return nullptr;
}

}  // namespace gnnie::serve
