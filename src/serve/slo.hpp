// SLO admission control for the serving cluster.
//
// An AdmissionPolicy decides, every time a request is offered to the
// scheduler (on arrival and on every re-offer from the global queue),
// whether the request should be *shed* — terminally dropped instead of
// serviced. Shedding is the cluster's overload valve: past the queueing
// knee an open-loop trace grows its backlog without bound, and servicing a
// request that has already lost its deadline race only delays requests that
// could still meet theirs. A shed request counts as a missed deadline in
// the SLO-attainment rollup (ServingReport) but never pollutes latency
// percentiles — it has no completion.
//
// Two policies ship:
//
//   * admit-all — never sheds. The default everywhere; with it the cluster
//     is bit-exact with the admission-unaware simulator, deadline or not.
//   * shed-hopeless — sheds a deadline-carrying request iff its *best-case*
//     completion already violates the deadline: the fastest die's
//     fully-warm service estimate (cold with warmth disabled), assuming the
//     die were idle right now.
//     This is deliberately conservative — a request is only dropped when no
//     scheduling decision could save it — so admit-worthy requests are
//     never sacrificed to a heuristic. Deadline-free requests are always
//     admitted.
//
// Policies are stateless and deterministic, preserving the cluster's
// (trace, scheduler, admission, fleet) → ServingReport reproducibility.
#pragma once

#include <memory>
#include <span>

#include "common/units.hpp"
#include "serve/scheduler.hpp"
#include "serve/trace.hpp"

namespace gnnie::serve {

enum class AdmissionKind { kAdmitAll, kShedHopeless };

const char* to_string(AdmissionKind kind);

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  virtual AdmissionKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// True → shed the request now (terminal; it will never be offered
  /// again). `estimates` is the request's per-die service estimate vector,
  /// `dies` the per-die status snapshot — the same views the scheduler
  /// gets. Must be deterministic in its arguments.
  virtual bool shed(const TracedRequest& request,
                    std::span<const RequestEstimate> estimates,
                    std::span<const DieStatus> dies, Cycles now) const = 0;

  /// The shared admit-all instance (the default of every simulate overload).
  static const AdmissionPolicy& admit_all();

  static std::unique_ptr<AdmissionPolicy> make(AdmissionKind kind);
};

}  // namespace gnnie::serve
