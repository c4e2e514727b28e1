#include "serve/trace.hpp"

#include <cmath>
#include <limits>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace gnnie::serve {
namespace {

void validate_streams(const std::vector<TraceStream>& streams) {
  GNNIE_REQUIRE(!streams.empty(), "a trace needs at least one stream");
  for (const TraceStream& s : streams) {
    GNNIE_REQUIRE(s.plan != nullptr, "every stream needs a GraphPlan");
    GNNIE_REQUIRE(s.features != nullptr, "every stream needs features");
    GNNIE_REQUIRE(std::isfinite(s.weight) && s.weight > 0.0,
                  "stream weights must be positive and finite");
    GNNIE_REQUIRE(s.slo_cycles >= 0, "a stream SLO cannot be negative (0 = no SLO)");
  }
}

constexpr Cycles kMaxCycles = std::numeric_limits<Cycles>::max();

void require_mean_gap(double mean_gap) {
  GNNIE_REQUIRE(std::isfinite(mean_gap) && mean_gap >= 0.0,
                "mean gap must be finite and non-negative");
}

/// Exponential gap with the given mean, rounded to whole cycles. A gap
/// llround cannot represent (≥ 2^63 cycles) is rejected rather than wrapped.
Cycles exponential_gap(double mean, Rng& rng) {
  const double u = rng.next_double();  // [0, 1)
  const double gap = -mean * std::log1p(-u);
  GNNIE_REQUIRE(gap < 0x1p63, "an inter-arrival gap does not fit the cycle clock");
  return static_cast<Cycles>(std::llround(gap));
}

/// `now + gap`, rejecting an arrival that would wrap the cycle clock.
Cycles advance(Cycles now, Cycles gap) {
  GNNIE_REQUIRE(gap <= kMaxCycles - now, "trace arrivals wrap the cycle clock");
  return now + gap;
}

}  // namespace

RequestTrace::RequestTrace(std::vector<TraceStream> streams)
    : streams_(std::move(streams)) {
  validate_streams(streams_);
  // The cumulative-weight table backing draw_stream, built once per trace:
  // arrivals used to re-sum every stream weight per draw, which dominated
  // construction of million-request traces.
  cumulative_weight_.reserve(streams_.size());
  double total = 0.0;
  for (const TraceStream& s : streams_) {
    total += s.weight;
    cumulative_weight_.push_back(total);
  }
  GNNIE_REQUIRE(std::isfinite(total), "stream weights must sum to a finite total");
}

std::size_t RequestTrace::draw_stream(Rng& rng) const {
  // Weighted draw against the prefix sums. `u - w0 - … - wk < 0` and
  // `u < w0 + … + wk` evaluate identically in IEEE arithmetic for the
  // first comparison, and draws are seeded — the table reproduces the old
  // subtract-scan bit-for-bit on the shipped traces (the seed-determinism
  // tests pin this).
  const double u = rng.next_double() * cumulative_weight_.back();
  for (std::size_t i = 0; i + 1 < cumulative_weight_.size(); ++i) {
    if (u < cumulative_weight_[i]) return i;
  }
  return streams_.size() - 1;  // floating-point residue lands on the last
}

std::vector<std::size_t> RequestTrace::stream_counts() const {
  std::vector<std::size_t> counts(streams_.size(), 0);
  for (const TracedRequest& r : requests_) ++counts[r.stream];
  return counts;
}

void RequestTrace::emit(Cycles arrival, std::size_t stream) {
  TracedRequest r;
  r.arrival = arrival;
  r.stream = stream;
  const std::int64_t slo = streams_[stream].slo_cycles;
  GNNIE_REQUIRE(slo <= 0 || static_cast<Cycles>(slo) <= kMaxCycles - arrival,
                "a request deadline wraps the cycle clock");
  r.deadline = slo > 0 ? arrival + static_cast<Cycles>(slo) : 0;
  requests_.push_back(r);
}

RequestTrace RequestTrace::fixed_interval(std::vector<TraceStream> streams,
                                          std::size_t count, Cycles gap) {
  RequestTrace trace(std::move(streams));
  GNNIE_REQUIRE(count < 2 || gap <= kMaxCycles / (count - 1),
                "trace arrivals wrap the cycle clock");
  trace.requests_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    trace.emit(static_cast<Cycles>(i) * gap, i % trace.streams_.size());
  }
  return trace;
}

RequestTrace RequestTrace::poisson(std::vector<TraceStream> streams, std::size_t count,
                                   double mean_gap_cycles, std::uint64_t seed) {
  require_mean_gap(mean_gap_cycles);
  RequestTrace trace(std::move(streams));
  trace.requests_.reserve(count);
  Rng rng(seed);
  Cycles now = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) now = advance(now, exponential_gap(mean_gap_cycles, rng));
    trace.emit(now, trace.draw_stream(rng));
  }
  return trace;
}

RequestTrace RequestTrace::bursty(std::vector<TraceStream> streams, std::size_t count,
                                  double calm_gap_cycles, double burst_gap_cycles,
                                  double mean_calm_run, double mean_burst_run,
                                  std::uint64_t seed) {
  require_mean_gap(calm_gap_cycles);
  require_mean_gap(burst_gap_cycles);
  GNNIE_REQUIRE(mean_calm_run >= 1.0 && mean_burst_run >= 1.0,
                "mean run lengths are in requests (>= 1)");
  RequestTrace trace(std::move(streams));
  trace.requests_.reserve(count);
  Rng rng(seed);
  Cycles now = 0;
  bool burst = false;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) now = advance(now, exponential_gap(burst ? burst_gap_cycles : calm_gap_cycles, rng));
    trace.emit(now, trace.draw_stream(rng));
    // Geometric run lengths: flip with probability 1/mean after each arrival.
    if (rng.next_bool(1.0 / (burst ? mean_burst_run : mean_calm_run))) burst = !burst;
  }
  return trace;
}

}  // namespace gnnie::serve
