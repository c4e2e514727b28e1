// Open-loop request traces for the serving-cluster simulator.
//
// A RequestTrace is a timestamped sequence of inference requests over one or
// more (GraphPlan, features) streams — the offered load a serve::Cluster is
// fed. Arrivals are open-loop: they happen at trace time regardless of how
// backed up the cluster is, which is what makes queueing delay and tail
// latency visible (a closed loop would throttle itself and hide the knee).
//
// Three arrival processes are shipped:
//   * fixed_interval — deterministic, one request every `gap` cycles
//     (gap 0 = everything arrives at t=0, the batch-equivalence case);
//   * poisson — exponential inter-arrival gaps around a mean (the classic
//     M/…/k open-loop model), seeded via common/rng;
//   * bursty — a 2-state Markov-modulated Poisson process (MMPP): calm and
//     burst states with separate mean gaps and geometric run lengths, the
//     "flash crowd" shape real request logs have.
//
// Multi-stream traces model multi-graph serving: each request draws its
// stream weighted by TraceStream::weight (round-robin in the deterministic
// fixed-interval mode), so schedulers can be judged on how they route
// requests for different graphs across dies.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "core/serving.hpp"

namespace gnnie {
class Rng;
}

namespace gnnie::serve {

/// One request stream: a planned graph, the features every request of the
/// stream carries, and the stream's share of the traffic mix.
struct TraceStream {
  GraphPlanPtr plan;
  const SparseMatrix* features = nullptr;
  double weight = 1.0;
  /// Latency SLO of this stream's requests, in cycles from arrival. 0 means
  /// "no SLO" (the request never counts toward attainment); negative values
  /// are rejected by every trace constructor. Each emitted request is
  /// stamped with the absolute deadline arrival + slo_cycles, so the
  /// cluster and schedulers never re-derive it.
  std::int64_t slo_cycles = 0;
};

/// One arrival: when it lands (cluster virtual time, cycles) and which
/// stream produced it. The request's plan and features are the stream's
/// (RequestTrace::stream), stored once per stream, not per arrival.
struct TracedRequest {
  Cycles arrival = 0;
  std::size_t stream = 0;
  /// Absolute deadline (arrival + the stream's slo_cycles); 0 = no SLO.
  Cycles deadline = 0;

  bool has_slo() const { return deadline != 0; }
};

class RequestTrace {
 public:
  /// Deterministic trace: request i arrives at i·gap, streams visited
  /// round-robin (weights ignored — no randomness in this mode).
  static RequestTrace fixed_interval(std::vector<TraceStream> streams, std::size_t count,
                                     Cycles gap);

  /// Poisson arrivals: exponential inter-arrival gaps with the given mean;
  /// stream drawn per request by weight. Deterministic per seed.
  static RequestTrace poisson(std::vector<TraceStream> streams, std::size_t count,
                              double mean_gap_cycles, std::uint64_t seed);

  /// 2-state MMPP: gaps are exponential with mean `calm_gap_cycles` in the
  /// calm state and `burst_gap_cycles` in the burst state; after each
  /// arrival the state flips with probability 1/mean_run_length (geometric
  /// run lengths, means given in requests). Starts calm.
  static RequestTrace bursty(std::vector<TraceStream> streams, std::size_t count,
                             double calm_gap_cycles, double burst_gap_cycles,
                             double mean_calm_run, double mean_burst_run,
                             std::uint64_t seed);

  const std::vector<TracedRequest>& requests() const { return requests_; }
  std::size_t size() const { return requests_.size(); }
  std::size_t stream_count() const { return streams_.size(); }
  const TraceStream& stream(std::size_t i) const { return streams_[i]; }
  /// Arrival time of the last request (0 for empty traces).
  Cycles horizon() const { return requests_.empty() ? 0 : requests_.back().arrival; }
  /// Requests per stream, index-aligned with stream(); sums to size().
  /// Handy for validating a skewed traffic mix actually skewed.
  std::vector<std::size_t> stream_counts() const;

 private:
  RequestTrace(std::vector<TraceStream> streams);

  void emit(Cycles arrival, std::size_t stream);
  /// Weighted stream draw against cumulative_weight_ (bit-exact with the
  /// sequential subtract-scan it replaced; pinned by seed-determinism tests).
  std::size_t draw_stream(Rng& rng) const;

  std::vector<TraceStream> streams_;
  /// Prefix sums of the stream weights, built once at construction so each
  /// arrival's weighted draw is table lookup, not a re-sum of every weight.
  std::vector<double> cumulative_weight_;
  std::vector<TracedRequest> requests_;
};

}  // namespace gnnie::serve
