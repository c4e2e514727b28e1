// Inference reporting types of the serving API (core/serving.hpp) and the
// serving cluster (serve/cluster.hpp): per-layer phase reports, the per-run
// InferenceReport, the functional result, and the cluster's ServingReport.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregation.hpp"
#include "core/attention.hpp"
#include "core/weighting.hpp"
#include "mem/hbm.hpp"
#include "nn/matrix.hpp"

namespace gnnie {

struct LayerReport {
  WeightingReport weighting;
  std::optional<AttentionReport> attention;   // GAT only
  std::optional<WeightingReport> mlp2;        // GIN second linear
  AggregationReport aggregation;
  Cycles activation_cycles = 0;
  Cycles total_cycles = 0;
};

struct InferenceReport {
  std::vector<LayerReport> layers;
  Cycles total_cycles = 0;
  HbmStats dram;        ///< DRAM stats of this run (and only this run)
  Joules dram_energy = 0.0;
  std::uint64_t total_macs = 0;
  std::uint64_t total_accum_ops = 0;
  std::uint64_t total_sfu_ops = 0;

  Seconds runtime_seconds() const { return cycles_to_seconds(total_cycles); }
  /// Effective TOPS with the 1 MAC = 2 ops convention (Table IV).
  double effective_tops() const;
};

struct InferenceResult {
  Matrix output;
  InferenceReport report;
};

/// One request's lifetime in cluster virtual time (serve::Cluster): it
/// arrives (open-loop, from the trace), waits in a queue, starts service on
/// a die, and finishes service_cycles() later.
struct RequestRecord {
  std::size_t stream = 0;  ///< trace stream (graph) the request came from
  std::size_t die = 0;     ///< die that serviced it
  Cycles arrival = 0;
  Cycles start = 0;
  Cycles finish = 0;
  /// Share of the plan's cached working set resident on the die at service
  /// start (0 when the warmth model is disabled — every run is cold).
  double warm_fraction = 0.0;
  /// Servicing this request displaced another plan's resident state (the
  /// cluster charged the plan-swap penalty).
  bool plan_swap = false;
  /// Size of the coalesced same-plan group this request was serviced in
  /// (1 = alone in its slot; always 1 when coalescing is off).
  std::uint32_t group_size = 1;
  /// Width of the plan variant the slot this request ran in was dispatched
  /// under (EngineConfig::pipeline.variant_widths). 0 = the unbounded
  /// default variant — always 0 when no variant family is configured.
  std::uint32_t variant_width = 0;
  /// Absolute deadline stamped by the trace (0 = no SLO on this request).
  Cycles deadline = 0;
  /// The admission policy shed this request instead of servicing it. Shed
  /// records carry start == finish == the shed time and no die attribution;
  /// latency rollups skip them (they never completed).
  bool shed = false;

  Cycles service_cycles() const { return finish - start; }
  Cycles queue_cycles() const { return start - arrival; }
  /// End-to-end latency: queueing delay + service.
  Cycles latency_cycles() const { return finish - arrival; }
  /// Any of the plan's working set was resident at service start.
  bool warm_hit() const { return warm_fraction > 0.0; }
  bool has_slo() const { return deadline != 0; }
  /// Completed at or before its deadline (shed or deadline-free requests
  /// never count as met).
  bool slo_met() const { return has_slo() && !shed && finish <= deadline; }
};

/// Deadline-carrying requests and how many of them met their deadline.
struct SloCount {
  std::uint64_t requests = 0;
  std::uint64_t met = 0;
  /// met / requests; 1.0 when no request had a deadline (an empty contract
  /// is vacuously met).
  double attainment() const;
};

/// Every record-derived count of a ServingReport, from one scan of its
/// records (ServingReport::tally), and the statistics defined on them. The
/// report's accessors of the same names and serving_report_to_json read
/// these, so each statistic has one definition; the accessors document them.
struct ServingTally {
  std::uint64_t requests = 0;   ///< records, shed or not
  std::uint64_t shed = 0;
  std::uint64_t warm_hits = 0;  ///< warm_hit() records
  std::uint64_t coalesced = 0;  ///< records in a slot shared with another
  SloCount slo;                 ///< over all records
  std::vector<SloCount> stream_slo;  ///< per trace stream
  std::vector<SloCount> die_slo;     ///< per die, over served records
  /// Σ queue_cycles over served records, summed in record order.
  double waiting_cycles = 0.0;
  Cycles makespan = 0;
  std::uint64_t groups = 0;  ///< service slots (ServingReport::total_groups)

  std::uint64_t completed() const { return requests - shed; }
  double mean_queue_depth() const;
  double throughput_per_second() const;
  double warm_hit_rate() const;
  double coalesce_rate() const;
  double mean_batch_size() const;
};

/// Served latencies split by warmth class (ServingReport::latency_split),
/// each class ascending.
struct LatencySplit {
  std::vector<Cycles> warm;  ///< warm_hit() records
  std::vector<Cycles> cold;
  /// Both classes merged: every served latency, ascending.
  std::vector<Cycles> merged() const;
};

/// Aggregate of one serve::Cluster::simulate() call: per-request records in
/// trace order, rolled up into tail latency, queue depth, per-die
/// utilization, and throughput: the open-loop serving view — the
/// "millions of users" metrics are the percentiles, not the mean.
struct ServingReport {
  std::vector<RequestRecord> requests;  ///< trace order
  std::size_t dies = 0;
  std::string scheduler;                ///< name() of the scheduler that ran
  Cycles makespan = 0;                  ///< last finish time (0: empty trace)
  /// Per die: the summed span of its service slots, each from service
  /// start to slot end. Equals the members' summed service with pipelining
  /// off; with it on, stream time hidden under the previous slot is counted
  /// in pipeline_hidden_cycles instead, so utilization never exceeds 1.
  std::vector<Cycles> die_busy_cycles;
  /// Warmth model (EngineConfig::warmth) state of the run that produced
  /// this report. When disabled the per-die warmth counters are all zero
  /// and every request is cold.
  bool warmth_enabled = false;
  std::vector<std::uint64_t> die_requests;    ///< requests serviced, per die
  std::vector<std::uint64_t> die_warm_hits;   ///< warm_hit() services, per die
  std::vector<std::uint64_t> die_plan_swaps;  ///< swap-penalized services, per die
  /// Coalescing (EngineConfig::batching) state of the run that produced
  /// this report: the configured cap, the batch-size histogram
  /// (batch_size_counts[b-1] = service slots that coalesced b requests),
  /// and the weighting-setup cycles followers skipped. With max_coalesce 1
  /// every slot holds one request and nothing is saved.
  std::uint32_t max_coalesce = 1;
  std::vector<std::uint64_t> batch_size_counts;
  Cycles weighting_cycles_saved = 0;
  /// Pipelining (EngineConfig::pipeline) state of the run that produced
  /// this report. pipeline_hidden_cycles is the summed stream-track time
  /// that ran while the die's compute track was still busy with the
  /// previous slot (the cycles pipelining removed from the serial
  /// timeline), and die_stream_cycles is each die's total stream-track
  /// occupancy. Both zero when disabled.
  bool pipeline_enabled = false;
  Cycles pipeline_hidden_cycles = 0;
  std::vector<Cycles> die_stream_cycles;
  /// Plan-variant dispatch histogram: (variant width → slots dispatched
  /// under it), in family order. The default family is one width-0
  /// (unbounded) variant, so it holds a single {0, slots} entry.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> variant_counts;
  /// Stream count of the trace (index bound for stream_slo_attainment).
  /// A trace without deadlines has slo_request_count() == 0.
  std::size_t streams = 0;
  /// Fleet rollup (serve/fleet.hpp): the lineup's summed provisioning cost
  /// and each die's config label. A homogeneous cluster is a one-config
  /// fleet, so every report carries both.
  double fleet_cost = 0.0;
  std::vector<std::string> die_labels;  ///< per-die config label

  // Every record-derived statistic below is computed from the records on
  // each call, so hand-built reports work too: the statistics read one
  // tally() scan, the percentiles one latency_split(). A caller that reads
  // several takes the tally or the split once.

  /// One scan of the records: every count the statistics below read.
  ServingTally tally() const;
  /// One scan splits the served latencies into the warm and the cold class,
  /// and each class is sorted once. The sort is an LSD radix sort on the
  /// integer latencies (integers have one sorted order, so it answers as
  /// std::sort would): linear in the sample, where a comparison sort of a
  /// 200,000-request trace costs more than the scan.
  LatencySplit latency_split() const;

  /// Nearest-rank latency percentile over all requests; pct in (0, 100].
  /// Splits and sorts per call — batch callers should sort once
  /// (sorted_latencies or latency_split) and use percentile_of_sorted.
  Cycles latency_percentile(double pct) const;
  /// All request latencies, ascending.
  std::vector<Cycles> sorted_latencies() const;
  Cycles p50_latency_cycles() const { return latency_percentile(50.0); }
  Cycles p95_latency_cycles() const { return latency_percentile(95.0); }
  Cycles p99_latency_cycles() const { return latency_percentile(99.0); }
  Cycles max_latency_cycles() const { return latency_percentile(100.0); }

  /// Time-averaged number of waiting (queued, not yet in service) requests
  /// over [0, makespan]. By Little's law this is Σ queue_cycles / makespan,
  /// summed over served requests only — shed requests never reach service,
  /// so they are excluded here exactly as they are from every latency
  /// percentile.
  double mean_queue_depth() const { return tally().mean_queue_depth(); }
  /// Fraction of [0, makespan] die `die` spent servicing requests.
  double die_utilization(std::size_t die) const;
  Seconds makespan_seconds() const { return cycles_to_seconds(makespan); }
  /// Served inferences per second of cluster virtual time.
  double throughput_per_second() const { return tally().throughput_per_second(); }

  /// Fraction of all requests serviced with any of their plan's working set
  /// resident (0 with the warmth model disabled or an empty trace).
  double warm_hit_rate() const { return tally().warm_hit_rate(); }
  /// The same rate for one die (0 if the die serviced nothing).
  double die_warm_hit_rate(std::size_t die) const;
  /// Total plan swaps charged across all dies.
  std::uint64_t total_plan_swaps() const;
  /// Nearest-rank latency percentile over warm-hit (resp. cold) requests
  /// only; 0 when no request falls in the class.
  Cycles warm_latency_percentile(double pct) const;
  Cycles cold_latency_percentile(double pct) const;

  // SLO accounting. Shed requests count toward attainment denominators — a
  // shed deadline is a missed deadline — but never toward latency
  // percentiles.
  /// Requests the admission policy shed instead of servicing.
  std::uint64_t shed_count() const { return tally().shed; }
  /// Requests actually serviced (size() − shed_count()).
  std::uint64_t completed_count() const { return tally().completed(); }
  /// Requests carrying a deadline (shed or not).
  std::uint64_t slo_request_count() const { return tally().slo.requests; }
  /// Deadline-carrying requests that finished at or before their deadline.
  std::uint64_t slo_met_count() const { return tally().slo.met; }
  /// slo_met_count / slo_request_count; 1.0 when no request had a deadline
  /// (an empty contract is vacuously met).
  double slo_attainment() const { return tally().slo.attainment(); }
  /// Attainment over one trace stream's requests (1.0 when the stream had
  /// no deadline-carrying requests); `stream` must be below `streams`.
  double stream_slo_attainment(std::size_t stream) const;
  /// Attainment over the requests serviced on one die. Shed requests are
  /// never attributed to a die, so this is service quality, not admission.
  double die_slo_attainment(std::size_t die) const;

  /// Service slots executed (Σ batch_size_counts; == request count when
  /// coalescing is off).
  std::uint64_t total_groups() const;
  /// Fraction of all requests serviced in a slot shared with at least one
  /// other request (0 with coalescing off or an empty trace).
  double coalesce_rate() const { return tally().coalesce_rate(); }
  /// Mean requests per service slot (1.0 with coalescing off).
  double mean_batch_size() const { return tally().mean_batch_size(); }
};

/// Nearest-rank percentile over an ascending-sorted sample; pct in (0, 100].
/// Returns 0 for an empty sample.
Cycles percentile_of_sorted(const std::vector<Cycles>& sorted, double pct);

}  // namespace gnnie
