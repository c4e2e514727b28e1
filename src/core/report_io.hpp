// Report serialization: InferenceReport and ServingReport → JSON, for
// plotting pipelines and external analysis of bench results.
//
// Both writers append to one std::string. Numbers go through std::to_chars,
// so the text never depends on the process's global locale: integers print
// in full, doubles as printf's %.6g would. Strings are escaped.
#pragma once

#include <string>

#include "core/report.hpp"

namespace gnnie {

/// The full report (totals, per-layer phase breakdowns, DRAM stats) as a
/// single JSON object.
std::string report_to_json(const InferenceReport& report);

/// A serving-cluster report (serve::Cluster) as a single JSON object. Every
/// report has the same shape, "schema_version" 4, whichever serving knobs
/// ran. In order, the keys are:
///   - the rollup: dies, scheduler, request count, clock, makespan,
///     throughput, latency percentiles, mean queue depth, die_utilization;
///   - the fleet block: fleet_cost, die_labels;
///   - the warmth block: warmth_enabled, hit rates, swaps, warm/cold
///     latency split, per-die hit rates and swaps;
///   - the coalescing block: max_coalesce, coalesce_rate, service_groups,
///     mean_batch_size, weighting_cycles_saved, batch_size_counts;
///   - the pipeline block: pipeline_enabled, pipeline_hidden_cycles,
///     die_stream_cycles;
///   - variant_counts: {width, slots} per family member (one {0, slots}
///     entry for the default family);
///   - the SLO block: shed_requests, slo_requests, slo_attainment, and
///     attainment per stream and per die;
///   - records, in trace order, each with stream, die, arrival, start,
///     finish, warm_fraction, plan_swap, group_size, variant_width,
///     deadline (0 = no SLO), and shed.
/// A knob that did not run leaves its block at zero: no warmth, slots of
/// one request, no hidden stream cycles, no deadlines.
std::string serving_report_to_json(const ServingReport& report);

}  // namespace gnnie
