// Report serialization: InferenceReport → JSON, for plotting pipelines and
// external analysis of bench results.
#pragma once

#include <iosfwd>
#include <string>

#include "core/report.hpp"

namespace gnnie {

/// Writes the full report (totals, per-layer phase breakdowns, DRAM stats)
/// as a single JSON object.
void write_report_json(std::ostream& out, const InferenceReport& report);
std::string report_to_json(const InferenceReport& report);

/// Writes a serving-cluster report (serve::Cluster) as a single JSON object:
/// the latency/throughput rollup, per-die utilization, and the per-request
/// (arrival, start, finish, die, stream) records in trace order. The leading
/// "schema_version" field is 1 for SLO-less homogeneous reports (the legacy
/// shape) and 2 when the fleet block (heterogeneous clusters) or the SLO
/// block + per-record deadline/shed fields (deadline-carrying traces) are
/// present.
void write_serving_report_json(std::ostream& out, const ServingReport& report);
std::string serving_report_to_json(const ServingReport& report);

}  // namespace gnnie
