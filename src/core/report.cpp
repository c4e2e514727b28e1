#include "core/report.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace gnnie {

double InferenceReport::effective_tops() const {
  const Seconds s = runtime_seconds();
  if (s <= 0.0) return 0.0;
  const double ops = 2.0 * static_cast<double>(total_macs) +
                     static_cast<double>(total_sfu_ops);
  return ops / s / 1e12;
}

Cycles percentile_of_sorted(const std::vector<Cycles>& sorted, double pct) {
  GNNIE_REQUIRE(pct > 0.0 && pct <= 100.0, "percentile must be in (0, 100]");
  if (sorted.empty()) return 0;
  // Nearest-rank: the smallest value ≥ pct% of the sample.
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

std::vector<Cycles> ServingReport::sorted_latencies() const {
  // Shed requests never completed — they have no end-to-end latency, and
  // with aggressive shedding a whole class (or the whole trace) can be shed,
  // leaving an empty sample; percentile_of_sorted returns 0 for those.
  std::vector<Cycles> latencies;
  latencies.reserve(requests.size());
  for (const RequestRecord& r : requests) {
    if (!r.shed) latencies.push_back(r.latency_cycles());
  }
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

Cycles ServingReport::latency_percentile(double pct) const {
  return percentile_of_sorted(sorted_latencies(), pct);
}

double ServingReport::mean_queue_depth() const {
  if (makespan == 0) return 0.0;
  double waiting_integral = 0.0;
  for (const RequestRecord& r : requests) {
    // Shed requests are excluded (the same rule sorted_latencies applies):
    // a shed record's start is stamped at the shed time, so counting its
    // queue_cycles would charge the queue for a request that was dropped,
    // not served — shed-heavy runs would report deep queues they never had.
    if (r.shed) continue;
    waiting_integral += static_cast<double>(r.queue_cycles());
  }
  return waiting_integral / static_cast<double>(makespan);
}

double ServingReport::die_utilization(std::size_t die) const {
  GNNIE_REQUIRE(die < die_busy_cycles.size(), "die index out of range");
  if (makespan == 0) return 0.0;
  return static_cast<double>(die_busy_cycles[die]) / static_cast<double>(makespan);
}

double ServingReport::throughput_per_second() const {
  // Shed requests were never served, so they are not throughput.
  const std::uint64_t completed = completed_count();
  if (completed == 0 || makespan == 0) return 0.0;
  return static_cast<double>(completed) / makespan_seconds();
}

double ServingReport::warm_hit_rate() const {
  const std::uint64_t completed = completed_count();
  if (completed == 0) return 0.0;
  std::uint64_t hits = 0;
  for (const RequestRecord& r : requests) hits += r.warm_hit() ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(completed);
}

double ServingReport::die_warm_hit_rate(std::size_t die) const {
  GNNIE_REQUIRE(die < die_warm_hits.size() && die < die_requests.size(),
                "die index out of range");
  if (die_requests[die] == 0) return 0.0;
  return static_cast<double>(die_warm_hits[die]) / static_cast<double>(die_requests[die]);
}

std::uint64_t ServingReport::total_plan_swaps() const {
  std::uint64_t swaps = 0;
  for (std::uint64_t s : die_plan_swaps) swaps += s;
  return swaps;
}

namespace {

Cycles class_latency_percentile(const std::vector<RequestRecord>& requests, bool warm,
                                double pct) {
  std::vector<Cycles> latencies;
  for (const RequestRecord& r : requests) {
    if (!r.shed && r.warm_hit() == warm) latencies.push_back(r.latency_cycles());
  }
  std::sort(latencies.begin(), latencies.end());
  // Shedding can empty a whole class; percentile_of_sorted returns 0 then.
  return percentile_of_sorted(latencies, pct);
}

}  // namespace

Cycles ServingReport::warm_latency_percentile(double pct) const {
  return class_latency_percentile(requests, /*warm=*/true, pct);
}

Cycles ServingReport::cold_latency_percentile(double pct) const {
  return class_latency_percentile(requests, /*warm=*/false, pct);
}

std::uint64_t ServingReport::total_groups() const {
  std::uint64_t groups = 0;
  for (std::uint64_t c : batch_size_counts) groups += c;
  return groups;
}

double ServingReport::coalesce_rate() const {
  const std::uint64_t completed = completed_count();
  if (completed == 0) return 0.0;
  std::uint64_t coalesced = 0;
  for (const RequestRecord& r : requests) coalesced += r.group_size > 1 ? 1 : 0;
  return static_cast<double>(coalesced) / static_cast<double>(completed);
}

double ServingReport::mean_batch_size() const {
  const std::uint64_t groups = total_groups();
  if (groups == 0) return completed_count() == 0 ? 0.0 : 1.0;
  return static_cast<double>(completed_count()) / static_cast<double>(groups);
}

// ---------------------------------------------------------------------------
// SLO accounting

std::uint64_t ServingReport::shed_count() const {
  std::uint64_t shed = 0;
  for (const RequestRecord& r : requests) shed += r.shed ? 1 : 0;
  return shed;
}

std::uint64_t ServingReport::completed_count() const {
  return requests.size() - shed_count();
}

std::uint64_t ServingReport::slo_request_count() const {
  std::uint64_t n = 0;
  for (const RequestRecord& r : requests) n += r.has_slo() ? 1 : 0;
  return n;
}

std::uint64_t ServingReport::slo_met_count() const {
  std::uint64_t n = 0;
  for (const RequestRecord& r : requests) n += r.slo_met() ? 1 : 0;
  return n;
}

double ServingReport::slo_attainment() const {
  const std::uint64_t with_slo = slo_request_count();
  if (with_slo == 0) return 1.0;  // vacuously met
  return static_cast<double>(slo_met_count()) / static_cast<double>(with_slo);
}

double ServingReport::stream_slo_attainment(std::size_t stream) const {
  std::uint64_t with_slo = 0, met = 0;
  for (const RequestRecord& r : requests) {
    if (r.stream != stream || !r.has_slo()) continue;
    ++with_slo;
    met += r.slo_met() ? 1 : 0;
  }
  if (with_slo == 0) return 1.0;
  return static_cast<double>(met) / static_cast<double>(with_slo);
}

double ServingReport::die_slo_attainment(std::size_t die) const {
  GNNIE_REQUIRE(die < dies, "die index out of range");
  std::uint64_t with_slo = 0, met = 0;
  for (const RequestRecord& r : requests) {
    if (r.shed || r.die != die || !r.has_slo()) continue;
    ++with_slo;
    met += r.slo_met() ? 1 : 0;
  }
  if (with_slo == 0) return 1.0;
  return static_cast<double>(met) / static_cast<double>(with_slo);
}

}  // namespace gnnie
