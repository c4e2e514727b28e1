#include "core/report.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

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

namespace {

/// Sorts `keys` ascending: an LSD radix sort on byte digits. One pass counts
/// every byte position; a position whose byte all keys share is skipped,
/// and each other one is a stable scatter.
void sort_cycles(std::vector<Cycles>& keys) {
  if (keys.size() < 2) return;
  constexpr std::size_t kDigits = sizeof(Cycles);
  std::array<std::array<std::size_t, 256>, kDigits> counts{};
  for (const Cycles k : keys) {
    for (std::size_t d = 0; d < kDigits; ++d) ++counts[d][(k >> (8 * d)) & 0xff];
  }
  std::vector<Cycles> scattered(keys.size());
  for (std::size_t d = 0; d < kDigits; ++d) {
    std::array<std::size_t, 256>& slot = counts[d];
    if (slot[(keys[0] >> (8 * d)) & 0xff] == keys.size()) continue;
    std::size_t offset = 0;
    for (std::size_t& c : slot) offset += std::exchange(c, offset);
    for (const Cycles k : keys) scattered[slot[(k >> (8 * d)) & 0xff]++] = k;
    keys.swap(scattered);
  }
}

}  // namespace

std::vector<Cycles> LatencySplit::merged() const {
  std::vector<Cycles> all(warm.size() + cold.size());
  std::merge(warm.begin(), warm.end(), cold.begin(), cold.end(), all.begin());
  return all;
}

LatencySplit ServingReport::latency_split() const {
  // Shed requests never completed — they have no end-to-end latency, and
  // with aggressive shedding a whole class (or the whole trace) can be shed,
  // leaving an empty sample; percentile_of_sorted returns 0 for those.
  LatencySplit split;
  for (const RequestRecord& r : requests) {
    if (!r.shed) (r.warm_hit() ? split.warm : split.cold).push_back(r.latency_cycles());
  }
  sort_cycles(split.warm);
  sort_cycles(split.cold);
  return split;
}

std::vector<Cycles> ServingReport::sorted_latencies() const {
  return latency_split().merged();
}

Cycles ServingReport::latency_percentile(double pct) const {
  return percentile_of_sorted(sorted_latencies(), pct);
}

Cycles ServingReport::warm_latency_percentile(double pct) const {
  return percentile_of_sorted(latency_split().warm, pct);
}

Cycles ServingReport::cold_latency_percentile(double pct) const {
  return percentile_of_sorted(latency_split().cold, pct);
}

ServingTally ServingReport::tally() const {
  ServingTally t;
  t.requests = requests.size();
  t.stream_slo.resize(streams);
  t.die_slo.resize(dies);
  t.makespan = makespan;
  t.groups = total_groups();
  auto count = [](SloCount& c, const RequestRecord& r) {
    ++c.requests;
    c.met += r.slo_met() ? 1 : 0;
  };
  for (const RequestRecord& r : requests) {
    t.shed += r.shed ? 1 : 0;
    t.warm_hits += r.warm_hit() ? 1 : 0;
    t.coalesced += r.group_size > 1 ? 1 : 0;
    // Shed requests are excluded from the waiting integral (the same rule
    // latency_split applies): a shed record's start is stamped at the shed
    // time, so counting its queue_cycles would charge the queue for a
    // request that was dropped, not served — shed-heavy runs would report
    // deep queues they never had.
    if (!r.shed) t.waiting_cycles += static_cast<double>(r.queue_cycles());
    if (!r.has_slo()) continue;
    count(t.slo, r);
    if (r.stream < streams) count(t.stream_slo[r.stream], r);
    // Shed requests are never attributed to a die.
    if (!r.shed && r.die < dies) count(t.die_slo[r.die], r);
  }
  return t;
}

double SloCount::attainment() const {
  if (requests == 0) return 1.0;  // vacuously met
  return static_cast<double>(met) / static_cast<double>(requests);
}

double ServingTally::mean_queue_depth() const {
  if (makespan == 0) return 0.0;
  return waiting_cycles / static_cast<double>(makespan);
}

double ServingTally::throughput_per_second() const {
  // Shed requests were never served, so they are not throughput.
  if (completed() == 0 || makespan == 0) return 0.0;
  return static_cast<double>(completed()) / cycles_to_seconds(makespan);
}

double ServingTally::warm_hit_rate() const {
  if (completed() == 0) return 0.0;
  return static_cast<double>(warm_hits) / static_cast<double>(completed());
}

double ServingTally::coalesce_rate() const {
  if (completed() == 0) return 0.0;
  return static_cast<double>(coalesced) / static_cast<double>(completed());
}

double ServingTally::mean_batch_size() const {
  if (groups == 0) return completed() == 0 ? 0.0 : 1.0;
  return static_cast<double>(completed()) / static_cast<double>(groups);
}

double ServingReport::die_utilization(std::size_t die) const {
  GNNIE_REQUIRE(die < die_busy_cycles.size(), "die index out of range");
  if (makespan == 0) return 0.0;
  return static_cast<double>(die_busy_cycles[die]) / static_cast<double>(makespan);
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

std::uint64_t ServingReport::total_groups() const {
  std::uint64_t groups = 0;
  for (std::uint64_t c : batch_size_counts) groups += c;
  return groups;
}

// ---------------------------------------------------------------------------
// SLO accounting

double ServingReport::stream_slo_attainment(std::size_t stream) const {
  GNNIE_REQUIRE(stream < streams, "stream index out of range");
  return tally().stream_slo[stream].attainment();
}

double ServingReport::die_slo_attainment(std::size_t die) const {
  GNNIE_REQUIRE(die < dies, "die index out of range");
  return tally().die_slo[die].attainment();
}

}  // namespace gnnie
