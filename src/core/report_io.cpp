#include "core/report_io.hpp"

#include <charconv>
#include <concepts>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "common/require.hpp"

namespace gnnie {
namespace {

/// A caller-supplied string, written quoted and escaped.
struct JsonString {
  std::string_view text;
};

/// Appends JSON text to a std::string. `<<` takes literal JSON text
/// (punctuation and keys, appended verbatim), integers, doubles (as printf's
/// %.6g, the default ostream format), JsonString, and vectors of numbers.
/// Numbers go through std::to_chars, so no locale ever reaches the output.
class JsonOut {
 public:
  JsonOut& operator<<(std::string_view text) {
    text_.append(text);
    return *this;
  }
  JsonOut& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  JsonOut& operator<<(T value) {
    return put(std::to_chars(buf_, std::end(buf_), value).ptr);
  }
  JsonOut& operator<<(double value) {  // %.6g
    return put(std::to_chars(buf_, std::end(buf_), value, std::chars_format::general, 6).ptr);
  }
  JsonOut& operator<<(JsonString s) {
    text_.push_back('"');
    for (const char c : s.text) {
      if (c == '"' || c == '\\') {
        text_.push_back('\\');
        text_.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        constexpr char kHex[] = "0123456789abcdef";
        text_.append("\\u00");
        text_.push_back(kHex[(c >> 4) & 0xf]);
        text_.push_back(kHex[c & 0xf]);
      } else {
        text_.push_back(c);
      }
    }
    text_.push_back('"');
    return *this;
  }
  template <typename T>
    requires(std::integral<T> || std::floating_point<T>)
  JsonOut& operator<<(const std::vector<T>& values) {
    return list(values.size(), [&](std::size_t i) { return values[i]; });
  }

  /// Writes `[item(0),…,item(n-1)]`.
  template <typename Item>
  JsonOut& list(std::size_t n, Item&& item) {
    text_.push_back('[');
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) text_.push_back(',');
      *this << item(i);
    }
    text_.push_back(']');
    return *this;
  }

  void reserve(std::size_t bytes) { text_.reserve(bytes); }
  std::size_t size() const { return text_.size(); }
  std::string take() { return std::move(text_); }

 private:
  JsonOut& put(const char* end) {
    text_.append(buf_, static_cast<std::size_t>(end - buf_));
    return *this;
  }

  std::string text_;
  char buf_[32] = {};  // the longest %.6g double or 64-bit integer, with room
};

std::string_view json_bool(bool b) { return b ? "true" : "false"; }

void write_weighting(JsonOut& out, const WeightingReport& rep) {
  out << "{\"total_cycles\":" << rep.total_cycles
      << ",\"compute_cycles\":" << rep.compute_cycles
      << ",\"memory_cycles\":" << rep.memory_cycles
      << ",\"stall_cycles\":" << rep.stall_cycles << ",\"passes\":" << rep.passes
      << ",\"macs\":" << rep.macs << ",\"blocks_total\":" << rep.blocks_total
      << ",\"blocks_skipped\":" << rep.blocks_skipped
      << ",\"lr_moved_blocks\":" << rep.lr_moved_blocks
      << ",\"weight_stream_bytes\":" << rep.weight_stream_bytes
      << ",\"dram_stream_bytes\":" << rep.dram_stream_bytes
      << ",\"row_cycles\":" << rep.row_cycles << "}";
}

void write_aggregation(JsonOut& out, const AggregationReport& rep) {
  out << "{\"total_cycles\":" << rep.total_cycles
      << ",\"compute_cycles\":" << rep.compute_cycles
      << ",\"memory_cycles\":" << rep.memory_cycles << ",\"iterations\":" << rep.iterations
      << ",\"rounds\":" << rep.rounds << ",\"edges_processed\":" << rep.edges_processed
      << ",\"accum_ops\":" << rep.accum_ops << ",\"sfu_ops\":" << rep.sfu_ops
      << ",\"dram_accesses\":" << rep.dram_accesses
      << ",\"random_dram_accesses\":" << rep.random_dram_accesses
      << ",\"dram_bytes\":" << rep.dram_bytes << ",\"evictions\":" << rep.evictions
      << ",\"refetches\":" << rep.refetches << ",\"partial_spills\":" << rep.partial_spills
      << ",\"gamma_escalations\":" << rep.gamma_escalations
      << ",\"livelock_sweep\":" << json_bool(rep.livelock_sweep)
      << ",\"input_fetch_bytes\":" << rep.input_fetch_bytes
      << ",\"cache_capacity_vertices\":" << rep.cache_capacity_vertices << "}";
}

}  // namespace

std::string report_to_json(const InferenceReport& report) {
  JsonOut out;
  out << "{\"total_cycles\":" << report.total_cycles << ",\"clock_hz\":" << kClockHz
      << ",\"runtime_seconds\":" << report.runtime_seconds()
      << ",\"effective_tops\":" << report.effective_tops()
      << ",\"total_macs\":" << report.total_macs
      << ",\"total_accum_ops\":" << report.total_accum_ops
      << ",\"total_sfu_ops\":" << report.total_sfu_ops << ",\"dram\":{\"bytes_read\":"
      << report.dram.bytes_read << ",\"bytes_written\":" << report.dram.bytes_written
      << ",\"row_hit_rate\":" << report.dram.row_hit_rate()
      << ",\"client_bytes\":[" << report.dram.client_bytes[0] << ','
      << report.dram.client_bytes[1] << ',' << report.dram.client_bytes[2] << "]}"
      << ",\"dram_energy_j\":" << report.dram_energy << ",\"layers\":[";
  for (std::size_t l = 0; l < report.layers.size(); ++l) {
    const LayerReport& lr = report.layers[l];
    out << (l == 0 ? "" : ",") << "{\"total_cycles\":" << lr.total_cycles
        << ",\"activation_cycles\":" << lr.activation_cycles << ",\"weighting\":";
    write_weighting(out, lr.weighting);
    if (lr.attention) {
      out << ",\"attention\":{\"total_cycles\":" << lr.attention->total_cycles
          << ",\"compute_cycles\":" << lr.attention->compute_cycles
          << ",\"macs\":" << lr.attention->macs << "}";
    }
    if (lr.mlp2) {
      out << ",\"mlp2\":";
      write_weighting(out, *lr.mlp2);
    }
    out << ",\"aggregation\":";
    write_aggregation(out, lr.aggregation);
    out << "}";
  }
  out << "]}";
  return out.take();
}

std::string serving_report_to_json(const ServingReport& report) {
  // One scan of the records for every statistic, one sorted sample per
  // warmth class for every percentile, then one pass writes the records.
  const ServingTally tally = report.tally();
  const LatencySplit split = report.latency_split();
  const std::vector<Cycles> latencies = split.merged();
  JsonOut out;
  // A record's text never exceeds 300 bytes (most take about 180; the
  // longest possible one, with every integer at 20 digits, takes 293), and
  // the loop asserts it. 16 records' worth leaves room for the rollup
  // ahead of them. Reserving that bound up front writes the JSON into one
  // allocation: growing by doubling would copy it and briefly hold two
  // buffers, while reserved pages that are never written take no resident
  // memory.
  constexpr std::size_t kRecordBytesBound = 300;
  out.reserve(kRecordBytesBound * (report.requests.size() + 16));
  out << "{\"schema_version\":4,\"dies\":" << report.dies
      << ",\"scheduler\":" << JsonString{report.scheduler}
      << ",\"requests\":" << report.requests.size() << ",\"clock_hz\":" << kClockHz
      << ",\"makespan_cycles\":" << report.makespan
      << ",\"makespan_seconds\":" << report.makespan_seconds()
      << ",\"throughput_per_second\":" << tally.throughput_per_second()
      << ",\"p50_latency_cycles\":" << percentile_of_sorted(latencies, 50.0)
      << ",\"p95_latency_cycles\":" << percentile_of_sorted(latencies, 95.0)
      << ",\"p99_latency_cycles\":" << percentile_of_sorted(latencies, 99.0)
      << ",\"max_latency_cycles\":" << percentile_of_sorted(latencies, 100.0)
      << ",\"mean_queue_depth\":" << tally.mean_queue_depth() << ",\"die_utilization\":";
  out.list(report.die_busy_cycles.size(),
           [&](std::size_t d) { return report.die_utilization(d); });
  out << ",\"fleet_cost\":" << report.fleet_cost << ",\"die_labels\":";
  out.list(report.die_labels.size(),
           [&](std::size_t d) { return JsonString{report.die_labels[d]}; });
  out << ",\"warmth_enabled\":" << json_bool(report.warmth_enabled)
      << ",\"warm_hit_rate\":" << tally.warm_hit_rate()
      << ",\"plan_swaps\":" << report.total_plan_swaps()
      << ",\"warm_p50_latency_cycles\":" << percentile_of_sorted(split.warm, 50.0)
      << ",\"warm_p99_latency_cycles\":" << percentile_of_sorted(split.warm, 99.0)
      << ",\"cold_p50_latency_cycles\":" << percentile_of_sorted(split.cold, 50.0)
      << ",\"cold_p99_latency_cycles\":" << percentile_of_sorted(split.cold, 99.0)
      << ",\"die_warm_hit_rate\":";
  out.list(report.die_warm_hits.size(),
           [&](std::size_t d) { return report.die_warm_hit_rate(d); });
  out << ",\"die_plan_swaps\":" << report.die_plan_swaps
      << ",\"max_coalesce\":" << report.max_coalesce
      << ",\"coalesce_rate\":" << tally.coalesce_rate()
      << ",\"service_groups\":" << tally.groups
      << ",\"mean_batch_size\":" << tally.mean_batch_size()
      << ",\"weighting_cycles_saved\":" << report.weighting_cycles_saved
      << ",\"batch_size_counts\":" << report.batch_size_counts
      << ",\"pipeline_enabled\":" << json_bool(report.pipeline_enabled)
      << ",\"pipeline_hidden_cycles\":" << report.pipeline_hidden_cycles
      << ",\"die_stream_cycles\":" << report.die_stream_cycles << ",\"variant_counts\":[";
  for (std::size_t v = 0; v < report.variant_counts.size(); ++v) {
    out << (v == 0 ? "" : ",") << "{\"width\":" << report.variant_counts[v].first
        << ",\"slots\":" << report.variant_counts[v].second << "}";
  }
  out << "],\"shed_requests\":" << tally.shed << ",\"slo_requests\":" << tally.slo.requests
      << ",\"slo_attainment\":" << tally.slo.attainment() << ",\"stream_slo_attainment\":";
  out.list(report.streams, [&](std::size_t s) { return tally.stream_slo[s].attainment(); });
  out << ",\"die_slo_attainment\":";
  out.list(report.dies, [&](std::size_t d) { return tally.die_slo[d].attainment(); });
  out << ",\"records\":[";
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    // deadline 0 = this request carries no SLO. A shed record's start and
    // finish both hold the shed time and its die is unattributed (0).
    const RequestRecord& r = report.requests[i];
    const std::size_t begin = out.size();
    out << (i == 0 ? "" : ",") << "{\"stream\":" << r.stream << ",\"die\":" << r.die
        << ",\"arrival\":" << r.arrival << ",\"start\":" << r.start
        << ",\"finish\":" << r.finish << ",\"warm_fraction\":" << r.warm_fraction
        << ",\"plan_swap\":" << json_bool(r.plan_swap) << ",\"group_size\":" << r.group_size
        << ",\"variant_width\":" << r.variant_width << ",\"deadline\":" << r.deadline
        << ",\"shed\":" << json_bool(r.shed) << "}";
    GNNIE_ASSERT(out.size() - begin <= kRecordBytesBound, "a record overran its JSON bound");
  }
  out << "]}";
  return out.take();
}

}  // namespace gnnie
