// Tests for report JSON export: structural validity (balanced braces,
// required keys), numeric fidelity, and per-layer content.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "core/report_io.hpp"
#include "datasets/synthetic.hpp"
#include "engine_test_util.hpp"
#include "nn/model.hpp"

namespace gnnie {
namespace {

InferenceReport make_report(GnnKind kind) {
  Dataset d = generate_dataset(spec_of(DatasetId::kCora).scaled(0.05), 1);
  ModelConfig m;
  m.kind = kind;
  m.input_dim = d.spec.feature_length;
  m.hidden_dim = 16;
  GnnWeights w = init_weights(m, 3);
  return test::run_once(Engine(EngineConfig::paper_default(false)), m, w, d.graph, d.features)
      .report;
}

using bench::json_braces_balanced;

TEST(ReportIo, JsonIsStructurallyValid) {
  const std::string json = report_to_json(make_report(GnnKind::kGcn));
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ReportIo, ContainsRequiredKeys) {
  const std::string json = report_to_json(make_report(GnnKind::kGcn));
  for (const char* key :
       {"\"total_cycles\"", "\"runtime_seconds\"", "\"effective_tops\"", "\"dram\"",
        "\"row_hit_rate\"", "\"layers\"", "\"weighting\"", "\"aggregation\"",
        "\"blocks_skipped\"", "\"rounds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ReportIo, NumbersMatchReport) {
  InferenceReport rep = make_report(GnnKind::kGcn);
  const std::string json = report_to_json(rep);
  EXPECT_NE(json.find("\"total_cycles\":" + std::to_string(rep.total_cycles)),
            std::string::npos);
  EXPECT_NE(json.find("\"total_macs\":" + std::to_string(rep.total_macs)),
            std::string::npos);
}

TEST(ReportIo, GatIncludesAttentionSection) {
  const std::string json = report_to_json(make_report(GnnKind::kGat));
  EXPECT_NE(json.find("\"attention\""), std::string::npos);
  EXPECT_EQ(report_to_json(make_report(GnnKind::kGcn)).find("\"attention\""),
            std::string::npos);
}

TEST(ReportIo, GinIncludesSecondLinear) {
  const std::string json = report_to_json(make_report(GnnKind::kGinConv));
  EXPECT_NE(json.find("\"mlp2\""), std::string::npos);
}

ServingReport make_serving_report() {
  ServingReport rep;
  rep.dies = 2;
  rep.scheduler = "fifo";
  rep.clock_hz = 1.3e9;
  rep.makespan = 400;
  rep.die_busy_cycles = {300, 100};
  for (std::size_t i = 0; i < 3; ++i) {
    RequestRecord r;
    r.stream = i % 2;
    r.die = i % 2;
    r.arrival = i * 50;
    r.start = r.arrival + 10 * i;
    r.finish = r.start + 100;
    rep.requests.push_back(r);
  }
  return rep;
}

TEST(ReportIo, ServingJsonIsStructurallyValidWithRequiredKeys) {
  const std::string json = serving_report_to_json(make_serving_report());
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"dies\"", "\"scheduler\"", "\"makespan_cycles\"", "\"p50_latency_cycles\"",
        "\"p95_latency_cycles\"", "\"p99_latency_cycles\"", "\"mean_queue_depth\"",
        "\"die_utilization\"", "\"throughput_per_second\"", "\"records\"",
        "\"arrival\"", "\"start\"", "\"finish\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ReportIo, ServingJsonNumbersMatchReport) {
  const ServingReport rep = make_serving_report();
  const std::string json = serving_report_to_json(rep);
  EXPECT_NE(json.find("\"makespan_cycles\":" + std::to_string(rep.makespan)),
            std::string::npos);
  EXPECT_NE(json.find("\"p99_latency_cycles\":" +
                      std::to_string(rep.p99_latency_cycles())),
            std::string::npos);
  EXPECT_NE(json.find("\"scheduler\":\"fifo\""), std::string::npos);
  // One record object per request.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"arrival\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, rep.requests.size());
}

TEST(ReportIo, ServingJsonWarmthDisabledKeepsLegacyShape) {
  // Backward compatibility: a warmth-disabled report announces the flag
  // but carries none of the warmth keys — consumers of the PR-2 shape see
  // only additive change.
  const std::string json = serving_report_to_json(make_serving_report());
  EXPECT_NE(json.find("\"warmth_enabled\":false"), std::string::npos);
  for (const char* key : {"\"warm_hit_rate\"", "\"plan_swaps\"", "\"warm_fraction\"",
                          "\"plan_swap\"", "\"die_warm_hit_rate\"",
                          "\"warm_p99_latency_cycles\"", "\"cold_p99_latency_cycles\""}) {
    EXPECT_EQ(json.find(key), std::string::npos) << key;
  }
}

ServingReport make_warm_serving_report() {
  ServingReport rep = make_serving_report();
  rep.warmth_enabled = true;
  rep.die_requests = {2, 1};
  rep.die_warm_hits = {1, 0};
  rep.die_plan_swaps = {1, 1};
  rep.requests[0].warm_fraction = 1.0;   // warm hit
  rep.requests[1].plan_swap = true;      // cold swap
  rep.requests[2].plan_swap = true;
  return rep;
}

/// Formats a double exactly as the JSON writer's ostream does.
std::string json_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

TEST(ReportIo, ServingJsonWarmthFieldsRoundTrip) {
  const ServingReport rep = make_warm_serving_report();
  const std::string json = serving_report_to_json(rep);
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_NE(json.find("\"warmth_enabled\":true"), std::string::npos);
  // The rollup values survive serialization verbatim.
  EXPECT_NE(json.find("\"warm_hit_rate\":" + json_number(rep.warm_hit_rate())),
            std::string::npos);
  EXPECT_NE(json.find("\"plan_swaps\":" + std::to_string(rep.total_plan_swaps())),
            std::string::npos);
  EXPECT_NE(json.find("\"warm_p50_latency_cycles\":" +
                      std::to_string(rep.warm_latency_percentile(50.0))),
            std::string::npos);
  EXPECT_NE(json.find("\"warm_p99_latency_cycles\":" +
                      std::to_string(rep.warm_latency_percentile(99.0))),
            std::string::npos);
  EXPECT_NE(json.find("\"cold_p99_latency_cycles\":" +
                      std::to_string(rep.cold_latency_percentile(99.0))),
            std::string::npos);
  EXPECT_NE(json.find("\"die_warm_hit_rate\":[" + json_number(rep.die_warm_hit_rate(0)) +
                      "," + json_number(rep.die_warm_hit_rate(1)) + "]"),
            std::string::npos);
  EXPECT_NE(json.find("\"die_plan_swaps\":[1,1]"), std::string::npos);
  // Every record carries its warmth fields.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"warm_fraction\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, rep.requests.size());
  EXPECT_NE(json.find("\"warm_fraction\":1,\"plan_swap\":false"), std::string::npos);
  EXPECT_NE(json.find("\"warm_fraction\":0,\"plan_swap\":true"), std::string::npos);
}

TEST(ReportIo, ServingJsonCoalescingDisabledKeepsLegacyShape) {
  // A max_coalesce = 1 report (the default) carries none of the batching
  // keys — consumers of the PR-3 shape see only additive change.
  const std::string json = serving_report_to_json(make_serving_report());
  for (const char* key :
       {"\"max_coalesce\"", "\"coalesce_rate\"", "\"service_groups\"",
        "\"mean_batch_size\"", "\"weighting_cycles_saved\"", "\"batch_size_counts\"",
        "\"group_size\""}) {
    EXPECT_EQ(json.find(key), std::string::npos) << key;
  }
}

TEST(ReportIo, ServingJsonCoalescingFieldsRoundTrip) {
  ServingReport rep = make_serving_report();
  rep.max_coalesce = 4;
  rep.batch_size_counts = {1, 1};  // one singleton slot, one pair
  rep.weighting_cycles_saved = 77;
  rep.requests[0].group_size = 2;
  rep.requests[1].group_size = 2;
  const std::string json = serving_report_to_json(rep);
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_NE(json.find("\"max_coalesce\":4"), std::string::npos);
  EXPECT_NE(json.find("\"coalesce_rate\":" + json_number(rep.coalesce_rate())),
            std::string::npos);
  EXPECT_NE(json.find("\"service_groups\":2"), std::string::npos);
  EXPECT_NE(json.find("\"mean_batch_size\":" + json_number(rep.mean_batch_size())),
            std::string::npos);
  EXPECT_NE(json.find("\"weighting_cycles_saved\":77"), std::string::npos);
  EXPECT_NE(json.find("\"batch_size_counts\":[1,1]"), std::string::npos);
  // Every record carries its group size.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"group_size\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, rep.requests.size());
}

TEST(ReportIo, ServingJsonSloDisabledPinsSchemaVersion1) {
  // Regression pin for the version-1 shape: an SLO-less homogeneous report
  // leads with schema_version 1 and carries none of the fleet/SLO keys, so
  // consumers of the pre-SLO JSON see only the additive version field.
  const std::string json = serving_report_to_json(make_serving_report());
  EXPECT_EQ(json.rfind("{\"schema_version\":1,\"dies\":", 0), 0u)
      << "schema_version must lead the object: " << json.substr(0, 60);
  for (const char* key :
       {"\"fleet_cost\"", "\"die_labels\"", "\"shed_requests\"", "\"slo_requests\"",
        "\"slo_attainment\"", "\"stream_slo_attainment\"", "\"die_slo_attainment\"",
        "\"deadline\"", "\"shed\""}) {
    EXPECT_EQ(json.find(key), std::string::npos) << key;
  }
}

ServingReport make_slo_serving_report() {
  ServingReport rep = make_serving_report();
  rep.slo_enabled = true;
  rep.streams = 2;
  // Request 0: met (finish 100 <= deadline 150). Request 1: missed
  // (finish 160 > deadline 155). Request 2: shed at its arrival.
  rep.requests[0].deadline = 150;
  rep.requests[1].deadline = 155;
  rep.requests[2].deadline = 120;
  rep.requests[2].shed = true;
  rep.requests[2].start = rep.requests[2].arrival;
  rep.requests[2].finish = rep.requests[2].arrival;
  return rep;
}

TEST(ReportIo, ServingJsonSloFieldsRoundTrip) {
  const ServingReport rep = make_slo_serving_report();
  const std::string json = serving_report_to_json(rep);
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_EQ(json.rfind("{\"schema_version\":2,", 0), 0u);
  EXPECT_NE(json.find("\"shed_requests\":1"), std::string::npos);
  EXPECT_NE(json.find("\"slo_requests\":3"), std::string::npos);
  EXPECT_NE(json.find("\"slo_attainment\":" + json_number(rep.slo_attainment())),
            std::string::npos);
  EXPECT_NE(json.find("\"stream_slo_attainment\":[" +
                      json_number(rep.stream_slo_attainment(0)) + "," +
                      json_number(rep.stream_slo_attainment(1)) + "]"),
            std::string::npos);
  EXPECT_NE(json.find("\"die_slo_attainment\":["), std::string::npos);
  // Every record carries its deadline and shed flag.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"deadline\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, rep.requests.size());
  EXPECT_NE(json.find("\"deadline\":150,\"shed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"deadline\":120,\"shed\":true"), std::string::npos);
}

TEST(ReportIo, ServingJsonFleetFieldsRoundTrip) {
  ServingReport rep = make_serving_report();
  rep.heterogeneous = true;
  rep.fleet_cost = 3.25;
  rep.die_labels = {"E", "A"};
  const std::string json = serving_report_to_json(rep);
  EXPECT_TRUE(json_braces_balanced(json));
  // A heterogeneous fleet bumps the schema even without SLOs.
  EXPECT_EQ(json.rfind("{\"schema_version\":2,", 0), 0u);
  EXPECT_NE(json.find("\"fleet_cost\":3.25"), std::string::npos);
  EXPECT_NE(json.find("\"die_labels\":[\"E\",\"A\"]"), std::string::npos);
  // Fleet alone adds no per-record fields.
  EXPECT_EQ(json.find("\"shed\""), std::string::npos);
}

TEST(ReportIo, WeightingJsonIncludesStreamByteSplit) {
  const std::string json = report_to_json(make_report(GnnKind::kGcn));
  EXPECT_NE(json.find("\"weight_stream_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"dram_stream_bytes\""), std::string::npos);
}

TEST(ReportIo, AggregationJsonIncludesInputFetchBytes) {
  const std::string json = report_to_json(make_report(GnnKind::kGcn));
  EXPECT_NE(json.find("\"input_fetch_bytes\""), std::string::npos);
}

TEST(ReportIo, LayerCountMatches) {
  const std::string json = report_to_json(make_report(GnnKind::kGcn));
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"weighting\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);  // two layers
}

}  // namespace
}  // namespace gnnie
