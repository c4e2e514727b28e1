// Tests for report JSON export: structural validity (balanced brackets,
// required keys), numeric fidelity, per-layer content, the one serving
// shape (schema_version 4) for every report, string escaping, and
// independence from the global locale.
#include <gtest/gtest.h>

#include <locale>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "core/report_io.hpp"
#include "datasets/synthetic.hpp"
#include "engine_test_util.hpp"
#include "nn/model.hpp"
#include "serve/cluster.hpp"
#include "serve/fleet.hpp"
#include "serve_test_util.hpp"

namespace gnnie {
namespace {

using serve::Cluster;
using serve::FleetSpec;
using serve::RequestTrace;
using test::ServeFixture;

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

/// Occurrences of `needle` in `json`.
std::size_t count_of(const std::string& json, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

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

/// The one serving shape: the version leads, every top-level key appears
/// in schema order, and each of the `records` records carries all 11 fields.
void expect_complete_shape(const std::string& json, std::size_t records) {
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_EQ(json.rfind("{\"schema_version\":4,\"dies\":", 0), 0u) << json.substr(0, 60);
  std::size_t pos = 0;
  for (const char* key :
       {"scheduler", "requests", "clock_hz", "makespan_cycles", "makespan_seconds",
        "throughput_per_second", "p50_latency_cycles", "p95_latency_cycles",
        "p99_latency_cycles", "max_latency_cycles", "mean_queue_depth", "die_utilization",
        "fleet_cost", "die_labels", "warmth_enabled", "warm_hit_rate", "plan_swaps",
        "warm_p50_latency_cycles", "warm_p99_latency_cycles", "cold_p50_latency_cycles",
        "cold_p99_latency_cycles", "die_warm_hit_rate", "die_plan_swaps", "max_coalesce",
        "coalesce_rate", "service_groups", "mean_batch_size", "weighting_cycles_saved",
        "batch_size_counts", "pipeline_enabled", "pipeline_hidden_cycles",
        "die_stream_cycles", "variant_counts", "shed_requests", "slo_requests",
        "slo_attainment", "stream_slo_attainment", "die_slo_attainment", "records"}) {
    pos = json.find("\"" + std::string(key) + "\":", pos);
    ASSERT_NE(pos, std::string::npos) << key << " missing or out of order";
  }
  for (const char* field : {"stream", "die", "arrival", "start", "finish", "warm_fraction",
                            "plan_swap", "group_size", "variant_width", "deadline", "shed"}) {
    EXPECT_EQ(count_of(json, "\"" + std::string(field) + "\":"), records) << field;
  }
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
  EXPECT_EQ(count_of(json, "\"arrival\""), rep.requests.size());
}

// A report from a run with a serving knob off keeps the one shape, the
// key layout of a knobs-on report; that knob's block holds its off values.

TEST(ReportIo, ServingJsonWarmthDisabledKeepsLegacyShape) {
  const ServingReport rep = make_serving_report();
  const std::string json = serving_report_to_json(rep);
  expect_complete_shape(json, rep.requests.size());
  EXPECT_NE(json.find("\"warmth_enabled\":false,\"warm_hit_rate\":0,\"plan_swaps\":0"),
            std::string::npos);
  EXPECT_EQ(count_of(json, "\"warm_fraction\":0,\"plan_swap\":false,"), rep.requests.size());
}

TEST(ReportIo, ServingJsonCoalescingDisabledKeepsLegacyShape) {
  // max_coalesce = 1 (the default) and no pipelining: every group is one
  // request served at the default width.
  const ServingReport rep = make_serving_report();
  const std::string json = serving_report_to_json(rep);
  expect_complete_shape(json, rep.requests.size());
  EXPECT_NE(json.find("\"max_coalesce\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"pipeline_enabled\":false,\"pipeline_hidden_cycles\":0"),
            std::string::npos);
  EXPECT_EQ(count_of(json, "\"group_size\":1,\"variant_width\":0,"), rep.requests.size());
}

TEST(ReportIo, ServingJsonSloDisabledPinsSchemaVersion1) {
  // Version 1 was the SLO-less shape and is gone: an SLO-less report leads
  // with the one version, 4, and carries the SLO block at its off values.
  const ServingReport rep = make_serving_report();
  const std::string json = serving_report_to_json(rep);
  expect_complete_shape(json, rep.requests.size());
  EXPECT_NE(json.find("\"shed_requests\":0,\"slo_requests\":0,\"slo_attainment\":1"),
            std::string::npos);
  EXPECT_EQ(count_of(json, "\"deadline\":0,\"shed\":false}"), rep.requests.size());
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

/// Formats a double as the JSON writer does: %.6g, the classic-locale
/// ostream default.
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
  EXPECT_EQ(count_of(json, "\"warm_fraction\""), rep.requests.size());
  EXPECT_NE(json.find("\"warm_fraction\":1,\"plan_swap\":false"), std::string::npos);
  EXPECT_NE(json.find("\"warm_fraction\":0,\"plan_swap\":true"), std::string::npos);
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
  EXPECT_EQ(count_of(json, "\"group_size\""), rep.requests.size());
}

ServingReport make_slo_serving_report() {
  ServingReport rep = make_serving_report();
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
  EXPECT_EQ(json.rfind("{\"schema_version\":4,", 0), 0u);
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
  EXPECT_EQ(count_of(json, "\"deadline\""), rep.requests.size());
  EXPECT_NE(json.find("\"deadline\":150,\"shed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"deadline\":120,\"shed\":true"), std::string::npos);
}

TEST(ReportIo, ServingJsonFleetFieldsRoundTrip) {
  ServingReport rep = make_serving_report();
  rep.fleet_cost = 3.25;
  rep.die_labels = {"E", "A"};
  const std::string json = serving_report_to_json(rep);
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_EQ(json.rfind("{\"schema_version\":4,", 0), 0u);
  EXPECT_NE(json.find("\"fleet_cost\":3.25"), std::string::npos);
  EXPECT_NE(json.find("\"die_labels\":[\"E\",\"A\"]"), std::string::npos);
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
  EXPECT_EQ(count_of(json, "\"weighting\""), 2u);  // two layers
}

TEST(ReportIo, JsonCheckSeesStrings) {
  // Brackets inside strings do not count; escapes never end a string.
  EXPECT_TRUE(json_braces_balanced(R"({"a":["}",{"b":"\"]"}],"c":"c:\\"})"));
  EXPECT_FALSE(json_braces_balanced(R"({"a":[1,2}])"));  // { closed by ]
  EXPECT_FALSE(json_braces_balanced(R"({"a":"}")"));     // the } is string text
  EXPECT_FALSE(json_braces_balanced(R"({"a":"c:\"})"));  // \" escapes the close
  EXPECT_FALSE(json_braces_balanced("{\"a\":\"tab\there\"}"));  // raw control char
}

TEST(ReportIo, ServingJsonEscapesStrings) {
  // Fleet labels are caller-supplied: a quote or backslash in one must not
  // break the JSON.
  ServeFixture f;
  FleetSpec spec = FleetSpec::from_designs("EA");
  spec.configs[0].label = "big \"E\"";
  spec.configs[1].label = "c:\\d";
  const ServingReport rep = Cluster(f.compiled, spec).simulate(
      RequestTrace::fixed_interval({f.stream_a()}, 4, 0));
  const std::string json = serving_report_to_json(rep);
  EXPECT_TRUE(json_braces_balanced(json));
  EXPECT_NE(json.find(R"("die_labels":["big \"E\"","c:\\d"])"), std::string::npos)
      << json.substr(0, 400);

  // Control characters become \u00XX escapes.
  ServingReport named = make_serving_report();
  named.scheduler = "a\tb\x01";
  EXPECT_NE(serving_report_to_json(named).find(R"("scheduler":"a\u0009b\u0001")"),
            std::string::npos);
}

/// A numpunct facet of the kind many European locales carry: ',' as the
/// decimal point and '.' grouping every three digits.
struct CommaDecimals : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(ReportIo, WritersIgnoreTheGlobalLocale) {
  const InferenceReport run = make_report(GnnKind::kGcn);
  ServingReport serving = make_warm_serving_report();
  serving.makespan = 1234567;
  const std::string run_json = report_to_json(run);
  const std::string serving_json = serving_report_to_json(serving);

  std::string probe;
  std::string run_json_comma;
  std::string serving_json_comma;
  {
    const std::locale previous =
        std::locale::global(std::locale(std::locale::classic(), new CommaDecimals));
    std::ostringstream os;  // proves the facet reaches a default-built stream
    os << 0.5 << ' ' << 1234567;
    probe = os.str();
    run_json_comma = report_to_json(run);
    serving_json_comma = serving_report_to_json(serving);
    std::locale::global(previous);  // the classic locale
  }
  EXPECT_EQ(probe, "0,5 1.234.567");
  EXPECT_EQ(run_json_comma, run_json);
  EXPECT_EQ(serving_json_comma, serving_json);
  EXPECT_NE(serving_json.find("\"makespan_cycles\":1234567,"), std::string::npos);
}

TEST(ServingJson, KnobsOffAndKnobsOnClusterReportsShareOneShape) {
  // Every serving knob off: a plain two-die cluster.
  ServeFixture plain;
  const ServingReport off = Cluster(plain.compiled, 2).simulate(
      RequestTrace::fixed_interval({plain.stream_a()}, 4, 0));
  const std::string off_json = serving_report_to_json(off);
  expect_complete_shape(off_json, off.requests.size());
  EXPECT_NE(off_json.find("\"pipeline_enabled\":false,\"pipeline_hidden_cycles\":0,"
                          "\"die_stream_cycles\":[0,0],"
                          "\"variant_counts\":[{\"width\":0,\"slots\":4}]"),
            std::string::npos);

  // Every serving knob on: a deadline trace on an E+A fleet with warmth,
  // coalescing, pipelining, and a variant family.
  auto with_knobs = [](EngineConfig config) {
    config.warmth.enabled = true;
    config.batching.max_coalesce = 4;
    config.pipeline.enabled = true;
    config.pipeline.variant_widths = {1, 4};
    return config;
  };
  ServeFixture f(with_knobs(EngineConfig::paper_default(false)));
  FleetSpec spec = FleetSpec::from_designs("EA");
  for (serve::FleetDieConfig& die : spec.configs) die.engine = with_knobs(die.engine);
  const Cycles service = f.compiled.cost({f.plan_a, &f.a.features}).total_cycles;
  serve::TraceStream a = f.stream_a();
  a.slo_cycles = static_cast<std::int64_t>(2 * service);
  const ServingReport on = Cluster(f.compiled, spec).simulate(
      RequestTrace::poisson({a, f.stream_b()}, 40, static_cast<double>(service) / 4.0,
                            /*seed=*/3),
      {.scheduler = serve::SchedulerKind::kSloAware,
       .admission = serve::AdmissionKind::kShedHopeless});
  const std::string on_json = serving_report_to_json(on);
  expect_complete_shape(on_json, on.requests.size());
  EXPECT_NE(on_json.find("\"die_labels\":[\"E\",\"A\"],\"warmth_enabled\":true,"),
            std::string::npos);
  EXPECT_NE(on_json.find("\"pipeline_enabled\":true,"), std::string::npos);
  EXPECT_NE(on_json.find("\"variant_counts\":[{\"width\":1,"), std::string::npos);
  EXPECT_GT(on.slo_request_count(), 0u);
}

}  // namespace
}  // namespace gnnie
