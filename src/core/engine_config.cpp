#include "core/engine_config.hpp"

#include "common/require.hpp"

namespace gnnie {

BufferSizes BufferSizes::for_dataset(bool large_dataset) {
  BufferSizes s{};
  s.input = large_dataset ? (512u << 10) : (256u << 10);
  return s;
}

EngineConfig EngineConfig::paper_default(bool large_dataset) {
  EngineConfig c;
  c.buffers = BufferSizes::for_dataset(large_dataset);
  c.validate();
  return c;
}

EngineConfig EngineConfig::design_point(char letter, bool large_dataset) {
  EngineConfig c = paper_default(large_dataset);
  switch (letter) {
    case 'A':
      c.array = ArrayConfig::design_a();
      break;
    case 'B':
      c.array = ArrayConfig::design_b();
      break;
    case 'C':
      c.array = ArrayConfig::design_c();
      break;
    case 'D':
      c.array = ArrayConfig::design_d();
      break;
    case 'E':
      c.array = ArrayConfig::design_e();
      break;
    default:
      GNNIE_REQUIRE(false, "design point letter must be in 'A'..'E'");
  }
  c.validate();
  return c;
}

double EngineConfig::peak_tops() const {
  return 2.0 * static_cast<double>(array.total_macs()) * kClockHz / 1e12;
}

void EngineConfig::validate() const {
  array.validate();
  GNNIE_REQUIRE(cache.gamma >= 1, "γ must be at least 1");
  GNNIE_REQUIRE(batching.max_coalesce >= 1,
                "a service slot holds at least the head request (max_coalesce >= 1)");
  for (std::size_t i = 0; i < pipeline.variant_widths.size(); ++i) {
    GNNIE_REQUIRE(pipeline.variant_widths[i] >= 1,
                  "plan-variant widths must be at least 1");
    GNNIE_REQUIRE(i == 0 || pipeline.variant_widths[i] > pipeline.variant_widths[i - 1],
                  "plan-variant widths must be strictly increasing");
  }
}

}  // namespace gnnie
