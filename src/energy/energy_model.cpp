#include "energy/energy_model.hpp"

#include "common/require.hpp"

namespace gnnie {
namespace {

// Compute (32 nm, ~1 V): an 8-bit-weight MAC plus its pipeline share.
constexpr double kMacPj = 0.9;
constexpr double kSfuOpPj = 3.5;
// On-chip SRAM access energies scale with capacity (CACTI-style):
constexpr double kSpadPjPerByte = 0.06;
constexpr double kInputBufferPjPerByte = 0.20;   // 256–512 KB
constexpr double kOutputBufferPjPerByte = 0.32;  // 1 MB
constexpr double kWeightBufferPjPerByte = 0.12;  // 128 KB
// On-chip reuse multipliers: each DRAM byte is read from its buffer this
// many times by the PE array before being replaced.
constexpr double kInputReuse = 4.0;
constexpr double kOutputReuse = 2.5;
constexpr double kWeightReuse = 12.0;
constexpr double kLeakageW = 0.55;  // static power of logic + SRAM

}  // namespace

Joules EnergyBreakdown::total() const {
  return mac + sfu + spad + input_buffer + output_buffer + weight_buffer + dram_input +
         dram_output + dram_weight + leakage;
}

Joules EnergyBreakdown::on_chip_total() const {
  return mac + sfu + spad + input_buffer + output_buffer + weight_buffer + leakage;
}

EnergyBreakdown compute_energy(const InferenceReport& report) {
  EnergyBreakdown e;
  const double pj = 1e-12;

  e.mac = static_cast<double>(report.total_macs) * kMacPj * pj;
  e.sfu = static_cast<double>(report.total_sfu_ops) * kSfuOpPj * pj;
  // Every MAC reads two operands from / writes one partial to its spads.
  e.spad = static_cast<double>(report.total_macs) * 3.0 * kSpadPjPerByte * pj;

  const auto client =
      [&](MemClient c) { return static_cast<double>(report.dram.client_bytes[static_cast<std::size_t>(c)]); };
  const double in_bytes = client(MemClient::kInput);
  const double out_bytes = client(MemClient::kOutput);
  const double w_bytes = client(MemClient::kWeight);

  e.input_buffer = in_bytes * kInputReuse * kInputBufferPjPerByte * pj;
  e.output_buffer = out_bytes * kOutputReuse * kOutputBufferPjPerByte * pj;
  e.weight_buffer = w_bytes * kWeightReuse * kWeightBufferPjPerByte * pj;

  e.dram_input = in_bytes * 8.0 * HbmConfig::energy_pj_per_bit * pj;
  e.dram_output = out_bytes * 8.0 * HbmConfig::energy_pj_per_bit * pj;
  e.dram_weight = w_bytes * 8.0 * HbmConfig::energy_pj_per_bit * pj;

  e.leakage = kLeakageW * report.runtime_seconds();
  return e;
}

double average_power_w(const EnergyBreakdown& e, const InferenceReport& report) {
  const Seconds t = report.runtime_seconds();
  GNNIE_REQUIRE(t > 0.0, "report has zero runtime");
  return e.total() / t;
}

double inferences_per_kilojoule(const EnergyBreakdown& e) {
  GNNIE_REQUIRE(e.total() > 0.0, "zero energy");
  return 1000.0 / e.total();
}

double inferences_per_kilojoule(double power_w, Seconds runtime) {
  GNNIE_REQUIRE(power_w > 0.0 && runtime > 0.0, "power and runtime must be positive");
  return 1000.0 / (power_w * runtime);
}

}  // namespace gnnie
