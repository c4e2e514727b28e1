// Scenario: architectural design-space exploration beyond the paper's
// Designs A–E. Sweeps MAC provisioning, MPE psum slots, and input-buffer
// size, reporting the speedup-per-MAC metric β (Eq. 9) and end-to-end
// inference cycles.
//
//   $ ./example_design_space
#include <cstdio>

#include "common/table.hpp"
#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "nn/model.hpp"

namespace {

using namespace gnnie;

Cycles run_inference(const Dataset& d, EngineConfig cfg) {
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.input_dim = d.spec.feature_length;
  const CompiledModel compiled = Engine(std::move(cfg)).compile(model, init_weights(model, 7));
  return compiled.run({compiled.plan(d.graph), &d.features}).report.total_cycles;
}

}  // namespace

int main() {
  Dataset data = generate_dataset(DatasetId::kCora, 1.0, 1);

  std::printf("=== MAC provisioning (GCN inference, Cora) ===\n");
  Table t({"design", "MACs", "cycles", "beta vs A"});
  const struct {
    const char* name;
    ArrayConfig arr;
  } designs[] = {
      {"A (4/CPE)", ArrayConfig::design_a()}, {"B (5/CPE)", ArrayConfig::design_b()},
      {"C (6/CPE)", ArrayConfig::design_c()}, {"D (7/CPE)", ArrayConfig::design_d()},
      {"E (FM 4/5/6)", ArrayConfig::design_e()},
  };
  Cycles base = 0;
  for (const auto& dp : designs) {
    EngineConfig cfg = EngineConfig::paper_default(false);
    cfg.array = dp.arr;
    const Cycles cycles = run_inference(data, cfg);
    if (dp.arr.total_macs() == 1024) base = cycles;
    const double added = static_cast<double>(dp.arr.total_macs()) - 1024.0;
    t.add_row({dp.name, Table::cell(std::uint64_t{dp.arr.total_macs()}), Table::cell(cycles),
               added > 0 ? Table::cell((static_cast<double>(base) - static_cast<double>(cycles)) /
                                       added)
                         : std::string("-")});
  }
  std::printf("%s\n", t.render().c_str());

  std::printf("=== MPE psum slots (rabbit/turtle tolerance, §IV-C) ===\n");
  Table p({"psum slots", "cycles"});
  for (std::uint32_t slots : {2u, 4u, 8u, 16u, 32u, 64u}) {
    EngineConfig cfg = EngineConfig::paper_default(false);
    cfg.array.psum_slots_per_mpe = slots;
    p.add_row({Table::cell(std::uint64_t{slots}), Table::cell(run_inference(data, cfg))});
  }
  std::printf("%s\n", p.render().c_str());

  std::printf("=== input buffer size (cache capacity, §VI) ===\n");
  Table b({"input buffer KB", "cycles"});
  for (std::uint32_t kb : {32u, 64u, 128u, 256u, 512u}) {
    EngineConfig cfg = EngineConfig::paper_default(false);
    cfg.buffers.input = kb << 10;
    b.add_row({Table::cell(std::uint64_t{kb}), Table::cell(run_inference(data, cfg))});
  }
  std::printf("%s\n", b.render().c_str());
  return 0;
}
