#include "arch/pe_array.hpp"

#include <numeric>

#include "common/require.hpp"

namespace gnnie {

std::uint32_t ArrayConfig::total_macs() const {
  std::uint32_t total = 0;
  for (std::uint32_t m : macs_per_row) total += m * cols;
  return total;
}

std::uint32_t ArrayConfig::macs_in_row(std::uint32_t row) const {
  GNNIE_REQUIRE(row < macs_per_row.size(), "row index out of range");
  return macs_per_row[row];
}

std::vector<std::vector<std::uint32_t>> ArrayConfig::row_groups() const {
  std::vector<std::vector<std::uint32_t>> groups;
  for (std::uint32_t r = 0; r < macs_per_row.size(); ++r) {
    if (groups.empty() || macs_per_row[r] != macs_per_row[groups.back().front()]) {
      groups.emplace_back();
    }
    groups.back().push_back(r);
  }
  return groups;
}

void ArrayConfig::validate() const {
  GNNIE_REQUIRE(macs_per_row.size() == rows, "macs_per_row must have one entry per row");
  for (std::uint32_t m : macs_per_row) GNNIE_REQUIRE(m > 0, "every CPE needs at least one MAC");
  for (std::size_t r = 1; r < macs_per_row.size(); ++r) {
    GNNIE_REQUIRE(macs_per_row[r - 1] <= macs_per_row[r],
                  "|MAC| per row must be nondecreasing (§IV-C)");
  }
  GNNIE_REQUIRE(psum_slots_per_mpe > 0, "MPE needs psum slots");
}

ArrayConfig ArrayConfig::uniform(std::uint32_t macs_per_cpe) {
  ArrayConfig c;
  c.macs_per_row.assign(c.rows, macs_per_cpe);
  c.validate();
  return c;
}

ArrayConfig ArrayConfig::design_a() { return uniform(4); }
ArrayConfig ArrayConfig::design_b() { return uniform(5); }
ArrayConfig ArrayConfig::design_c() { return uniform(6); }
ArrayConfig ArrayConfig::design_d() { return uniform(7); }

ArrayConfig ArrayConfig::design_e() {
  ArrayConfig c;
  c.macs_per_row.clear();
  // §VIII-A: rows 1–8 → 4 MACs, rows 9–12 → 5, rows 13–16 → 6.
  for (int i = 0; i < 8; ++i) c.macs_per_row.push_back(4);
  for (int i = 0; i < 4; ++i) c.macs_per_row.push_back(5);
  for (int i = 0; i < 4; ++i) c.macs_per_row.push_back(6);
  c.validate();
  GNNIE_ASSERT(c.total_macs() == 1216, "Design E must have 1216 MACs (§VIII-C)");
  return c;
}

std::string ArrayConfig::name() const {
  const auto uniform_macs = [&](std::uint32_t m) {
    for (std::uint32_t x : macs_per_row) {
      if (x != m) return false;
    }
    return true;
  };
  if (uniform_macs(4)) return "A";
  if (uniform_macs(5)) return "B";
  if (uniform_macs(6)) return "C";
  if (uniform_macs(7)) return "D";
  if (macs_per_row == design_e().macs_per_row) return "E";
  return "custom";
}

}  // namespace gnnie
