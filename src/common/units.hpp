// Shared quantity aliases and formatting helpers.
//
// Cycle/byte/energy quantities flow through every report in the library;
// keeping them as named aliases (rather than bare integers) documents intent
// at interfaces without imposing wrapper-type friction on arithmetic-heavy
// simulator code.
#pragma once

#include <cstdint>
#include <string>

namespace gnnie {

using Cycles = std::uint64_t;
using Bytes = std::uint64_t;
using Ops = std::uint64_t;      ///< arithmetic operations (1 MAC = 2 ops)
using Joules = double;
using Seconds = double;

/// "1.23e+04" style for speedup tables that span many decades.
std::string format_sci(double value, int precision = 2);

/// The accelerator clock (§VIII-A: 1.3 GHz). Every modeled cycle count,
/// compute and DRAM alike, is in it.
inline constexpr double kClockHz = 1.3e9;

/// Seconds from a cycle count at kClockHz.
inline Seconds cycles_to_seconds(Cycles c) { return static_cast<double>(c) / kClockHz; }

}  // namespace gnnie
