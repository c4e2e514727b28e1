// Tests for the bench flag parsers (bench/bench_util.hpp): the number a flag
// carries must parse in full, and a bench rejects the flags it does not read.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace gnnie::bench {
namespace {

BenchOptions parse(std::vector<std::string> args,
                   BenchFlags accepted = BenchFlags::kSeedScaleDatasets) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_options(static_cast<int>(argv.size()), argv.data(), accepted);
}

TEST(BenchUtil, ParseOptionsRejectsMalformedNumbers) {
  EXPECT_THROW(parse({"--seed=abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seed=-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--scale=0.05x"}), std::invalid_argument);
  const BenchOptions opt = parse({"--scale=0.03", "--seed=9001", "--datasets=CR,CS"});
  EXPECT_EQ(opt.large_scale, 0.03);
  EXPECT_EQ(opt.seed, 9001u);
  EXPECT_EQ(opt.datasets, (std::vector<std::string>{"CR", "CS"}));
}

TEST(BenchUtil, CountsAndScalesParseInFull) {
  EXPECT_EQ(parse_count("--requests=24"), 24u);
  EXPECT_EQ(parse_count("--seed=18446744073709551615"), 18446744073709551615u);
  for (const char* bad : {"--requests=24x", "--requests=", "--requests=+5", "--requests= 5",
                          "--requests=0x10", "--seed=18446744073709551616"}) {
    EXPECT_THROW(parse_count(bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(parse_scale("--scale=1"), 1.0);
  EXPECT_EQ(parse_scale("--scale=5e-2"), 0.05);
  for (const char* bad : {"--scale=0", "--scale=-0.5", "--scale=1.5", "--scale=inf",
                          "--scale=nan", "--scale=", "--scale=0.1,"}) {
    EXPECT_THROW(parse_scale(bad), std::invalid_argument) << bad;
  }
}

// A bench that never sweeps datasets must not silently run a --scale or
// --datasets it would ignore.
TEST(BenchUtil, ParseOptionsRejectsFlagsTheBenchDoesNotRead) {
  EXPECT_EQ(parse({"--seed=7"}, BenchFlags::kSeed).seed, 7u);
  EXPECT_THROW(parse({"--scale=0.5"}, BenchFlags::kSeed), std::invalid_argument);
  EXPECT_THROW(parse({"--datasets=CR"}, BenchFlags::kSeed), std::invalid_argument);
  EXPECT_THROW(parse({"--json=out.json"}), std::invalid_argument);
}

}  // namespace
}  // namespace gnnie::bench
