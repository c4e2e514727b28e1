// Tests for the bench flag parser and JSON writer (bench/bench_util.hpp): the
// number a flag carries must parse in full, a bench rejects the flags it does
// not read, and malformed JSON is never written.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace gnnie::bench {
namespace {

BenchOptions parse(std::vector<std::string> args, unsigned accepted = kSeedScaleDatasets,
                   BenchOptions defaults = {}) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_options(static_cast<int>(argv.size()), argv.data(), accepted, defaults);
}

TEST(BenchUtil, ParseOptionsRejectsMalformedNumbers) {
  EXPECT_THROW(parse({"--seed=abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seed=-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--scale=0.05x"}), std::invalid_argument);
  const BenchOptions opt = parse({"--scale=0.03", "--seed=9001", "--datasets=CR,CS"});
  EXPECT_EQ(opt.scale, 0.03);
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
  EXPECT_THROW(parse({"--requests=24"}), std::invalid_argument);
  EXPECT_THROW(parse({"--datasets=CR"}, kServe), std::invalid_argument);
  EXPECT_THROW(parse({"--reps=2"}, kServe), std::invalid_argument);
  EXPECT_THROW(parse({"--seed"}, kServe), std::invalid_argument);  // no '='
}

// The serve benches' flags and defaults: --requests 400 unless the bench
// passes its own default, --reps 3, --scale 0.05, JSON to stdout.
TEST(BenchUtil, ParseOptionsReadsServeFlags) {
  const BenchOptions none = parse({}, kServe);
  EXPECT_EQ(none.requests, 400u);
  EXPECT_EQ(none.reps, 3u);
  EXPECT_EQ(none.scale, 0.05);
  EXPECT_EQ(none.seed, 1u);
  EXPECT_TRUE(none.json_path.empty());

  const BenchOptions opt =
      parse({"--requests=24", "--scale=0.03", "--seed=5", "--json=out.json"}, kServe);
  EXPECT_EQ(opt.requests, 24u);
  EXPECT_EQ(opt.scale, 0.03);
  EXPECT_EQ(opt.seed, 5u);
  EXPECT_EQ(opt.json_path, "out.json");
  EXPECT_THROW(parse({"--requests=0"}, kServe), std::invalid_argument);

  BenchOptions million;
  million.requests = 1'000'000;
  EXPECT_EQ(parse({}, kServe | kReps, million).requests, 1'000'000u);
  EXPECT_EQ(parse({"--reps=5"}, kServe | kReps, million).reps, 5u);
  EXPECT_THROW(parse({"--reps=0"}, kServe | kReps), std::invalid_argument);
}

TEST(BenchUtil, WriteJsonChecksThenWritesTheFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnnie_bench_util_test.json").string();
  std::remove(path.c_str());
  EXPECT_FALSE(write_json("", path));
  EXPECT_FALSE(write_json("{\"a\":[1}", path));
  EXPECT_FALSE(write_json("[1]", path));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(write_json("{}", path + ".d/no_such_directory/x.json"));

  testing::internal::CaptureStdout();
  EXPECT_TRUE(write_json("{\"a\":[1,2]}", path));
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "wrote " + path + "\n");
  std::ifstream in(path);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, "{\"a\":[1,2]}\n");
  std::remove(path.c_str());

  testing::internal::CaptureStdout();
  EXPECT_TRUE(write_json("{}", ""));
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "{}\n");
}

}  // namespace
}  // namespace gnnie::bench
