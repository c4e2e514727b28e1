// Shared helpers for the bench binaries: one flag parser (--seed, --scale,
// --datasets, --requests, --reps, --json) over the checked number parsers
// every flag goes through, the JSON writer, paper-vs-measured reporting,
// and a work-stealing parallel_for for replaying independent sweep cells.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/serving.hpp"
#include "datasets/spec.hpp"
#include "datasets/synthetic.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"

namespace gnnie::bench {

struct BenchOptions {
  /// --scale=<f>. The dataset-sweeping figure and table benches apply it to
  /// the large datasets only (scale_for: the citation graphs CR, CS and PB
  /// always run full-size — they are laptop-friendly and most paper figures
  /// use exactly those three); the serve benches apply it to every graph
  /// they build.
  double scale = 0.05;
  std::uint64_t seed = 1;
  /// Short names to run (empty = the bench's default set).
  std::vector<std::string> datasets;
  std::size_t requests = 400;  ///< --requests=<n>: trace length of a serve bench
  std::size_t reps = 3;        ///< --reps=<n>: timed repetitions per scenario
  std::string json_path;       ///< --json=PATH; empty = JSON to stdout

  /// Effective scale for one dataset (1.0 for CR/CS/PB).
  double scale_for(const DatasetSpec& spec) const;
};

/// The flags a bench reads, or-ed together: every bench takes --seed, the
/// figure and table benches that sweep datasets also take --scale and
/// --datasets, and the serve benches take --requests, --scale and --json
/// (bench_serve_throughput adds --reps).
enum BenchFlags : unsigned {
  kSeed = 1u << 0,
  kScale = 1u << 1,
  kDatasets = 1u << 2,
  kRequests = 1u << 3,
  kReps = 1u << 4,
  kJson = 1u << 5,
  kSeedScaleDatasets = kSeed | kScale | kDatasets,
  kServe = kSeed | kScale | kRequests | kJson,
};

/// Parses the flags in `accepted` over `defaults`. A flag outside
/// `accepted`, an unknown flag, a malformed value or a zero --requests or
/// --reps throws std::invalid_argument, so no bench runs a flag it ignores.
BenchOptions parse_options(int argc, char** argv, unsigned accepted = kSeedScaleDatasets,
                           BenchOptions defaults = {});

/// The checked number parsers behind every bench flag. `arg` is a whole
/// "--name=value" argument; std::from_chars must consume all of the value,
/// or std::invalid_argument names the argument. A count or seed is an
/// unsigned decimal, so "abc", "-1" and "24x" throw.
std::uint64_t parse_count(const std::string& arg);
/// A dataset scale: a finite number in (0, 1].
double parse_scale(const std::string& arg);

/// "dataset (scale 0.05)" annotation used in bench headers.
std::string scale_note(const DatasetSpec& spec, double scale);

/// Prints the standard bench banner: figure/table id + claim being checked.
void print_banner(const std::string& experiment, const std::string& claim);

/// Writes a bench's JSON text to `path` (then prints "wrote <path>"), or to
/// stdout when `path` is empty, followed by a newline. Returns false, after
/// saying why on stderr, when the text is not one object whose brackets
/// balance (json_braces_balanced) or the file cannot be written.
bool write_json(const std::string& json, const std::string& path);

/// Structural sanity check for emitted JSON (shared by JSON-emitting
/// benches and the report-IO tests): every {/[ is closed by its own kind
/// of bracket, brackets inside strings do not count, and every string is
/// terminated and free of raw control characters (a backslash escapes the
/// next character). Not a parser: values, commas and colons go unchecked.
bool json_braces_balanced(const std::string& s);

/// A dataset + model + weights bundle ready to run on any engine/baseline.
struct Workload {
  Dataset data;
  ModelConfig model;
  GnnWeights weights;
  std::vector<Csr> sampled;  ///< per-layer sampled adjacency (GraphSAGE)
};

/// Builds the Table III configuration (hidden 128, 2 layers, sample 25) for
/// a dataset at `scale`.
Workload make_workload(const DatasetSpec& spec, double scale, GnnKind kind,
                       std::uint64_t seed);

/// Runs GNNIE (compile, plan, run) under `policy` — null = degree-aware —
/// and returns the report (output discarded).
InferenceReport run_gnnie(const Workload& w, const EngineConfig& cfg,
                          std::shared_ptr<const CachePolicy> policy = nullptr);

/// Runs fn(i) for every i in [0, count) across hardware threads (atomic
/// work-stealing; falls back to the calling thread when count is small or
/// concurrency is unavailable). The serving sweeps use this to replay
/// independent (trace, load) cells in parallel: every cell is a pure
/// function of its inputs — Cluster::simulate is const and thread-safe —
/// so results are identical to the sequential loop, just computed sooner.
///
/// If fn throws, the first captured exception is rethrown on the calling
/// thread after every worker has drained (no index runs twice, workers stop
/// claiming new indices once an exception is recorded, and all threads are
/// joined before the rethrow). Which of several concurrent exceptions is
/// "first" is unspecified; callers that need determinism should not throw.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

/// As above with an explicit worker count (0 = auto-detect, 1 = run inline
/// on the calling thread). The concurrency tests use this to force real
/// thread interleavings regardless of the host's core count; `workers` is
/// clamped to `count`.
void parallel_for(std::size_t count, std::size_t workers,
                  const std::function<void(std::size_t)>& fn);

}  // namespace gnnie::bench
