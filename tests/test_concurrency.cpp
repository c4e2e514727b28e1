// Concurrency stress tests for the simulator's thread-safety claims (run
// under the TSan CI leg as well as ASan/Release):
//   - Cluster::simulate is const and thread-safe: N threads hammering one
//     shared Cluster must each produce the bit-identical report the serial
//     loop produces.
//   - ServiceCostCache fills are mutex-guarded and shared across cluster
//     copies: concurrent cold-start fills from many copies end with each
//     distinct (config, plan, features) triple costed exactly once.
//   - bench::parallel_for is exactly-once under contention and propagates
//     exceptions after joining every worker.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "serve/cluster.hpp"
#include "serve_test_util.hpp"

namespace gnnie {
namespace {

using serve::Cluster;
using serve::RequestTrace;
using serve::Scheduler;
using serve::SchedulerKind;
using test::ServeFixture;

/// FNV-style fold of every field the equivalence suite pins — two reports
/// with equal checksums here are the same schedule.
std::uint64_t fold_records(const ServingReport& report) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const RequestRecord& r : report.requests) {
    mix(r.stream);
    mix(r.die);
    mix(r.arrival);
    mix(r.start);
    mix(r.finish);
    mix(r.group_size);
    mix(r.shed ? 1 : 0);
  }
  return h;
}

/// The sweep-cell grid the stress tests replay: 4 schedulers × 2 traces.
struct CellGrid {
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  std::vector<RequestTrace> traces;

  explicit CellGrid(ServeFixture& f) {
    for (SchedulerKind kind :
         {SchedulerKind::kFifo, SchedulerKind::kShortestQueue,
          SchedulerKind::kGraphAffinity, SchedulerKind::kSloAware}) {
      schedulers.push_back(Scheduler::make(kind));
    }
    traces.push_back(
        RequestTrace::poisson({f.stream_a(), f.stream_b()}, 300, 2000.0, /*seed=*/11));
    traces.push_back(RequestTrace::bursty({f.stream_a(), f.stream_b()}, 300, 8000.0,
                                          400.0, 20.0, 20.0, /*seed=*/12));
  }

  std::size_t size() const { return schedulers.size() * traces.size(); }
  std::uint64_t run_cell(const Cluster& cluster, std::size_t cell) const {
    const Scheduler& s = *schedulers[cell % schedulers.size()];
    const RequestTrace& t = traces[cell / schedulers.size()];
    return fold_records(cluster.simulate(t, {.custom_scheduler = &s}));
  }
};

TEST(Concurrency, SharedClusterSimulateMatchesSerialAcrossThreads) {
  ServeFixture f;
  CellGrid grid(f);
  const Cluster cluster(f.compiled, 4);

  std::vector<std::uint64_t> serial(grid.size());
  for (std::size_t c = 0; c < grid.size(); ++c) serial[c] = grid.run_cell(cluster, c);
  EXPECT_EQ(cluster.costed_triples(), 2u);  // one entry per stream

  // One thread per cell, all hammering the same const Cluster. Under TSan
  // this is the race check for the simulate() path; everywhere it pins
  // that parallel replay is bit-identical to the serial loop.
  std::vector<std::uint64_t> parallel(grid.size(), 0);
  std::vector<std::thread> threads;
  threads.reserve(grid.size());
  for (std::size_t c = 0; c < grid.size(); ++c) {
    threads.emplace_back(
        [&, c] { parallel[c] = grid.run_cell(cluster, c); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(cluster.costed_triples(), 2u);  // replays re-costed nothing
}

TEST(Concurrency, ParallelForReplayMatchesSerialOnSharedCluster) {
  // The exact usage the sweep benches rely on: parallel_for over independent
  // cells of one cluster, forced to real threads regardless of core count.
  ServeFixture f;
  CellGrid grid(f);
  const Cluster cluster(f.compiled, 2);

  std::vector<std::uint64_t> serial(grid.size());
  for (std::size_t c = 0; c < grid.size(); ++c) serial[c] = grid.run_cell(cluster, c);

  std::vector<std::uint64_t> parallel(grid.size(), 0);
  bench::parallel_for(grid.size(), /*workers=*/4, [&](std::size_t c) {
    parallel[c] = grid.run_cell(cluster, c);
  });
  EXPECT_EQ(parallel, serial);
}

TEST(Concurrency, ConcurrentColdStartFillsShareOneCacheAcrossCopies) {
  ServeFixture f;
  const Cluster base(f.compiled, 2);
  // Copies share the cluster-lifetime ServiceCostCache via shared_ptr, so
  // concurrent first-touch fills from different copies race on the same
  // table — the mutex-guarded-fill claim under test.
  std::vector<Cluster> copies(6, base);
  const RequestTrace trace =
      RequestTrace::poisson({f.stream_a(), f.stream_b()}, 200, 1500.0, /*seed=*/21);

  std::vector<std::uint64_t> checksums(copies.size(), 0);
  std::vector<std::thread> threads;
  threads.reserve(copies.size());
  for (std::size_t i = 0; i < copies.size(); ++i) {
    threads.emplace_back([&, i] {
      checksums[i] = fold_records(copies[i].simulate(
          trace, {.scheduler = SchedulerKind::kShortestQueue}));
    });
  }
  for (std::thread& t : threads) t.join();

  // Every copy produced the identical schedule, and the shared cache holds
  // exactly one entry per distinct triple — 6 racing cold starts did not
  // duplicate or corrupt the fills.
  for (std::size_t i = 1; i < checksums.size(); ++i) {
    EXPECT_EQ(checksums[i], checksums[0]);
  }
  EXPECT_EQ(base.costed_triples(), 2u);
  EXPECT_EQ(fold_records(base.simulate(
      trace, {.scheduler = SchedulerKind::kShortestQueue})), checksums[0]);
}

TEST(Concurrency, ParallelForRunsEveryIndexExactlyOnceUnderContention) {
  constexpr std::size_t kCount = 2000;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  bench::parallel_for(kCount, /*workers=*/8, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Concurrency, ParallelForPropagatesExceptionAfterJoiningWorkers) {
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  EXPECT_THROW(
      bench::parallel_for(kCount, /*workers=*/8,
                          [&](std::size_t i) {
                            hits[i].fetch_add(1, std::memory_order_relaxed);
                            if (i == 37) throw std::runtime_error("cell failed");
                          }),
      std::runtime_error);
  // No index ran twice, and the throwing index did run. (Indices after the
  // failure may legitimately be skipped — workers stop claiming work.)
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_LE(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(hits[37].load(), 1);
}

}  // namespace
}  // namespace gnnie
