// Unit tests for ServiceCostCache (serve/cost_cache.hpp). The serving
// suites only ever exercise the cache through equivalence pins; these tests
// drive it directly: entry-reference stability as the cache grows, and the
// concurrent duplicate-key fill contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/cost_cache.hpp"

namespace gnnie::serve {
namespace {

using Key = ServiceCostCache::Key;

/// A key whose identity is just the config index (null pointers): enough to
/// make arbitrarily many distinct keys without building plans.
Key key_of(std::size_t config) { return Key{config, nullptr, nullptr}; }

/// A CostEntry carrying `tag` so a hit is distinguishable from a recompute.
CostEntry cost_with(Cycles tag) {
  CostEntry e;
  e.cost.total_cycles = tag;
  return e;
}

TEST(CostCache, EntryPointersStayStableAcrossGrowth) {
  ServiceCostCache cache;
  std::vector<const CostEntry*> early;
  for (std::size_t c = 0; c < 30; ++c) {
    early.push_back(
        &cache.get(key_of(c), [&] { return cost_with(static_cast<Cycles>(c)); }));
  }
  for (std::size_t c = 30; c < 400; ++c) {
    cache.get(key_of(c), [&] { return cost_with(static_cast<Cycles>(c)); });
  }
  ASSERT_EQ(cache.size(), 400u);
  // The entries never moved: the addresses handed out before the later
  // inserts still hold their values and are what lookups return today —
  // the guarantee simulate()'s per-run raw-pointer resolution leans on.
  for (std::size_t c = 0; c < early.size(); ++c) {
    EXPECT_EQ(early[c]->cost.total_cycles, static_cast<Cycles>(c));
    EXPECT_EQ(early[c], &cache.get(key_of(c), [&] { return cost_with(0); }));
  }
}

TEST(CostCache, ConcurrentDuplicateKeyFillComputesEachKeyOnce) {
  ServiceCostCache cache;
  constexpr std::size_t kKeys = 16;
  constexpr std::size_t kThreads = 8;
  std::vector<std::atomic<int>> computes(kKeys);
  for (auto& c : computes) c.store(0);
  std::vector<std::vector<const CostEntry*>> seen(
      kThreads, std::vector<const CostEntry*>(kKeys, nullptr));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the keys from a different starting point so every
      // key sees racing duplicate fills, not a single winner filling all.
      for (std::size_t i = 0; i < kKeys; ++i) {
        const std::size_t c = (t * 3 + i) % kKeys;
        seen[t][c] = &cache.get(key_of(c), [&] {
          computes[c].fetch_add(1, std::memory_order_relaxed);
          return cost_with(static_cast<Cycles>(c));
        });
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(cache.size(), kKeys);
  for (std::size_t c = 0; c < kKeys; ++c) {
    EXPECT_EQ(computes[c].load(), 1) << "key " << c << " computed more than once";
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][c], seen[0][c]) << "threads saw different entries for key " << c;
    }
    EXPECT_EQ(seen[0][c]->cost.total_cycles, static_cast<Cycles>(c));
  }
}

}  // namespace
}  // namespace gnnie::serve
