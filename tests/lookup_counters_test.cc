// Striped lookup counters (DESIGN.md §12): each thread bumps its own cache
// line, and stats() sums the stripes. These tests hammer the stage-cost
// cache, the op memo, the profile database and Evaluate() from eight
// threads at once and require exact totals; the TSan CI lane runs them too.

#include <gtest/gtest.h>

#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "src/aceso.h"
#include "src/common/hash.h"
#include "src/common/striped_counters.h"

namespace aceso {
namespace {

constexpr int kThreads = 8;
constexpr int kRounds = 2000;

// Runs `body(thread_index)` on kThreads threads released together.
template <typename Body>
void Hammer(Body body) {
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

TEST(StripedCountersTest, SumsAndResets) {
  StripedCounters<3> counters;
  counters.Add(0);
  counters.Add(1, 5);
  counters.Add(1, -2);
  EXPECT_EQ(counters.Sum(0), 1);
  EXPECT_EQ(counters.Sum(1), 3);
  EXPECT_EQ(counters.Sum(2), 0);
  counters.Reset(1);
  EXPECT_EQ(counters.Sum(1), 0);
  EXPECT_EQ(counters.Sum(0), 1);
}

TEST(StripedCountersTest, LiveThreadsOwnDistinctStripes) {
  std::vector<size_t> stripes(kThreads);
  std::latch claimed(kThreads);
  Hammer([&](int t) {
    stripes[static_cast<size_t>(t)] = ThisThreadCounterStripe();
    claimed.arrive_and_wait();  // no thread exits (and frees) before all claim
  });
  EXPECT_EQ(std::set<size_t>(stripes.begin(), stripes.end()).size(),
            static_cast<size_t>(kThreads));
}

TEST(StripedCountersTest, ConcurrentAddsAreExact) {
  StripedCounters<2> counters;
  Hammer([&](int t) {
    for (int r = 0; r < kRounds; ++r) {
      counters.Add(0);
      counters.Add(1, t);
    }
  });
  EXPECT_EQ(counters.Sum(0), int64_t{kThreads} * kRounds);
  EXPECT_EQ(counters.Sum(1), int64_t{kRounds} * (kThreads - 1) * kThreads / 2);
}

TEST(LookupCountersTest, StageCacheTotalsAreExact) {
  StageCostCache cache;
  constexpr uint64_t kResident = 64;
  for (uint64_t k = 0; k < kResident; ++k) {
    cache.Insert(Mix64(k + 1), std::make_shared<const StageCost>());
  }
  Hammer([&](int t) {
    for (int r = 0; r < kRounds; ++r) {
      (void)cache.Lookup(Mix64(static_cast<uint64_t>(r) % kResident + 1));
      // Never inserted: a miss.
      (void)cache.Lookup(Mix64((uint64_t{1} << 40) +
                               static_cast<uint64_t>(t * kRounds + r)));
    }
  });
  const StageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, int64_t{kThreads} * kRounds);
  EXPECT_EQ(stats.misses, int64_t{kThreads} * kRounds);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.entries, static_cast<int64_t>(kResident));
}

TEST(LookupCountersTest, OpMemoTotalsAreExact) {
  OpBreakdownMemo memo;
  constexpr uint64_t kResident = 64;
  for (uint64_t k = 0; k < kResident; ++k) {
    ASSERT_NE(memo.Insert(Mix64(k + 1), OpBreakdown{}), nullptr);
  }
  constexpr int kInserts = 100;
  Hammer([&](int t) {
    for (int r = 0; r < kRounds; ++r) {
      (void)memo.Lookup(Mix64(static_cast<uint64_t>(r) % kResident + 1));
      (void)memo.Lookup(Mix64((uint64_t{1} << 40) +
                              static_cast<uint64_t>(t * kRounds + r)));
    }
    for (int r = 0; r < kInserts; ++r) {
      (void)memo.Insert(Mix64((uint64_t{1} << 41) +
                              static_cast<uint64_t>(t * kInserts + r)),
                        OpBreakdown{});
    }
  });
  const OpMemoStats stats = memo.stats();
  EXPECT_EQ(stats.hits, int64_t{kThreads} * kRounds);
  EXPECT_EQ(stats.misses, int64_t{kThreads} * kRounds);
  EXPECT_EQ(stats.entries + stats.inserts_dropped,
            static_cast<int64_t>(kResident) + int64_t{kThreads} * kInserts);
}

TEST(LookupCountersTest, ProfileDatabaseTotalsAreExact) {
  const OpGraph graph = models::Gpt3(0.35);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster);
  constexpr int kOps = 16;
  const CommDomain domain{4, false};
  Hammer([&](int t) {
    for (int r = 0; r < kRounds; ++r) {
      const Operator& op = graph.op((t + r) % kOps);
      (void)db.OpTime(op, graph.precision(), 1 << (r % 3), 1 + r % 2);
      // A power-of-two size reads exactly one collective bucket.
      (void)db.CollectiveTime(CollectiveKind::kAllReduce,
                              int64_t{1} << (10 + r % 8), domain);
    }
  });
  const ProfileDbStats stats = db.stats();
  EXPECT_EQ(stats.lookups, int64_t{2} * kThreads * kRounds);
  // Every distinct key is measured at least once; racing fillers may
  // measure a key twice, but no lookup is counted as more than one miss.
  EXPECT_GE(stats.misses, static_cast<int64_t>(db.NumEntries()));
  EXPECT_LE(stats.misses, stats.lookups);
}

TEST(LookupCountersTest, EvaluationCountIsExact) {
  const OpGraph graph = models::Gpt3(0.35);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db(cluster);
  PerformanceModel model(&graph, cluster, &db);
  auto config = MakeEvenConfig(graph, cluster, 4, 2);
  ASSERT_TRUE(config.ok());
  constexpr int kEvaluations = 50;
  Hammer([&](int) {
    for (int r = 0; r < kEvaluations; ++r) {
      (void)model.Evaluate(*config);
    }
  });
  EXPECT_EQ(model.NumEvaluations(), int64_t{kThreads} * kEvaluations);
  const StageCacheStats cache = model.stage_cache().stats();
  EXPECT_EQ(cache.hits + cache.misses,
            int64_t{kThreads} * kEvaluations * config->num_stages());
  model.ResetEvaluationCount();
  EXPECT_EQ(model.NumEvaluations(), 0);
}

}  // namespace
}  // namespace aceso
