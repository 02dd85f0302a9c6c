// Striped lookup counters (DESIGN.md §12): each thread bumps its own cache
// line, and stats() sums the stripes. These tests hammer the stage-cost
// cache, the op memo, the profile database and Evaluate() from eight
// threads at once and require exact totals; the TSan CI lane runs them too.
// The last test holds the config header's promise the same way: hashing
// and evaluating one shared config from many threads, with its word and
// run caches cold, gives the one-thread answer.

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

// Every field Evaluate() derives from the stage costs, compared bit for bit.
bool SamePerf(const PerfResult& a, const PerfResult& b) {
  if (a.iteration_time != b.iteration_time || a.oom != b.oom ||
      a.slowest_stage != b.slowest_stage ||
      a.max_memory_stage != b.max_memory_stage ||
      a.stages.size() != b.stages.size()) {
    return false;
  }
  for (size_t s = 0; s < a.stages.size(); ++s) {
    const StageUsage& x = a.stages[s];
    const StageUsage& y = b.stages[s];
    if (x.fwd_time != y.fwd_time || x.bwd_time != y.bwd_time ||
        x.comp_time != y.comp_time || x.comm_time != y.comm_time ||
        x.recompute_time != y.recompute_time ||
        x.dp_sync_time != y.dp_sync_time || x.stage_time != y.stage_time ||
        x.memory_bytes != y.memory_bytes ||
        x.activation_bytes_per_mb != y.activation_bytes_per_mb ||
        x.reserved_bytes != y.reserved_bytes) {
      return false;
    }
  }
  return true;
}

TEST(ConcurrentHashTest, ColdSharedConfigsHashAndEvaluateAlike) {
  const OpGraph graph = models::DeepTransformer(64);
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  // Periodic stages (run cache filled), and one with recompute on every
  // third op of stage 1, which breaks the layer period.
  std::vector<ParallelConfig> sources;
  for (const int stages : {2, 4}) {
    auto config = MakeEvenConfig(graph, cluster, stages, 1);
    ASSERT_TRUE(config.ok());
    sources.push_back(*config);
  }
  ParallelConfig broken = sources.back();
  StageConfig& stage = broken.MutableStage(1);
  for (int i = 0; i < stage.num_ops; i += 3) {
    stage.ops[static_cast<size_t>(i)].recompute = true;
  }
  sources.push_back(broken);

  struct Reference {
    uint64_t hash = 0;
    std::vector<uint64_t> stage_hashes;
    PerfResult perf;
  };
  std::vector<Reference> refs;
  {
    ProfileDatabase db(cluster);
    PerformanceModel model(&graph, cluster, &db);
    for (const ParallelConfig& source : sources) {
      Reference ref;
      ref.hash = source.SemanticHashUncached(graph);
      for (int s = 0; s < source.num_stages(); ++s) {
        ref.stage_hashes.push_back(
            source.StageSemanticHashUncached(graph, cluster, s));
      }
      ref.perf = model.Evaluate(source.DeepCopy());
      refs.push_back(std::move(ref));
    }
  }

  constexpr int kColdRounds = 16;
  for (int round = 0; round < kColdRounds; ++round) {
    // Fresh configs (cold word and run caches) and a fresh model (cold
    // stage cache, op memo and profile database) every round.
    std::vector<ParallelConfig> shared;
    for (const ParallelConfig& source : sources) {
      shared.push_back(source.DeepCopy());
    }
    ProfileDatabase db(cluster);
    PerformanceModel model(&graph, cluster, &db);
    std::vector<std::vector<Reference>> got(kThreads);
    Hammer([&](int t) {
      std::vector<Reference>& mine = got[static_cast<size_t>(t)];
      mine.resize(shared.size());
      // Threads start on different configs and alternate the call order,
      // so each cache is filled first by whichever call gets there first.
      for (size_t k = 0; k < shared.size(); ++k) {
        const size_t c = (k + static_cast<size_t>(t)) % shared.size();
        const ParallelConfig& config = shared[c];
        Reference& r = mine[c];
        if (t % 2 == 0) {
          r.hash = config.SemanticHash(graph);
        }
        for (int s = 0; s < config.num_stages(); ++s) {
          r.stage_hashes.push_back(
              config.StageSemanticHash(graph, cluster, s));
        }
        r.perf = model.Evaluate(config);
        if (t % 2 == 1) {
          r.hash = config.SemanticHash(graph);
        }
      }
    });
    for (int t = 0; t < kThreads; ++t) {
      for (size_t c = 0; c < sources.size(); ++c) {
        const Reference& r = got[static_cast<size_t>(t)][c];
        EXPECT_EQ(r.hash, refs[c].hash) << "round " << round << " thread "
                                        << t << " config " << c;
        EXPECT_EQ(r.stage_hashes, refs[c].stage_hashes)
            << "round " << round << " thread " << t << " config " << c;
        EXPECT_TRUE(SamePerf(r.perf, refs[c].perf))
            << "round " << round << " thread " << t << " config " << c;
      }
    }
  }
}

}  // namespace
}  // namespace aceso
