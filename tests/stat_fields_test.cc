#include "src/common/stat_fields.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "src/core/frontier.h"
#include "src/core/search.h"
#include "src/cost/op_memo.h"
#include "src/cost/stage_cache.h"
#include "src/profile/profile_db.h"
#include "src/serve/http.h"
#include "src/serve/plan_cache.h"
#include "src/serve/service.h"

namespace aceso {
namespace {

// A snapshot whose i-th table counter holds base + i.
template <class T>
T Filled(int64_t base) {
  T stats;
  int64_t value = base;
  for (const StatField<T>& field : T::kFields) {
    stats.*field.member = value++;
  }
  return stats;
}

template <class T>
class StatTableTest : public ::testing::Test {};
using AllStats =
    ::testing::Types<serve::HttpServerStats, serve::ServeStats,
                     serve::PlanCacheStats, ProfileDbStats, StageCacheStats,
                     OpMemoStats, FrontierStats, SearchStats>;
TYPED_TEST_SUITE(StatTableTest, AllStats);

TYPED_TEST(StatTableTest, NamesAndMembersAreUnique) {
  std::set<std::string> names;
  for (const StatField<TypeParam>& field : TypeParam::kFields) {
    EXPECT_TRUE(names.insert(field.name).second) << field.name;
  }
  for (size_t i = 0; i < kNumStatFields<TypeParam>; ++i) {
    for (size_t j = i + 1; j < kNumStatFields<TypeParam>; ++j) {
      EXPECT_NE(TypeParam::kFields[i].member, TypeParam::kFields[j].member)
          << TypeParam::kFields[i].name << " and "
          << TypeParam::kFields[j].name;
    }
  }
}

TYPED_TEST(StatTableTest, MergeAddsEveryCounter) {
  TypeParam into = Filled<TypeParam>(100);
  MergeStats(Filled<TypeParam>(1), &into);
  int64_t i = 0;
  for (const StatField<TypeParam>& field : TypeParam::kFields) {
    EXPECT_EQ(into.*field.member, (100 + i) + (1 + i)) << field.name;
    ++i;
  }
}

// The snapshot types with operator- (all but SearchStats).
template <class T>
class StatDeltaTest : public ::testing::Test {};
using DeltaStats =
    ::testing::Types<serve::HttpServerStats, serve::ServeStats,
                     serve::PlanCacheStats, ProfileDbStats, StageCacheStats,
                     OpMemoStats, FrontierStats>;
TYPED_TEST_SUITE(StatDeltaTest, DeltaStats);

TYPED_TEST(StatDeltaTest, DeltaSubtractsEveryCounter) {
  const TypeParam delta = Filled<TypeParam>(100) - Filled<TypeParam>(1);
  for (const StatField<TypeParam>& field : TypeParam::kFields) {
    EXPECT_EQ(delta.*field.member, 99) << field.name;
  }
}

TEST(StatDeltaGaugeTest, DeltaKeepsTheLeftGauge) {
  StageCacheStats cache_after = Filled<StageCacheStats>(10);
  StageCacheStats cache_before = Filled<StageCacheStats>(1);
  cache_after.entries = 7;
  cache_before.entries = 3;
  EXPECT_EQ((cache_after - cache_before).entries, 7);
  EXPECT_EQ((cache_after - cache_before).hits, 9);

  OpMemoStats memo_after = Filled<OpMemoStats>(10);
  OpMemoStats memo_before = Filled<OpMemoStats>(1);
  memo_after.entries = 5;
  memo_before.entries = 2;
  EXPECT_EQ((memo_after - memo_before).entries, 5);
  EXPECT_EQ((memo_after - memo_before).inserts_dropped, 9);
}

TEST(StatJsonTest, FieldsComeOutInTableOrder) {
  std::string out = "{";
  AppendStatsJson(out, Filled<ProfileDbStats>(1));
  out += '}';
  EXPECT_EQ(out, "{\"lookups\":1,\"misses\":2,\"lock_contended\":3}");
}

TEST(StatCountersTest, LiveCountersSnapshotIntoTheirFields) {
  AtomicStats<serve::HttpServerStats> atomic;
  atomic.Add<&serve::HttpServerStats::bytes_in>(40);
  atomic.Add<&serve::HttpServerStats::parse_errors>();
  atomic.Add<&serve::HttpServerStats::parse_errors>();
  const serve::HttpServerStats http = atomic.Snapshot();
  EXPECT_EQ(http.bytes_in, 40);
  EXPECT_EQ(http.parse_errors, 2);
  EXPECT_EQ(http.bytes_out, 0);

  StripedStats<OpMemoStats> striped;
  striped.Add<&OpMemoStats::misses>(3);
  striped.Add<&OpMemoStats::hits>();
  const OpMemoStats memo = striped.Snapshot();
  EXPECT_EQ(memo.hits, 1);
  EXPECT_EQ(memo.misses, 3);
  EXPECT_EQ(memo.inserts_dropped, 0);
  EXPECT_EQ(memo.entries, 0);
}

}  // namespace
}  // namespace aceso
