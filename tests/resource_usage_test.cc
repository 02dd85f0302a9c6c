#include "src/cost/resource_usage.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace aceso {
namespace {

constexpr int64_t kGiB = 1LL << 30;

PerfResult Make(bool oom, double iteration_time, int64_t peak_memory,
                int64_t memory_limit) {
  PerfResult r;
  r.oom = oom;
  r.iteration_time = iteration_time;
  r.memory_limit = memory_limit;
  StageUsage stage;
  stage.memory_bytes = peak_memory;
  r.stages.push_back(stage);
  return r;
}

TEST(PerfResultTest, FeasibleBeatsInfeasible) {
  const PerfResult feasible = Make(false, 99.0, 10 * kGiB, 16 * kGiB);
  const PerfResult infeasible = Make(true, 1.0, 17 * kGiB, 16 * kGiB);
  EXPECT_TRUE(feasible.BetterThan(infeasible));
  EXPECT_FALSE(infeasible.BetterThan(feasible));
}

TEST(PerfResultTest, BothInfeasibleCompareByOverageNotRawMemory) {
  // ISSUE-8 regression: a result judged under a tight budget can have a
  // *smaller* raw peak than one judged at device capacity while being far
  // more over its own limit. Overage, not MaxMemory, is the verdict.
  const PerfResult barely_over = Make(true, 5.0, 33 * kGiB, 32 * kGiB);
  const PerfResult hugely_over = Make(true, 5.0, 20 * kGiB, 8 * kGiB);
  EXPECT_LT(barely_over.MemoryOverage(), hugely_over.MemoryOverage());
  EXPECT_TRUE(barely_over.BetterThan(hugely_over));
  EXPECT_FALSE(hugely_over.BetterThan(barely_over));
}

TEST(PerfResultTest, EqualOverageIsAnEquivalenceClassNotATie) {
  // Equal over-memory: neither is strictly better, regardless of time —
  // inventing a tie-break here would reorder golden search trajectories.
  const PerfResult a = Make(true, 1.0, 20 * kGiB, 16 * kGiB);
  const PerfResult b = Make(true, 9.0, 36 * kGiB, 32 * kGiB);
  EXPECT_EQ(a.MemoryOverage(), b.MemoryOverage());
  EXPECT_FALSE(a.BetterThan(b));
  EXPECT_FALSE(b.BetterThan(a));
}

TEST(PerfResultTest, NanTimeIsWorstNeverIncomparable) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const PerfResult fine = Make(false, 2.0, 8 * kGiB, 16 * kGiB);
  const PerfResult nan_result = Make(false, nan, 8 * kGiB, 16 * kGiB);
  const PerfResult inf_result = Make(false, inf, 8 * kGiB, 16 * kGiB);

  EXPECT_TRUE(fine.BetterThan(nan_result));
  EXPECT_FALSE(nan_result.BetterThan(fine));
  // NaN maps to +inf: equivalent to an actual +inf estimate, not below it.
  EXPECT_FALSE(nan_result.BetterThan(inf_result));
  EXPECT_FALSE(inf_result.BetterThan(nan_result));
  // Two NaNs are equivalent, not mutually "better".
  EXPECT_FALSE(nan_result.BetterThan(nan_result));
}

// Exhaustive strict-weak-ordering check over a deliberately nasty set:
// NaN and +inf estimates, equal times, equal overages reached under
// different limits, and mixed feasible/infeasible verdicts. The multimap in
// src/core/search.cc and std::sort both require exactly these axioms.
TEST(PerfResultTest, BetterThanIsAStrictWeakOrdering) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<PerfResult> all = {
      Make(false, 1.0, 8 * kGiB, 16 * kGiB),
      Make(false, 1.0, 12 * kGiB, 32 * kGiB),  // equal time, distinct memory
      Make(false, 3.5, 8 * kGiB, 16 * kGiB),
      Make(false, nan, 8 * kGiB, 16 * kGiB),
      Make(false, inf, 8 * kGiB, 16 * kGiB),
      Make(true, 0.5, 17 * kGiB, 16 * kGiB),   // over by 1 GiB
      Make(true, 9.0, 33 * kGiB, 32 * kGiB),   // over by 1 GiB, other limit
      Make(true, 2.0, 20 * kGiB, 8 * kGiB),    // over by 12 GiB
      Make(true, nan, 18 * kGiB, 16 * kGiB),   // over by 2 GiB, NaN time
  };
  auto better = [](const PerfResult& a, const PerfResult& b) {
    return a.BetterThan(b);
  };
  auto equivalent = [&](const PerfResult& a, const PerfResult& b) {
    return !better(a, b) && !better(b, a);
  };
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_FALSE(better(all[i], all[i])) << "irreflexivity at " << i;
    for (size_t j = 0; j < all.size(); ++j) {
      if (better(all[i], all[j])) {
        EXPECT_FALSE(better(all[j], all[i]))
            << "asymmetry violated at " << i << "," << j;
      }
      for (size_t k = 0; k < all.size(); ++k) {
        if (better(all[i], all[j]) && better(all[j], all[k])) {
          EXPECT_TRUE(better(all[i], all[k]))
              << "transitivity violated at " << i << "," << j << "," << k;
        }
        if (equivalent(all[i], all[j]) && equivalent(all[j], all[k])) {
          EXPECT_TRUE(equivalent(all[i], all[k]))
              << "equivalence transitivity violated at " << i << "," << j
              << "," << k;
        }
      }
    }
  }
}

TEST(PerfResultTest, ApplyMemoryLimitRejudgesFeasibility) {
  PerfResult r = Make(false, 2.0, 12 * kGiB, 32 * kGiB);

  // The limit is resolved by the caller (EffectiveMemoryLimit): device
  // capacity, what an unbudgeted search resolves to, keeps the model's
  // verdict.
  r.ApplyMemoryLimit(32 * kGiB);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.memory_limit, 32 * kGiB);
  EXPECT_EQ(r.MemoryOverage(), -20 * kGiB);

  // A budget below the peak flips the verdict and re-anchors the overage.
  r.ApplyMemoryLimit(8 * kGiB);
  EXPECT_TRUE(r.oom);
  EXPECT_EQ(r.memory_limit, 8 * kGiB);
  EXPECT_EQ(r.MemoryOverage(), 4 * kGiB);
  EXPECT_DOUBLE_EQ(r.iteration_time, 2.0);  // timing is not the budget's job

  // Raising the budget back above the peak restores feasibility.
  r.ApplyMemoryLimit(16 * kGiB);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.MemoryOverage(), -4 * kGiB);
}

}  // namespace
}  // namespace aceso
