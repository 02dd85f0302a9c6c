#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

namespace aceso {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
}

TEST(ThreadPoolTest, WaitCanBeReused) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(count.load(), 50);
}

// A task's exception surfaces from Wait(), which consumes it.
TEST(ThreadPoolTest, PoolWaitRethrowsUngroupedTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("loose"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // consumed
}

// A throwing task does not stop the others: Wait() returns only after every
// task ran, then surfaces the first exception once.
TEST(ThreadPoolTest, WaitRethrowsAfterEveryTaskRan) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&ran, i] {
      ran.fetch_add(1);
      if (i == 3) {
        throw std::runtime_error("boom");
      }
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 10);
  pool.Wait();  // error consumed; a second wait is clean
}

// The destructor runs what is still queued before joining, so a pool can be
// dropped without a final Wait().
TEST(ThreadPoolTest, DestructorRunsQueuedTasksWithoutWait) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, ExecutedCountsEveryTask) {
  ThreadPool pool(4);
  const int64_t before = pool.executed();
  for (int i = 0; i < 200; ++i) {
    pool.Submit([] {});
  }
  pool.Wait();
  EXPECT_EQ(pool.executed() - before, 200);
}

}  // namespace
}  // namespace aceso
