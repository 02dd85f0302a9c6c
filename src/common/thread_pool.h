// Fixed-size worker pool with one FIFO queue. It runs the search's
// stage-count waves (§4.3: "Parallel search of configuration under
// different pipeline stage numbers") and the planning service's search jobs.
//
// No task ever waits on the pool it runs on: AcesoSearch waits for its
// waves from the calling thread, and the service only submits and drains.
// That is what keeps this pool plain — one mutex, one queue, two condition
// variables. Calling Wait() from inside one of the pool's own tasks would
// deadlock (the task counts as unfinished); don't.
//
// Exceptions thrown by a task are captured and rethrown from the next
// Wait(); only the first is kept, the rest are dropped.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aceso {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  // Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task for asynchronous execution. Callable from any thread.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished, then rethrows the first
  // exception a task threw since the previous Wait().
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  // Tasks run to completion so far (monotonic).
  int64_t executed() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_ready_;  // queue non-empty or shutting down
  std::condition_variable idle_;        // pending_ dropped to zero
  std::deque<std::function<void()>> queue_;
  int64_t pending_ = 0;  // submitted but not yet finished
  int64_t executed_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

}  // namespace aceso

#endif  // SRC_COMMON_THREAD_POOL_H_
