#include "src/common/thread_pool.h"

#include <utility>

namespace aceso {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++pending_;
  }
  work_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

int64_t ThreadPool::executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_ready_.wait(lock,
                     [this] { return shutting_down_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // shutting down with nothing left to run
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    task = nullptr;  // release captures before the task counts as finished
    lock.lock();
    if (error != nullptr && first_error_ == nullptr) {
      first_error_ = std::move(error);
    }
    ++executed_;
    if (--pending_ == 0) {
      idle_.notify_all();
    }
  }
}

}  // namespace aceso
