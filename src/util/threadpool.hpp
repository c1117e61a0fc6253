// threadpool.hpp — fixed-size worker pool for embarrassingly parallel sweeps.
//
// The figure benches evaluate many independent (mix, mapping) simulations;
// ThreadPool::parallel_for distributes them across hardware threads. On a
// single-core host this degrades gracefully to serial execution.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace symbiosis::util {

/// Fixed worker pool; tasks are std::function<void()>. Destruction joins all
/// workers after draining the queue.
class ThreadPool {
 public:
  /// @param threads 0 means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future resolves when it completes (or rethrows).
  /// Submitting to a pool whose destructor has begun is a hard error: the
  /// workers may already have drained and exited, so the task could silently
  /// never run and its future never resolve.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    {
      const MutexLock lock(mutex_);
      SYM_CHECK(!stopping_, "util.threadpool") << "submit() on a stopping ThreadPool";
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [begin, end) across the pool, one task per index
  /// queued in ascending order, and wait for all. Exceptions from tasks are
  /// rethrown (the first one encountered) once every task has finished.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;  // written only in the constructor
  Mutex mutex_;
  std::queue<std::function<void()>> queue_ SYM_GUARDED_BY(mutex_);
  // condition_variable_any, not condition_variable: waits take the annotated
  // MutexLock, which std::condition_variable's unique_lock<std::mutex>-only
  // interface cannot.
  std::condition_variable_any cv_;
  bool stopping_ SYM_GUARDED_BY(mutex_) = false;
};

}  // namespace symbiosis::util
