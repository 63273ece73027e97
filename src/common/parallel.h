// Parallel compute substrate: a process-wide thread pool and the
// parallel_for primitive every hot kernel (GEMM, conv, batchnorm,
// activations) is written against.
//
// Determinism contract: a parallel_for body receives a contiguous
// [begin, end) sub-range and must write only outputs derived from those
// indices.  Because each output element is produced by exactly one body
// invocation with an unchanged inner accumulation order, results are
// bit-identical for every thread count, including the single-thread
// inline fallback.  Reductions use parallel_chunked_reduce, whose chunk
// boundaries are fixed (independent of the thread count) and whose
// partials are combined serially in chunk order — also bit-identical.
//
// Sizing: OPENEI_THREADS=<n> pins the worker count at first use (0 or
// unset = hardware concurrency); set_thread_count() overrides at runtime.
// With 1 thread there is no pool and every primitive degrades to the
// plain serial loop.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace openei::common {

/// Fixed-size worker pool executing queued tasks FIFO.  Usually accessed
/// through parallel_for rather than directly.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Enqueues a task; it runs on some worker in submission order.
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool stopping_ = false;
};

/// Current configured parallelism (>= 1): the number of concurrent lanes a
/// parallel_for may use, caller's thread included.
std::size_t thread_count();

/// Reconfigures the global pool: n lanes total (0 = OPENEI_THREADS or
/// hardware concurrency).  Waits for queued work to finish before the old
/// pool is torn down.  Thread-safe, but not against concurrent parallel_for
/// callers racing the swap mid-loop; reconfigure between workloads.
void set_thread_count(std::size_t n);

/// True while executing inside a pool worker (nested parallel_for calls
/// run inline rather than deadlocking on their own pool).
bool on_pool_thread();

/// Parses an OPENEI_THREADS-style value: digits = that many lanes, empty /
/// null / "0" / garbage = `fallback`.  Exposed for tests.
std::size_t parse_thread_env(const char* value, std::size_t fallback);

/// Runs body(begin, end) over [begin, end) split into at most thread_count()
/// contiguous chunks.  Ranges below `grain` elements, single-thread
/// configurations, and nested calls run inline on the caller.  The first
/// exception thrown by any chunk is rethrown on the caller after all chunks
/// finish.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain = 2048);

/// Fork thresholds.  A parallel_for that wakes the pool costs ~25 us at the
/// median and ~60 us at p90 on a 4-vCPU host (empty body, 4 chunks), so a
/// kernel should fork only above ~100 us of serial work.  Kernels state
/// that threshold in their own unit of work:
inline constexpr std::size_t kForkMacs = 1ULL << 22;  // SIMD multiply-adds
inline constexpr std::size_t kForkBytes = 1ULL << 20;  // bytes a pass writes
inline constexpr std::size_t kForkScalarOps = 1ULL << 17;  // per-element ops

/// The parallel_for grain that keeps a kernel inline until its work exceeds
/// `fork_work`, when one index costs `work_per_index` (same unit).
inline std::size_t grain_for(std::size_t fork_work,
                             std::size_t work_per_index) {
  return std::max<std::size_t>(
      1, fork_work / std::max<std::size_t>(1, work_per_index));
}

/// Deterministic parallel reduction: splits [0, n) into fixed chunks of
/// `chunk` elements (boundaries independent of thread count), computes
/// partial(chunk_index, begin, end) concurrently, then folds
/// combine(chunk_index) serially in ascending chunk order.
void parallel_chunked_reduce(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& partial,
    const std::function<void(std::size_t)>& combine);

}  // namespace openei::common
