// Micro-batching queue in front of an InferenceSession.
//
// Concurrent callers (libei serves each REST request on its own connection
// thread) submit row batches; a dedicated flush thread fuses everything
// queued into one forward pass via InferenceSession::predict_batch and
// completes each caller's future with its slice.  Coalescing policy:
//
//   - a flush fires as soon as >= max_batch_rows are queued,
//   - or when the oldest request has waited max_wait_s,
//   - or, with eager_when_idle (the service default), immediately when the
//     flush thread is idle — a lone request pays no batching latency, and
//     requests arriving while a flush is running pile up and ride the next
//     one (continuous batching).
//
// Fused results are bit-identical to per-request runs (see predict_batch),
// so coalescing is invisible to callers except in throughput.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "common/drain_gate.h"
#include "obs/trace.h"
#include "runtime/inference.h"

namespace openei::runtime {

class EnergyGovernor;

/// Shared counters for fleet monitoring (reported under /ei_status).  One
/// sink can serve many batchers; all fields are atomics because the flush
/// threads and the metrics reader race freely.
struct BatcherMetrics {
  std::atomic<std::uint64_t> requests{0};       // submitted row batches
  std::atomic<std::uint64_t> flushes{0};        // fused forward passes
  std::atomic<std::uint64_t> fused_requests{0}; // requests that shared a flush
  std::atomic<std::uint64_t> max_fused_rows{0}; // largest fused batch seen
};

class MicroBatcher {
 public:
  struct Options {
    /// Flush as soon as this many rows are queued.
    std::size_t max_batch_rows = 8;
    /// Flush when the oldest queued request has waited this long.
    double max_wait_s = 0.002;
    /// Flush immediately whenever the flush thread is idle (continuous
    /// batching).  Disable to force strict fill-or-timeout batching.
    bool eager_when_idle = true;
    /// Device energy account (may be null).  Each flush charges its fused
    /// simulated busy time once — prorated back into every rider's
    /// InferenceResult::ledger_energy_j — and the queue feeds the governor's
    /// pressure ladder: submit reports depth (boost under backlog), an empty
    /// queue after a flush reports drained (decay toward idle).
    std::shared_ptr<EnergyGovernor> governor;
  };

  /// Shares ownership of the session; `metrics` may be null.
  MicroBatcher(std::shared_ptr<InferenceSession> session, Options options,
               std::shared_ptr<BatcherMetrics> metrics = nullptr);

  /// Drains the queue (every submitted request completes), then stops.
  ~MicroBatcher();
  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues a row batch ([rows, ...sample_shape]); the future completes
  /// with this request's slice of a fused forward pass.  Shape errors are
  /// reported through the future.
  ///
  /// `span` (optional) is the caller's trace span for this request's ride
  /// through the queue: the flush thread stamps queue wait, fused batch
  /// shape, forward time, and peak tensor bytes on it, then finishes it
  /// when the flush completes.  An inert span (tracing off) costs a branch.
  std::future<InferenceResult> submit(nn::Tensor rows, obs::Span span = {});

  const Options& options() const { return options_; }

 private:
  struct Pending {
    nn::Tensor rows;
    std::promise<InferenceResult> promise;
    std::int64_t enqueued_ns;
    obs::Span span;
  };

  void flush_loop();
  /// Pops up to max_batch_rows worth of requests (at least one).
  std::deque<Pending> take_flushable(common::DrainGate::Lock& lock);
  void run_flush(std::deque<Pending> batch);
  /// Tells the governor the device may step back toward idle when nothing
  /// is queued behind the flush.  run_flush calls it before it completes
  /// any promise, so a serial caller never reads the ledger ahead of it.
  void report_if_drained();

  std::shared_ptr<InferenceSession> session_;
  Options options_;
  std::shared_ptr<BatcherMetrics> metrics_;

  /// The shared shutdown contract (common/drain_gate.h): its mutex guards
  /// pending_/pending_rows_; close() in the destructor wakes the flush
  /// thread, which drains every accepted request before exiting.
  common::DrainGate gate_;
  std::deque<Pending> pending_;
  std::size_t pending_rows_ = 0;
  std::thread flusher_;
};

}  // namespace openei::runtime
