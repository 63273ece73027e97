#include "runtime/batcher.h"

#include <chrono>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "runtime/energy_governor.h"

namespace openei::runtime {

MicroBatcher::MicroBatcher(std::shared_ptr<InferenceSession> session,
                           Options options,
                           std::shared_ptr<BatcherMetrics> metrics)
    : session_(std::move(session)),
      options_(options),
      metrics_(std::move(metrics)) {
  OPENEI_CHECK(session_ != nullptr, "micro-batcher needs a session");
  OPENEI_CHECK(options_.max_batch_rows > 0, "zero max_batch_rows");
  OPENEI_CHECK(options_.max_wait_s >= 0.0, "negative max_wait_s");
  flusher_ = std::thread([this] { flush_loop(); });
}

MicroBatcher::~MicroBatcher() {
  gate_.close();
  flusher_.join();
}

std::future<InferenceResult> MicroBatcher::submit(nn::Tensor rows,
                                                  obs::Span span) {
  Pending pending{std::move(rows), std::promise<InferenceResult>{},
                  common::wall_now_ns(), std::move(span)};
  std::future<InferenceResult> future = pending.promise.get_future();
  std::size_t row_count =
      pending.rows.shape().rank() >= 1 ? pending.rows.shape().dim(0) : 0;
  std::size_t queued_rows = 0;
  {
    common::DrainGate::Lock lock = gate_.acquire();
    OPENEI_CHECK(!gate_.closed(lock), "submit on a stopping micro-batcher");
    pending_.push_back(std::move(pending));
    pending_rows_ += row_count;
    queued_rows = pending_rows_;
  }
  if (options_.governor) options_.governor->on_queue_depth(queued_rows);
  if (metrics_) metrics_->requests.fetch_add(1, std::memory_order_relaxed);
  gate_.notify_all();
  return future;
}

std::deque<MicroBatcher::Pending> MicroBatcher::take_flushable(
    common::DrainGate::Lock&) {
  std::deque<Pending> batch;
  std::size_t rows = 0;
  // Always take the head request even if it alone exceeds max_batch_rows
  // (requests are never split); stop before overshooting with later ones.
  while (!pending_.empty()) {
    std::size_t next_rows = pending_.front().rows.shape().rank() >= 1
                                ? pending_.front().rows.shape().dim(0)
                                : 0;
    if (!batch.empty() && rows + next_rows > options_.max_batch_rows) break;
    rows += next_rows;
    pending_rows_ -= next_rows;
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
    if (rows >= options_.max_batch_rows) break;
  }
  return batch;
}

void MicroBatcher::flush_loop() {
  common::DrainGate::Lock lock = gate_.acquire();
  for (;;) {
    gate_.await(lock, [this] { return !pending_.empty(); });
    if (pending_.empty()) return;  // closed and drained

    if (!options_.eager_when_idle && !gate_.closed(lock)) {
      // Strict mode: hold for max_wait_s from the oldest enqueue (or a full
      // batch), letting concurrent arrivals pile in.
      auto deadline_reached = [this, &lock] {
        return gate_.closed(lock) ||
               pending_rows_ >= options_.max_batch_rows ||
               (!pending_.empty() &&
                static_cast<double>(common::wall_now_ns() -
                                    pending_.front().enqueued_ns) *
                        1e-9 >=
                    options_.max_wait_s);
      };
      while (!deadline_reached()) {
        double waited_s = static_cast<double>(common::wall_now_ns() -
                                              pending_.front().enqueued_ns) *
                          1e-9;
        gate_.await_for(lock, options_.max_wait_s - waited_s, deadline_reached);
      }
      if (pending_.empty()) continue;
    }

    std::deque<Pending> batch = take_flushable(lock);
    lock.unlock();
    run_flush(std::move(batch));
    lock.lock();
  }
}

void MicroBatcher::report_if_drained() {
  common::DrainGate::Lock lock = gate_.acquire();
  if (pending_.empty() && options_.governor) options_.governor->on_drained();
}

void MicroBatcher::run_flush(std::deque<Pending> batch) {
  std::vector<nn::Tensor> requests;
  requests.reserve(batch.size());
  std::size_t flush_rows = 0;
  for (Pending& pending : batch) {
    flush_rows += pending.rows.shape().rank() >= 1 ? pending.rows.shape().dim(0)
                                                   : 0;
    requests.push_back(std::move(pending.rows));
  }

  // Queue-wait attribution happens before the forward pass so the span
  // cleanly splits "waited in queue" from "rode a fused forward".
  std::int64_t flush_start_ns = common::wall_now_ns();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].span.active()) continue;
    batch[i].span.set_attribute(
        "queue_wait_us",
        static_cast<double>(flush_start_ns - batch[i].enqueued_ns) * 1e-3);
    batch[i].span.set_attribute(
        "batch_rows", static_cast<double>(requests[i].shape().dim(0)));
    batch[i].span.set_attribute("flush_rows",
                                static_cast<double>(flush_rows));
    batch[i].span.set_attribute("flush_requests",
                                static_cast<double>(batch.size()));
  }

  std::vector<InferenceResult> results;
  tensor::AllocationStats allocation;
  try {
    tensor::AllocationTrackingScope scope;
    results = session_->predict_batch(requests);
    allocation = scope.stats();
  } catch (...) {
    // A malformed request poisons the whole flush; every caller learns why.
    std::exception_ptr error = std::current_exception();
    report_if_drained();
    for (Pending& pending : batch) pending.promise.set_exception(error);
    return;
  }

  if (options_.governor) {
    // One ledger charge per fused forward pass, prorated back per request by
    // its share of the simulated busy time so the trace attributes sum to
    // exactly what the ledger recorded.
    double total_busy_s = 0.0;
    for (const InferenceResult& result : results) {
      total_busy_s += result.batch_latency_s;
    }
    double joules = options_.governor->charge(total_busy_s, flush_rows);
    for (InferenceResult& result : results) {
      result.ledger_energy_j =
          total_busy_s > 0.0 ? joules * (result.batch_latency_s / total_busy_s)
                             : 0.0;
    }
  }

  double forward_us =
      static_cast<double>(common::wall_now_ns() - flush_start_ns) * 1e-3;
  for (Pending& pending : batch) {
    if (!pending.span.active()) continue;
    pending.span.set_attribute("forward_us", forward_us);
    pending.span.set_attribute(
        "peak_tensor_bytes", static_cast<double>(allocation.peak_live_bytes));
    pending.span.finish();
  }

  if (metrics_) {
    std::size_t rows = 0;
    for (const nn::Tensor& request : requests) rows += request.shape().dim(0);
    metrics_->flushes.fetch_add(1, std::memory_order_relaxed);
    if (batch.size() > 1) {
      metrics_->fused_requests.fetch_add(batch.size(),
                                         std::memory_order_relaxed);
    }
    std::uint64_t seen = metrics_->max_fused_rows.load(std::memory_order_relaxed);
    while (rows > seen && !metrics_->max_fused_rows.compare_exchange_weak(
                              seen, rows, std::memory_order_relaxed)) {
    }
  }

  report_if_drained();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(results[i]));
  }
}

}  // namespace openei::runtime
