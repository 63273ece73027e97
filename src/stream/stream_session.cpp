#include "stream/stream_session.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/error.h"
#include "runtime/energy_governor.h"
#include "tensor/tensor.h"

namespace openei::stream {

namespace {

/// Queue meter hooks resolved up front so the queue increments stable
/// Counter pointers under its own lock.
FrameQueue::Options wire_queue_meters(FrameQueue::Options options,
                                      obs::MetricsRegistry* meter) {
  if (meter != nullptr) {
    options.dropped_deadline_counter = &meter->counter(
        "ei_stream_frames_dropped_total", {{"reason", "deadline"}});
    options.dropped_policy_counter = &meter->counter(
        "ei_stream_frames_dropped_total", {{"reason", "policy"}});
  }
  return options;
}

}  // namespace

StreamSession::StreamSession(std::string id, std::string scenario,
                             std::string algorithm, std::string model,
                             runtime::SessionCache& cache, Options options,
                             obs::Tracer* tracer, obs::MetricsRegistry* meter)
    : id_(std::move(id)),
      scenario_(std::move(scenario)),
      algorithm_(std::move(algorithm)),
      model_(std::move(model)),
      cache_(cache),
      options_(options),
      tracer_(tracer),
      meter_(meter),
      queue_(wire_queue_meters(options.queue, meter)) {
  OPENEI_CHECK(options_.result_capacity > 0, "result ring needs capacity");
  // Materialize (or warm-hit) the session now: a missing model fails the
  // open, not the first frame, and pins the sample shape for submit().
  runtime::SessionCache::Lease lease = cache_.acquire(model_);
  sample_shape_ = lease.session->model().input_shape();
  if (meter_ != nullptr) {
    obs::LabelSet by_policy{{"policy", to_string(options_.queue.policy)}};
    admitted_counter_ =
        &meter_->counter("ei_stream_frames_admitted_total", by_policy);
    rejected_counter_ =
        &meter_->counter("ei_stream_frames_rejected_total", by_policy);
    delivered_counter_ = &meter_->counter("ei_stream_frames_delivered_total");
    latency_histogram_ = &meter_->histogram("ei_stream_frame_latency_seconds");
  }
  worker_ = std::thread([this] { worker_loop(); });
}

StreamSession::~StreamSession() { close(); }

void StreamSession::close() {
  queue_.close();
  // Exactly one closer joins the drain; late callers block until it is done.
  std::lock_guard<std::mutex> lock(close_mutex_);
  if (worker_.joinable()) worker_.join();
}

PushResult StreamSession::submit(nn::Tensor frame, double max_wait_s) {
  if (frame.shape().elements() != sample_shape_.elements()) {
    throw ParseError("frame has " + std::to_string(frame.shape().elements()) +
                     " elements; model '" + model_ + "' expects " +
                     std::to_string(sample_shape_.elements()));
  }
  std::vector<std::size_t> dims{1};
  for (std::size_t d : sample_shape_.dims()) dims.push_back(d);
  Frame queued;
  queued.rows = frame.reshaped(tensor::Shape(std::move(dims)));
  if (tracer_ != nullptr && tracer_->enabled()) {
    queued.span = tracer_->begin_trace("stream.frame");
    queued.span.set_attribute("session", id_);
    queued.span.set_attribute("model", model_);
    queued.span.set_attribute("policy",
                              std::string(to_string(options_.queue.policy)));
  }
  PushResult result = queue_.push(std::move(queued), max_wait_s);
  if (result.outcome == PushOutcome::kAdmitted) {
    if (admitted_counter_ != nullptr) admitted_counter_->increment();
    if (options_.governor != nullptr) {
      options_.governor->on_queue_depth(queue_.counters().depth);
    }
  } else if (rejected_counter_ != nullptr) {
    rejected_counter_->increment();
  }
  return result;
}

void StreamSession::worker_loop() {
  while (std::optional<Frame> frame = queue_.pop()) {
    obs::Span infer = frame->span.child("stream.infer");
    double queue_wait_s =
        static_cast<double>(queue_.options().now() - frame->enqueued_ns) *
        1e-9;
    std::int64_t infer_start_ns = queue_.options().now();
    runtime::InferenceResult result;
    tensor::AllocationStats allocation;
    try {
      runtime::SessionCache::Lease lease = cache_.acquire(model_);
      tensor::AllocationTrackingScope scope;
      result = lease.session->run(frame->rows);
      allocation = scope.stats();
    } catch (const std::exception& error) {
      // Model undeployed mid-stream or admission refused: the frame is
      // dropped after the fact, the stream keeps going.
      infer_failures_.fetch_add(1, std::memory_order_relaxed);
      if (infer.active()) {
        infer.set_attribute("error", std::string(error.what()));
        infer.finish();
        obs::Span drop = frame->span.child("stream.drop");
        drop.set_attribute("reason", "error");
        drop.finish();
      }
      frame->span.finish();
      continue;
    }
    inferred_.fetch_add(1, std::memory_order_relaxed);
    if (options_.governor != nullptr) {
      result.ledger_energy_j =
          options_.governor->charge(result.batch_latency_s, 1);
    }
    // Ledger-charged joules when a governor is wired (what the device
    // actually accrued, DVFS-adjusted); cost-model estimate otherwise.
    double frame_energy_j = options_.governor != nullptr
                                ? result.ledger_energy_j
                                : result.batch_energy_j;
    last_sim_latency_s_.store(result.batch_latency_s,
                              std::memory_order_relaxed);
    double infer_s =
        static_cast<double>(queue_.options().now() - infer_start_ns) * 1e-9;
    if (infer.active()) {
      infer.set_attribute("model", model_);
      infer.set_attribute("queue_wait_us", queue_wait_s * 1e6);
      infer.set_attribute("sim_latency_us", result.batch_latency_s * 1e6);
      infer.set_attribute("sim_energy_mj", frame_energy_j * 1e3);
      infer.set_attribute(
          "sim_memory_bytes",
          static_cast<double>(result.per_sample.memory_bytes));
      infer.set_attribute("peak_tensor_bytes",
                          static_cast<double>(allocation.peak_live_bytes));
    }
    infer.finish();

    obs::Span deliver_span = frame->span.child("stream.deliver");
    DeliveredResult delivered;
    delivered.seq = frame->seq;
    delivered.prediction =
        result.predictions.empty() ? 0 : result.predictions.front();
    delivered.queue_wait_s = queue_wait_s;
    delivered.infer_s = infer_s;
    delivered.sim_latency_s = result.batch_latency_s;
    delivered.sim_energy_j = frame_energy_j;
    delivered.trace_id = frame->span.trace_id();
    deliver(std::move(delivered));
    if (delivered_counter_ != nullptr) delivered_counter_->increment();
    if (latency_histogram_ != nullptr) {
      latency_histogram_->record(queue_wait_s + infer_s);
    }
    deliver_span.finish();
    frame->span.finish();
    if (options_.governor != nullptr && queue_.counters().depth == 0) {
      options_.governor->on_drained();
    }

    if (options_.pace_sim_latency_scale > 0.0) {
      // Chunked so close() interrupts the pace promptly: rate shaping must
      // not delay a drain.
      double budget_s =
          result.batch_latency_s * options_.pace_sim_latency_scale;
      while (budget_s > 0.0 && !queue_.closed()) {
        double slice = std::min(budget_s, 0.01);
        std::this_thread::sleep_for(std::chrono::duration<double>(slice));
        budget_s -= slice;
      }
    }
  }
}

void StreamSession::deliver(DeliveredResult result) {
  std::lock_guard<std::mutex> lock(results_mutex_);
  while (results_.size() >= options_.result_capacity) {
    results_.pop_front();
    results_overflow_.fetch_add(1, std::memory_order_relaxed);
  }
  results_.push_back(std::move(result));
}

std::vector<DeliveredResult> StreamSession::poll(std::size_t max) {
  std::vector<DeliveredResult> out;
  std::lock_guard<std::mutex> lock(results_mutex_);
  while (!results_.empty() && out.size() < max) {
    out.push_back(std::move(results_.front()));
    results_.pop_front();
  }
  results_polled_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

SessionStats StreamSession::stats() const {
  SessionStats stats;
  stats.queue = queue_.counters();
  stats.inferred = inferred_.load(std::memory_order_relaxed);
  stats.infer_failures = infer_failures_.load(std::memory_order_relaxed);
  stats.results_polled = results_polled_.load(std::memory_order_relaxed);
  stats.results_overflow = results_overflow_.load(std::memory_order_relaxed);
  stats.last_sim_latency_s =
      last_sim_latency_s_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(results_mutex_);
    stats.results_pending = results_.size();
  }
  return stats;
}

}  // namespace openei::stream
