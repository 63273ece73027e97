#include "stream/frame_queue.h"

#include <utility>

#include "common/clock.h"
#include "common/error.h"

namespace openei::stream {

const char* to_string(AdmitPolicy policy) {
  switch (policy) {
    case AdmitPolicy::kBlock:
      return "block";
    case AdmitPolicy::kLatestWins:
      return "latest_wins";
    case AdmitPolicy::kDropOldest:
      return "drop_oldest";
  }
  return "unknown";
}

std::optional<AdmitPolicy> parse_policy(const std::string& name) {
  if (name == "block") return AdmitPolicy::kBlock;
  if (name == "latest_wins") return AdmitPolicy::kLatestWins;
  if (name == "drop_oldest") return AdmitPolicy::kDropOldest;
  return std::nullopt;
}

FrameQueue::FrameQueue(Options options) : options_(std::move(options)) {
  OPENEI_CHECK(options_.capacity > 0, "frame queue needs capacity >= 1");
  OPENEI_CHECK(options_.deadline_s >= 0.0, "negative frame deadline");
  if (!options_.now) options_.now = common::wall_now_ns;
}

FrameQueue::~FrameQueue() {
  close();
  // Whatever the owner never drained dies here — counted, span-attributed,
  // never silently lost.
  common::DrainGate::Lock lock = gate_.acquire();
  while (!frames_.empty()) {
    drop_locked(frames_.front(), "closed", counters_.dropped_closed);
    frames_.pop_front();
  }
}

void FrameQueue::drop_locked(Frame& frame, const char* reason,
                             std::uint64_t& counter) {
  ++counter;
  frame.wait_span.finish();
  if (frame.span.active()) {
    obs::Span drop = frame.span.child("stream.drop");
    drop.set_attribute("reason", std::string(reason));
    drop.set_attribute("seq", static_cast<double>(frame.seq));
    drop.set_attribute("waited_us",
                       static_cast<double>(now() - frame.enqueued_ns) * 1e-3);
    drop.finish();
    frame.span.finish();
  }
  if (&counter == &counters_.dropped_deadline &&
      options_.dropped_deadline_counter != nullptr) {
    options_.dropped_deadline_counter->increment();
  } else if (&counter == &counters_.dropped_policy &&
             options_.dropped_policy_counter != nullptr) {
    options_.dropped_policy_counter->increment();
  }
}

PushResult FrameQueue::push(Frame frame, double max_wait_s) {
  common::DrainGate::Lock lock = gate_.acquire();
  ++counters_.produced;

  auto reject = [&](PushOutcome outcome, std::uint64_t& counter,
                    const char* reason) {
    ++counter;
    std::uint64_t trace_id = frame.span.trace_id();
    if (frame.span.active()) {
      obs::Span enqueue = frame.span.child("stream.enqueue");
      enqueue.set_attribute("policy", std::string(to_string(options_.policy)));
      enqueue.set_attribute("outcome", std::string(reason));
      enqueue.finish();
      obs::Span drop = frame.span.child("stream.drop");
      drop.set_attribute("reason", std::string(reason));
      drop.finish();
      frame.span.finish();
    }
    return PushResult{outcome, 0, 0, trace_id};
  };

  if (gate_.closed(lock)) {
    return reject(PushOutcome::kRejectedClosed, counters_.rejected_closed,
                  "closed");
  }

  std::size_t evicted = 0;
  if (options_.policy == AdmitPolicy::kBlock) {
    auto have_space = [this] { return frames_.size() < options_.capacity; };
    if (!have_space()) {
      ++counters_.blocked_pushes;
      if (max_wait_s < 0.0) {
        gate_.await(lock, have_space);
      } else if (max_wait_s > 0.0) {
        gate_.await_for(lock, max_wait_s, have_space);
      }
      // Close wins over space: a closed queue refuses new work even if the
      // wake that delivered the space came from the draining consumer.
      if (gate_.closed(lock)) {
        return reject(PushOutcome::kRejectedClosed, counters_.rejected_closed,
                      "closed");
      }
      if (!have_space()) {
        return reject(PushOutcome::kRejectedBackpressure,
                      counters_.rejected_backpressure, "backpressure");
      }
    }
  } else {
    // Eviction policies shed the oldest queued frame instead of waiting.
    while (frames_.size() >= options_.capacity) {
      drop_locked(frames_.front(), "policy", counters_.dropped_policy);
      frames_.pop_front();
      ++evicted;
    }
  }

  frame.seq = ++next_seq_;
  frame.enqueued_ns = now();
  if (options_.deadline_s > 0.0) {
    std::int64_t queue_deadline =
        frame.enqueued_ns +
        static_cast<std::int64_t>(options_.deadline_s * 1e9);
    if (frame.deadline_ns == 0 || queue_deadline < frame.deadline_ns) {
      frame.deadline_ns = queue_deadline;
    }
  }
  ++counters_.admitted;
  std::uint64_t seq = frame.seq;
  std::uint64_t trace_id = frame.span.trace_id();
  if (frame.span.active()) {
    frame.span.set_attribute("seq", static_cast<double>(seq));
    obs::Span enqueue = frame.span.child("stream.enqueue");
    enqueue.set_attribute("policy", std::string(to_string(options_.policy)));
    enqueue.set_attribute("outcome", "admitted");
    enqueue.set_attribute("depth", static_cast<double>(frames_.size() + 1));
    enqueue.set_attribute("evicted", static_cast<double>(evicted));
    enqueue.finish();
    frame.wait_span = frame.span.child("stream.queue_wait");
  }
  frames_.push_back(std::move(frame));
  lock.unlock();
  gate_.notify_all();
  return PushResult{PushOutcome::kAdmitted, seq, evicted, trace_id};
}

void FrameQueue::settle_locked() {
  std::size_t queued = frames_.size();
  while (!frames_.empty()) {
    // Latest-wins: everything but the newest queued frame is superseded.
    // Classified as a policy drop even when also expired — the policy made
    // it dead first, and a deterministic classification keeps the property
    // suite's reference model exact.
    if (options_.policy == AdmitPolicy::kLatestWins && frames_.size() > 1) {
      drop_locked(frames_.front(), "policy", counters_.dropped_policy);
      frames_.pop_front();
      continue;
    }
    Frame& head = frames_.front();
    if (head.deadline_ns != 0 && now() >= head.deadline_ns) {
      drop_locked(head, "deadline", counters_.dropped_deadline);
      frames_.pop_front();
      continue;
    }
    break;
  }
  // Drops free space a blocked producer may be waiting for.  Wake it now:
  // the caller may go to sleep on the emptied queue next.
  if (frames_.size() < queued) gate_.notify_all();
}

std::optional<Frame> FrameQueue::take_front_locked() {
  Frame frame = std::move(frames_.front());
  frames_.pop_front();
  ++counters_.delivered;
  frame.wait_span.finish();
  return frame;
}

std::optional<Frame> FrameQueue::pop() {
  common::DrainGate::Lock lock = gate_.acquire();
  for (;;) {
    settle_locked();
    if (!frames_.empty()) {
      std::optional<Frame> frame = take_front_locked();
      lock.unlock();
      gate_.notify_all();  // a blocked producer may now have space
      return frame;
    }
    if (gate_.closed(lock)) return std::nullopt;  // closed and drained
    gate_.await(lock, [this] { return !frames_.empty(); });
    if (frames_.empty() && gate_.closed(lock)) return std::nullopt;
  }
}

std::optional<Frame> FrameQueue::try_pop() {
  common::DrainGate::Lock lock = gate_.acquire();
  settle_locked();
  if (frames_.empty()) return std::nullopt;
  std::optional<Frame> frame = take_front_locked();
  lock.unlock();
  gate_.notify_all();
  return frame;
}

void FrameQueue::close() { gate_.close(); }

QueueCounters FrameQueue::counters() const {
  common::DrainGate::Lock lock = gate_.acquire();
  QueueCounters snapshot = counters_;
  snapshot.depth = frames_.size();
  return snapshot;
}

std::size_t FrameQueue::depth() const {
  common::DrainGate::Lock lock = gate_.acquire();
  return frames_.size();
}

}  // namespace openei::stream
