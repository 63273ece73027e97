// Streaming pipeline suite (label: stream): the DrainGate shutdown
// contract, FrameQueue admission-policy and deadline semantics (driven by a
// fake clock), drain-on-close and concurrent-producer behaviour, the
// StreamSession worker over the real session cache, and the /ei_stream REST
// surface end-to-end over real HTTP.  Runs early on both sanitizer legs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/drain_gate.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "data/synthetic.h"
#include "hwsim/cost_model.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "net/http.h"
#include "nn/zoo.h"
#include "stream/frame_queue.h"
#include "stream/stream_manager.h"
#include "stream/stream_session.h"
#include "tensor/tensor.h"

namespace openei::stream {
namespace {

using common::Json;
using common::Rng;

constexpr std::size_t kFeatures = 8;
constexpr std::size_t kClasses = 3;

/// Deterministically predicts `winner` for every input (zeroed parameters,
/// one-hot output bias): streamed predictions identify the model version
/// with zero training or flakiness.
nn::Model make_constant_model(const std::string& name, std::size_t winner) {
  Rng rng(99);
  nn::Model model = nn::zoo::make_mlp(name, kFeatures, kClasses, {4}, rng);
  for (nn::Tensor* param : model.parameters()) *param *= 0.0F;
  model.parameters().back()->data()[winner] = 1.0F;
  return model;
}

core::EdgeNodeConfig base_config() {
  return core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                              hwsim::openei_package(), 64};
}

nn::Tensor sample_frame(float fill = 0.5F) {
  nn::Tensor frame(tensor::Shape{kFeatures});
  for (float& v : frame.data()) v = fill;
  return frame;
}

Frame bare_frame() {
  Frame frame;
  frame.rows = nn::Tensor(tensor::Shape{1, 1});
  return frame;
}

/// Drains `session` until `want` results arrived or `timeout_s` elapsed.
std::vector<DeliveredResult> poll_until(StreamSession& session,
                                        std::size_t want,
                                        double timeout_s = 10.0) {
  std::vector<DeliveredResult> out;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(timeout_s);
  while (out.size() < want && std::chrono::steady_clock::now() < deadline) {
    for (DeliveredResult& result : session.poll()) {
      out.push_back(std::move(result));
    }
    if (out.size() < want) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// DrainGate: the extracted shutdown contract shared by MicroBatcher and
// FrameQueue.
// ---------------------------------------------------------------------------

TEST(DrainGateTest, CloseWakesBlockedWaiterAndIsIdempotent) {
  common::DrainGate gate;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    common::DrainGate::Lock lock = gate.acquire();
    // Never-ready predicate: only close() can end this wait.
    bool ready = gate.await(lock, [] { return false; });
    EXPECT_FALSE(ready);  // woken by close, not by work
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  EXPECT_TRUE(gate.close());
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_TRUE(gate.closed());
  EXPECT_FALSE(gate.close());  // already closed
}

TEST(DrainGateTest, AwaitForReportsReadinessAndHonorsTimeout) {
  common::DrainGate gate;
  common::DrainGate::Lock lock = gate.acquire();
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(gate.await_for(lock, 0.02, [] { return false; }));
  EXPECT_GE(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            0.015);
  EXPECT_TRUE(gate.await_for(lock, 0.02, [] { return true; }));
  EXPECT_FALSE(gate.closed(lock));
}

// ---------------------------------------------------------------------------
// FrameQueue admission policies, driven by a fake clock.
// ---------------------------------------------------------------------------

TEST(FrameQueueTest, BlockPolicyDeliversExactAdmissionOrder) {
  FrameQueue::Options options;
  options.capacity = 8;
  options.policy = AdmitPolicy::kBlock;
  FrameQueue queue(options);
  for (int i = 0; i < 5; ++i) {
    PushResult pushed = queue.push(bare_frame());
    EXPECT_EQ(pushed.outcome, PushOutcome::kAdmitted);
    EXPECT_EQ(pushed.seq, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(pushed.evicted, 0U);
  }
  for (std::uint64_t expected = 1; expected <= 5; ++expected) {
    auto frame = queue.try_pop();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->seq, expected);
  }
  EXPECT_FALSE(queue.try_pop().has_value());
  QueueCounters counters = queue.counters();
  EXPECT_EQ(counters.produced, 5U);
  EXPECT_EQ(counters.admitted, 5U);
  EXPECT_EQ(counters.delivered, 5U);
  EXPECT_EQ(counters.dropped_policy, 0U);
  EXPECT_EQ(counters.depth, 0U);
}

TEST(FrameQueueTest, BlockPolicyZeroWaitRejectsWhenFull) {
  FrameQueue::Options options;
  options.capacity = 2;
  options.policy = AdmitPolicy::kBlock;
  FrameQueue queue(options);
  EXPECT_EQ(queue.push(bare_frame()).outcome, PushOutcome::kAdmitted);
  EXPECT_EQ(queue.push(bare_frame()).outcome, PushOutcome::kAdmitted);
  PushResult rejected = queue.push(bare_frame(), /*max_wait_s=*/0.0);
  EXPECT_EQ(rejected.outcome, PushOutcome::kRejectedBackpressure);
  EXPECT_EQ(rejected.seq, 0U);
  QueueCounters counters = queue.counters();
  EXPECT_EQ(counters.rejected_backpressure, 1U);
  EXPECT_EQ(counters.blocked_pushes, 1U);
  EXPECT_EQ(counters.dropped_policy, 0U);  // kBlock never drops by policy
  EXPECT_EQ(counters.depth, 2U);
}

TEST(FrameQueueTest, BlockedProducerWakesWhenConsumerMakesSpace) {
  FrameQueue::Options options;
  options.capacity = 1;
  options.policy = AdmitPolicy::kBlock;
  FrameQueue queue(options);
  ASSERT_EQ(queue.push(bare_frame()).outcome, PushOutcome::kAdmitted);
  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    PushResult pushed = queue.push(bare_frame());  // blocks until space
    EXPECT_EQ(pushed.outcome, PushOutcome::kAdmitted);
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  ASSERT_TRUE(queue.pop().has_value());  // frees the slot, wakes the producer
  producer.join();
  EXPECT_TRUE(admitted.load());
  auto second = queue.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, 2U);
  EXPECT_GE(queue.counters().blocked_pushes, 1U);
}

TEST(FrameQueueTest, LatestWinsEvictsOldestAtPush) {
  FrameQueue::Options options;
  options.capacity = 2;
  options.policy = AdmitPolicy::kLatestWins;
  FrameQueue queue(options);
  EXPECT_EQ(queue.push(bare_frame()).seq, 1U);
  EXPECT_EQ(queue.push(bare_frame()).seq, 2U);
  PushResult third = queue.push(bare_frame());
  EXPECT_EQ(third.outcome, PushOutcome::kAdmitted);
  EXPECT_EQ(third.seq, 3U);
  EXPECT_EQ(third.evicted, 1U);  // seq 1 shed to make room
  QueueCounters counters = queue.counters();
  EXPECT_EQ(counters.dropped_policy, 1U);
  EXPECT_EQ(counters.depth, 2U);
}

TEST(FrameQueueTest, LatestWinsPopSkipsToNewest) {
  FrameQueue::Options options;
  options.capacity = 8;
  options.policy = AdmitPolicy::kLatestWins;
  FrameQueue queue(options);
  for (int i = 0; i < 4; ++i) queue.push(bare_frame());
  auto frame = queue.try_pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->seq, 4U);  // everything older was superseded
  EXPECT_FALSE(queue.try_pop().has_value());
  QueueCounters counters = queue.counters();
  EXPECT_EQ(counters.delivered, 1U);
  EXPECT_EQ(counters.dropped_policy, 3U);
  EXPECT_EQ(counters.depth, 0U);
}

TEST(FrameQueueTest, DropOldestStaysFifoOverSurvivors) {
  FrameQueue::Options options;
  options.capacity = 2;
  options.policy = AdmitPolicy::kDropOldest;
  FrameQueue queue(options);
  for (int i = 0; i < 4; ++i) queue.push(bare_frame());  // sheds 1 and 2
  auto first = queue.try_pop();
  auto second = queue.try_pop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->seq, 3U);  // FIFO over what survives, unlike latest-wins
  EXPECT_EQ(second->seq, 4U);
  EXPECT_EQ(queue.counters().dropped_policy, 2U);
}

TEST(FrameQueueTest, ExpiredFramesDroppedAtPopNeverDelivered) {
  std::int64_t now_ns = 0;
  FrameQueue::Options options;
  options.capacity = 8;
  options.policy = AdmitPolicy::kBlock;
  options.deadline_s = 1.0;  // 1s from admission, on the fake clock
  options.now = [&now_ns] { return now_ns; };
  FrameQueue queue(options);
  queue.push(bare_frame());  // seq 1, deadline t=1s
  now_ns = 500'000'000;
  queue.push(bare_frame());  // seq 2, deadline t=1.5s
  now_ns = 1'200'000'000;    // seq 1 expired, seq 2 still live
  auto frame = queue.try_pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->seq, 2U);
  QueueCounters counters = queue.counters();
  EXPECT_EQ(counters.dropped_deadline, 1U);
  EXPECT_EQ(counters.delivered, 1U);
  now_ns = 10'000'000'000;
  EXPECT_FALSE(queue.try_pop().has_value());  // nothing left to expire
}

TEST(FrameQueueTest, BlockedProducerWakesWhenExpiryEmptiesTheQueue) {
  // The consumer drops the full queue's expired head and then sleeps on the
  // empty queue; the producer blocked on that full queue must wake and be
  // admitted, or both wait on each other for good.
  std::atomic<std::int64_t> now_ns{0};
  FrameQueue::Options options;
  options.capacity = 1;
  options.policy = AdmitPolicy::kBlock;
  options.deadline_s = 1.0;
  options.now = [&now_ns] { return now_ns.load(); };
  FrameQueue queue(options);
  ASSERT_EQ(queue.push(bare_frame()).outcome, PushOutcome::kAdmitted);
  // A timed wait, so a lost wake shows up as the full 5s instead of a hang.
  PushResult pushed;
  double waited_s = 0.0;
  std::thread producer([&] {
    auto start = std::chrono::steady_clock::now();
    pushed = queue.push(bare_frame(), 5.0);
    waited_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  });
  while (queue.counters().blocked_pushes == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  now_ns.store(2'000'000'000);  // seq 1 expires while the producer waits
  std::optional<Frame> popped;
  std::thread consumer([&] { popped = queue.pop(); });
  producer.join();
  EXPECT_EQ(pushed.outcome, PushOutcome::kAdmitted);
  EXPECT_LT(waited_s, 2.5);
  queue.close();  // releases the consumer should the producer have failed
  consumer.join();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->seq, 2U);
  EXPECT_EQ(queue.counters().dropped_deadline, 1U);
}

TEST(FrameQueueTest, FrameKeepsEarlierOfOwnAndQueueDeadline) {
  std::int64_t now_ns = 0;
  FrameQueue::Options options;
  options.capacity = 4;
  options.deadline_s = 10.0;  // generous queue-wide deadline
  options.now = [&now_ns] { return now_ns; };
  FrameQueue queue(options);
  Frame urgent = bare_frame();
  urgent.deadline_ns = 1'000;  // the frame's own deadline is much tighter
  queue.push(std::move(urgent));
  now_ns = 2'000;
  EXPECT_FALSE(queue.try_pop().has_value());
  EXPECT_EQ(queue.counters().dropped_deadline, 1U);
}

TEST(FrameQueueTest, CloseRefusesNewWorkButDrainsAdmitted) {
  FrameQueue::Options options;
  options.capacity = 4;
  options.policy = AdmitPolicy::kBlock;
  FrameQueue queue(options);
  queue.push(bare_frame());
  queue.push(bare_frame());
  queue.close();
  PushResult late = queue.push(bare_frame());
  EXPECT_EQ(late.outcome, PushOutcome::kRejectedClosed);
  // Drain-on-close: both admitted frames still come out, in order.
  auto first = queue.pop();
  auto second = queue.pop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->seq, 1U);
  EXPECT_EQ(second->seq, 2U);
  EXPECT_FALSE(queue.pop().has_value());  // closed and drained
  QueueCounters counters = queue.counters();
  EXPECT_EQ(counters.rejected_closed, 1U);
  EXPECT_EQ(counters.delivered, 2U);
  EXPECT_EQ(counters.dropped_closed, 0U);
}

TEST(FrameQueueTest, BlockedProducersWakeOnCloseWithoutDeadlock) {
  FrameQueue::Options options;
  options.capacity = 1;
  options.policy = AdmitPolicy::kBlock;
  FrameQueue queue(options);
  ASSERT_EQ(queue.push(bare_frame()).outcome, PushOutcome::kAdmitted);
  std::vector<std::thread> producers;
  std::atomic<int> rejected_closed{0};
  for (int i = 0; i < 3; ++i) {
    producers.emplace_back([&] {
      PushResult pushed = queue.push(bare_frame());  // unbounded block
      if (pushed.outcome == PushOutcome::kRejectedClosed) ++rejected_closed;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();  // must wake all three; none may sleep through it
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(rejected_closed.load(), 3);
  ASSERT_TRUE(queue.pop().has_value());  // the admitted frame still drains
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(FrameQueueTest, ConcurrentProducersConservationHolds) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  FrameQueue::Options options;
  options.capacity = 4;
  options.policy = AdmitPolicy::kLatestWins;
  FrameQueue queue(options);
  std::atomic<std::uint64_t> popped{0};
  std::thread consumer([&] {
    while (queue.pop().has_value()) {
      popped.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) queue.push(bare_frame());
    });
  }
  for (std::thread& producer : producers) producer.join();
  queue.close();
  consumer.join();
  QueueCounters counters = queue.counters();
  EXPECT_EQ(counters.produced,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(counters.produced, counters.admitted +
                                   counters.rejected_backpressure +
                                   counters.rejected_closed);
  EXPECT_EQ(counters.admitted,
            counters.delivered + counters.dropped_deadline +
                counters.dropped_policy + counters.dropped_closed +
                counters.depth);
  EXPECT_EQ(counters.delivered, popped.load());
  EXPECT_EQ(counters.depth, 0U);  // consumer drained everything
}

// ---------------------------------------------------------------------------
// StreamSession over the real SessionCache/InferenceSession path.
// ---------------------------------------------------------------------------

TEST(StreamSessionTest, DeliversPredictionsInOrder) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 2), 0.9);
  StreamSession::Options options;
  options.queue.policy = AdmitPolicy::kBlock;
  options.queue.capacity = 16;
  StreamSession session("s1", "safety", "detection", "det",
                        node.service().lifecycle(), options);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(session.submit(sample_frame()).outcome, PushOutcome::kAdmitted);
  }
  std::vector<DeliveredResult> results = poll_until(session, 6);
  ASSERT_EQ(results.size(), 6U);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].seq, i + 1);  // kBlock: exact admission order
    EXPECT_EQ(results[i].prediction, 2U);
    EXPECT_GE(results[i].queue_wait_s, 0.0);
    EXPECT_GT(results[i].sim_latency_s, 0.0);
  }
  session.close();
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.inferred, 6U);
  EXPECT_EQ(stats.queue.delivered, 6U);
  EXPECT_EQ(stats.infer_failures, 0U);
}

TEST(StreamSessionTest, ExpiredFramesNeverReachInference) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 1), 0.9);
  StreamSession::Options options;
  options.queue.policy = AdmitPolicy::kBlock;
  options.queue.capacity = 16;
  // 1ns from admission: on the real clock every frame is already expired by
  // the time the worker's pop examines it.
  options.queue.deadline_s = 1e-9;
  StreamSession session("s2", "safety", "detection", "det",
                        node.service().lifecycle(), options);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(session.submit(sample_frame()).outcome, PushOutcome::kAdmitted);
  }
  session.close();  // drains: every admitted frame resolves before this returns
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.inferred, 0U);  // the compute was never spent
  EXPECT_EQ(stats.queue.dropped_deadline, 8U);
  EXPECT_EQ(stats.queue.delivered, 0U);
  EXPECT_TRUE(session.poll().empty());
}

TEST(StreamSessionTest, ShapeMismatchThrows) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  StreamSession session("s3", "safety", "detection", "det",
                        node.service().lifecycle(), {});
  nn::Tensor wrong(tensor::Shape{kFeatures + 1});
  EXPECT_THROW(session.submit(std::move(wrong)), ParseError);
  // A flat tensor with the right element count is accepted (reshaped).
  nn::Tensor flat(tensor::Shape{1, kFeatures});
  EXPECT_EQ(session.submit(std::move(flat)).outcome, PushOutcome::kAdmitted);
}

TEST(StreamSessionTest, CloseMidHammerDrainsCleanly) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  auto session = std::make_unique<StreamSession>(
      "s4", "safety", "detection", "det", node.service().lifecycle(),
      StreamSession::Options{});  // latest_wins, capacity 8
  constexpr int kProducers = 2;
  constexpr int kPerProducer = 300;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&session] {
      for (int i = 0; i < kPerProducer; ++i) {
        session->submit(sample_frame());  // post-close submits just reject
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  session->close();  // mid-stream: must neither deadlock nor leak frames
  for (std::thread& producer : producers) producer.join();
  SessionStats stats = session->stats();
  EXPECT_EQ(stats.queue.produced,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.queue.produced, stats.queue.admitted +
                                      stats.queue.rejected_backpressure +
                                      stats.queue.rejected_closed);
  EXPECT_EQ(stats.queue.admitted,
            stats.queue.delivered + stats.queue.dropped_deadline +
                stats.queue.dropped_policy + stats.queue.dropped_closed +
                stats.queue.depth);
  EXPECT_EQ(stats.queue.depth, 0U);  // the worker drained before close returned
  EXPECT_EQ(stats.inferred, stats.queue.delivered);
  session.reset();  // double-shutdown: dtor close after explicit close
}

// ---------------------------------------------------------------------------
// Continuous frame sources: deterministic, timestamped.
// ---------------------------------------------------------------------------

TEST(StreamSourceTest, SourcesAreSeedDeterministicAndTimestamped) {
  data::SensorStreamSource::Options options;
  options.features = 6;
  options.classes = 3;
  options.period_ns = 1'000'000;
  options.hold_frames = 4;
  data::SensorStreamSource a(options, 7);
  data::SensorStreamSource b(options, 7);
  std::size_t first_regime = SIZE_MAX;
  for (std::uint64_t i = 0; i < 12; ++i) {
    data::StreamFrame fa = a.next();
    data::StreamFrame fb = b.next();
    EXPECT_EQ(fa.index, i);
    // jitter=0: exact nominal capture times.
    EXPECT_EQ(fa.timestamp_ns, static_cast<std::int64_t>(i) * 1'000'000);
    EXPECT_EQ(fa.timestamp_ns, fb.timestamp_ns);
    EXPECT_EQ(fa.label, fb.label);
    EXPECT_LT(fa.label, options.classes);
    if (i < options.hold_frames) {
      if (first_regime == SIZE_MAX) first_regime = fa.label;
      EXPECT_EQ(fa.label, first_regime);  // regime holds for hold_frames
    }
    ASSERT_EQ(fa.features.elements(), fb.features.elements());
    for (std::size_t j = 0; j < fa.features.elements(); ++j) {
      EXPECT_EQ(fa.features.data()[j], fb.features.data()[j]);
    }
  }

  data::VideoStreamSource::Options video;
  video.channels = 1;
  video.size = 4;
  video.scene_frames = 5;
  data::VideoStreamSource v(video, 11), w(video, 11);
  for (int i = 0; i < 10; ++i) {
    data::StreamFrame fv = v.next();
    data::StreamFrame fw = w.next();
    EXPECT_EQ(fv.label, fw.label);
    EXPECT_EQ(fv.timestamp_ns, fw.timestamp_ns);
    EXPECT_EQ(fv.features.shape().rank(), 3U);
  }
}

// ---------------------------------------------------------------------------
// /ei_stream over real HTTP.
// ---------------------------------------------------------------------------

std::string frame_rows(std::size_t rows) {
  std::string body = "[";
  for (std::size_t r = 0; r < rows; ++r) {
    if (r > 0) body += ",";
    body += "[1,2,3,4,5,6,7,8]";
  }
  return body + "]";
}

TEST(StreamHttpTest, EndToEndStreamOverRealHttp) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 1), 0.9);
  std::uint16_t port = node.start_server(0);
  net::HttpClient client(port, 10.0);

  auto opened = client.post(
      "/ei_stream?scenario=safety&algorithm=detection&policy=block&capacity=8",
      "");
  ASSERT_EQ(opened.status, 201);
  Json open_body = Json::parse(opened.body);
  std::string id = open_body.at("stream").as_string();
  EXPECT_EQ(open_body.at("model").as_string(), "det");
  EXPECT_EQ(open_body.at("policy").as_string(), "block");

  auto submitted = client.post("/ei_stream/" + id + "/frames", frame_rows(3));
  ASSERT_EQ(submitted.status, 200);
  Json submit_body = Json::parse(submitted.body);
  EXPECT_EQ(submit_body.at("accepted").as_number(), 3.0);
  EXPECT_EQ(submit_body.at("rejected_backpressure").as_number(), 0.0);

  // Results arrive asynchronously; poll until all three frames delivered.
  std::size_t delivered = 0;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (delivered < 3 && std::chrono::steady_clock::now() < deadline) {
    Json results =
        Json::parse(client.get("/ei_stream/" + id + "/results?max=10").body);
    for (const Json& row : results.at("results").as_array()) {
      EXPECT_EQ(row.at("prediction").as_number(), 1.0);
      EXPECT_GE(row.at("queue_wait_s").as_number(), 0.0);
      EXPECT_GT(row.at("sim_latency_s").as_number(), 0.0);
      ++delivered;
    }
    if (delivered < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(delivered, 3U);

  Json stats = Json::parse(client.get("/ei_stream/" + id).body);
  EXPECT_EQ(stats.at("queue").at("admitted").as_number(), 3.0);
  EXPECT_EQ(stats.at("queue").at("delivered").as_number(), 3.0);
  EXPECT_EQ(stats.at("inferred").as_number(), 3.0);

  auto closed = client.del("/ei_stream/" + id);
  EXPECT_EQ(closed.status, 200);
  EXPECT_TRUE(Json::parse(closed.body).at("closed").as_bool());
  EXPECT_EQ(client.get("/ei_stream/" + id).status, 404);
  node.stop_server();
}

TEST(StreamHttpTest, DeadlineDropsAccountedOverHttp) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  std::uint16_t port = node.start_server(0);
  net::HttpClient client(port, 10.0);
  // deadline_ms = 1e-6 -> 1ns: every frame expires before the worker's pop.
  auto opened = client.post("/ei_stream?scenario=safety&algorithm=detection"
                            "&policy=drop_oldest&capacity=8&deadline_ms=1e-6",
                            "");
  ASSERT_EQ(opened.status, 201);
  std::string id = Json::parse(opened.body).at("stream").as_string();
  auto submitted = client.post("/ei_stream/" + id + "/frames", frame_rows(4));
  ASSERT_EQ(submitted.status, 200);
  EXPECT_EQ(Json::parse(submitted.body).at("accepted").as_number(), 4.0);

  // DELETE drains the worker, so the final stats are settled.
  Json final_stats = Json::parse(client.del("/ei_stream/" + id).body);
  EXPECT_EQ(final_stats.at("queue").at("dropped_deadline").as_number(), 4.0);
  EXPECT_EQ(final_stats.at("queue").at("delivered").as_number(), 0.0);
  EXPECT_EQ(final_stats.at("inferred").as_number(), 0.0);
  node.stop_server();
}

TEST(StreamHttpTest, SessionCapAnswers503TooManyStreams) {
  core::EdgeNodeConfig config = base_config();
  config.service.streaming.max_sessions = 1;
  core::EdgeNode node(config);
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  const std::string open = "/ei_stream?scenario=safety&algorithm=detection";
  ASSERT_EQ(node.call("POST", open).status, 201);
  auto refused = node.call("POST", open);
  EXPECT_EQ(refused.status, 503);
  Json body = Json::parse(refused.body);
  EXPECT_EQ(body.at("error").as_string(), "too_many_streams");
  EXPECT_EQ(body.at("max_sessions").as_number(), 1.0);
}

TEST(StreamHttpTest, BackpressureAnswers429WhenBoundedWaitExpires) {
  nn::Model model = make_constant_model("det", 0);
  core::EdgeNodeConfig config = base_config();
  // Pace the worker to ~0.75s per frame (hwsim latency scaled), so the
  // kBlock queue stays provably full across the HTTP round-trips below.
  hwsim::InferenceCost cost =
      hwsim::estimate_inference(model, config.package, config.device);
  ASSERT_GT(cost.latency_s, 0.0);
  config.service.streaming.session.pace_sim_latency_scale =
      0.75 / cost.latency_s;
  config.service.stream_http_max_block_s = 0.02;
  core::EdgeNode node(config);
  node.deploy_model("safety", "detection", std::move(model), 0.9);
  std::uint16_t port = node.start_server(0);
  net::HttpClient client(port, 10.0);

  auto opened = client.post(
      "/ei_stream?scenario=safety&algorithm=detection&policy=block&capacity=1",
      "");
  ASSERT_EQ(opened.status, 201);
  std::string id = Json::parse(opened.body).at("stream").as_string();
  // Frame 1 occupies the (paced) worker, frame 2 fills the 1-slot queue.
  ASSERT_EQ(client.post("/ei_stream/" + id + "/frames", frame_rows(1)).status,
            200);
  ASSERT_EQ(client.post("/ei_stream/" + id + "/frames", frame_rows(1)).status,
            200);
  // Frame 3 waits the bounded 20ms, finds no space, reports backpressure.
  auto throttled = client.post("/ei_stream/" + id + "/frames", frame_rows(1));
  EXPECT_EQ(throttled.status, 429);
  Json body = Json::parse(throttled.body);
  EXPECT_EQ(body.at("accepted").as_number(), 0.0);
  EXPECT_EQ(body.at("rejected_backpressure").as_number(), 1.0);
  client.del("/ei_stream/" + id);  // drains promptly: pacing is interruptible
  node.stop_server();
}

TEST(StreamHttpTest, UnknownStreamAndBadParameterErrors) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  EXPECT_EQ(node.call("GET", "/ei_stream/nope").status, 404);
  EXPECT_EQ(node.call("POST", "/ei_stream/nope/frames", "[[1]]").status, 404);
  EXPECT_EQ(node.call("DELETE", "/ei_stream/nope").status, 404);
  EXPECT_EQ(node.call("POST", "/ei_stream?scenario=safety"
                              "&algorithm=detection&policy=bogus")
                .status,
            400);
  EXPECT_EQ(node.call("POST", "/ei_stream?scenario=safety"
                              "&algorithm=detection&capacity=0")
                .status,
            400);
  EXPECT_EQ(node.call("POST", "/ei_stream?scenario=safety").status, 400);
  EXPECT_EQ(
      node.call("POST", "/ei_stream?scenario=nope&algorithm=nothing").status,
      404);
}

TEST(StreamStatusTest, StatusAndMetricsExposeStreams) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 2), 0.9);
  auto opened = node.call(
      "POST", "/ei_stream?scenario=safety&algorithm=detection&policy=block");
  ASSERT_EQ(opened.status, 201);
  std::string id = Json::parse(opened.body).at("stream").as_string();
  ASSERT_EQ(
      node.call("POST", "/ei_stream/" + id + "/frames", frame_rows(2)).status,
      200);

  Json status = Json::parse(node.call("GET", "/ei_status").body);
  const Json& streams = status.at("streams");
  EXPECT_EQ(streams.at("active").as_number(), 1.0);
  EXPECT_EQ(streams.at("opened_total").as_number(), 1.0);
  const auto& sessions = streams.at("sessions").as_array();
  ASSERT_EQ(sessions.size(), 1U);
  EXPECT_EQ(sessions[0].at("id").as_string(), id);
  EXPECT_EQ(sessions[0].at("model").as_string(), "det");
  EXPECT_EQ(sessions[0].at("policy").as_string(), "block");
  EXPECT_EQ(sessions[0].at("produced").as_number(), 2.0);

  std::string metrics = node.call("GET", "/ei_metrics").body;
  EXPECT_NE(metrics.find("ei_stream_sessions_active 1"), std::string::npos);
  EXPECT_NE(metrics.find("ei_stream_frames_admitted_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("ei_stream_frame_latency_seconds"),
            std::string::npos);

  Json index = Json::parse(node.call("GET", "/ei_stream").body);
  EXPECT_EQ(index.at("active").as_number(), 1.0);
  ASSERT_EQ(index.at("streams").as_array().size(), 1U);

  ASSERT_EQ(node.call("DELETE", "/ei_stream/" + id).status, 200);
  Json after = Json::parse(node.call("GET", "/ei_status").body);
  EXPECT_EQ(after.at("streams").at("active").as_number(), 0.0);
  EXPECT_EQ(after.at("streams").at("closed_total").as_number(), 1.0);
  // Four /ei_stream routes were hit: open, frames, index, delete.
  EXPECT_EQ(after.at("requests").at("stream_requests").as_number(), 4.0);
}

}  // namespace
}  // namespace openei::stream
