// MicroBatcher edge cases: strict zero-timeout batching, destruction racing
// live submitters, the single-request eager path, and agreement between the
// queue-wait trace attributes and the /ei_status batching counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/zoo.h"
#include "obs/trace.h"
#include "runtime/batcher.h"
#include "runtime/inference.h"

namespace openei::runtime {
namespace {

std::shared_ptr<InferenceSession> make_session(std::size_t features = 4,
                                               std::size_t classes = 3) {
  common::Rng rng(5);
  nn::Model model =
      nn::zoo::make_mlp("edge_model", features, classes, {8}, rng);
  return std::make_shared<InferenceSession>(
      std::move(model), hwsim::openei_package(), hwsim::raspberry_pi_4());
}

nn::Tensor make_rows(std::size_t rows, std::size_t features = 4,
                     float scale = 1.0F) {
  nn::Tensor batch{tensor::Shape{rows, features}};
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < features; ++f) {
      batch.at2(r, f) = scale * static_cast<float>(r * features + f) * 0.1F;
    }
  }
  return batch;
}

TEST(BatcherEdges, SingleRequestEagerPathCompletesImmediately) {
  auto session = make_session();
  MicroBatcher::Options options;  // eager_when_idle = true (service default)
  auto metrics = std::make_shared<BatcherMetrics>();
  MicroBatcher batcher(session, options, metrics);

  InferenceResult fused = batcher.submit(make_rows(1)).get();
  InferenceResult solo = session->run(make_rows(1));
  ASSERT_EQ(fused.predictions.size(), 1u);
  EXPECT_EQ(fused.predictions, solo.predictions);
  EXPECT_EQ(metrics->flushes.load(), 1u);
  EXPECT_EQ(metrics->requests.load(), 1u);
  // A lone eager request is not "fused" with anyone.
  EXPECT_EQ(metrics->fused_requests.load(), 0u);
}

TEST(BatcherEdges, ZeroTimeoutStrictModeStillFlushesEveryRequest) {
  // max_wait_s = 0 in strict (non-eager) mode must degrade to "flush as soon
  // as the flush thread wakes", not spin or deadlock on an already-expired
  // deadline.
  auto session = make_session();
  MicroBatcher::Options options;
  options.eager_when_idle = false;
  options.max_wait_s = 0.0;
  options.max_batch_rows = 64;
  MicroBatcher batcher(session, options);

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(batcher.submit(make_rows(2)));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().predictions.size(), 2u);
  }
}

TEST(BatcherEdges, StrictModeWaitsForFillOrTimeout) {
  auto session = make_session();
  MicroBatcher::Options options;
  options.eager_when_idle = false;
  options.max_wait_s = 10.0;      // effectively "never" within this test
  options.max_batch_rows = 4;     // ...so only fill triggers the flush
  auto metrics = std::make_shared<BatcherMetrics>();
  MicroBatcher batcher(session, options, metrics);

  auto first = batcher.submit(make_rows(2));
  // The queue holds 2 of 4 rows; nothing may flush yet.
  EXPECT_EQ(first.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  auto second = batcher.submit(make_rows(2));  // fills the batch
  EXPECT_EQ(first.get().predictions.size(), 2u);
  EXPECT_EQ(second.get().predictions.size(), 2u);
  EXPECT_EQ(metrics->flushes.load(), 1u);       // one fused forward
  EXPECT_EQ(metrics->fused_requests.load(), 2u);
  EXPECT_EQ(metrics->max_fused_rows.load(), 4u);
}

TEST(BatcherEdges, FusedResultsAreBitIdenticalToSoloRuns) {
  auto session = make_session();
  MicroBatcher::Options options;
  options.eager_when_idle = false;
  options.max_wait_s = 10.0;
  options.max_batch_rows = 6;
  MicroBatcher batcher(session, options);

  auto a = batcher.submit(make_rows(3, 4, 1.0F));
  auto b = batcher.submit(make_rows(3, 4, -2.0F));
  InferenceResult fused_a = a.get();
  InferenceResult fused_b = b.get();
  EXPECT_EQ(fused_a.predictions, session->run(make_rows(3, 4, 1.0F)).predictions);
  EXPECT_EQ(fused_b.predictions, session->run(make_rows(3, 4, -2.0F)).predictions);
}

TEST(BatcherEdges, DestructionDrainsEverySubmittedRequest) {
  // Hammer: destroy the batcher the instant the submitters stop, with the
  // queue still full of never-awaited work.  The destructor contract is
  // "drain, then stop" — every future obtained before destruction must
  // complete with a value; none may hang or be abandoned.
  auto session = make_session();
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<InferenceResult>> futures;
    std::mutex futures_mutex;
    {
      MicroBatcher::Options options;
      options.max_batch_rows = 4;
      MicroBatcher batcher(session, options);
      std::vector<std::thread> submitters;
      for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&] {
          for (int i = 0; i < 25; ++i) {
            auto f = batcher.submit(make_rows(1));
            std::lock_guard<std::mutex> lock(futures_mutex);
            futures.push_back(std::move(f));
          }
        });
      }
      for (auto& t : submitters) t.join();
    }  // ~MicroBatcher runs with up to 100 queued, unawaited requests
    ASSERT_EQ(futures.size(), 100u);
    for (auto& f : futures) {
      EXPECT_EQ(f.get().predictions.size(), 1u);
    }
  }
}

TEST(BatcherEdges, ShapeErrorPoisonsOnlyItsFlush) {
  auto session = make_session();
  MicroBatcher::Options options;
  options.eager_when_idle = false;
  options.max_wait_s = 10.0;
  options.max_batch_rows = 2;
  MicroBatcher batcher(session, options);

  auto bad = batcher.submit(make_rows(1, /*features=*/7));  // wrong width
  auto good_same_flush = batcher.submit(make_rows(1));      // rides along
  EXPECT_THROW(bad.get(), Error);
  EXPECT_THROW(good_same_flush.get(), Error);  // shared flush, shared fate

  auto next_a = batcher.submit(make_rows(1));
  auto next_b = batcher.submit(make_rows(1));
  EXPECT_EQ(next_a.get().predictions.size(), 1u);  // batcher still serves
  EXPECT_EQ(next_b.get().predictions.size(), 1u);
}

TEST(BatcherEdges, SpanAttributesMatchStatusCounters) {
  // Drive traced requests through an EdgeNode, then cross-check
  // the ei.batch span attributes against the /ei_status batching counters:
  // the span's flush accounting and the metrics sink must tell one story.
  core::EdgeNodeConfig config{hwsim::raspberry_pi_4(),
                              hwsim::openei_package(), 64, {}};
  config.service.tracing.enabled = true;
  config.service.tracing.ring_capacity = 16;
  core::EdgeNode node(std::move(config));
  common::Rng rng(5);
  node.deploy_model("safety", "detection",
                    nn::zoo::make_mlp("detector", 4, 3, {8}, rng), 0.9);
  common::JsonArray features;
  for (std::size_t f = 0; f < 4; ++f) {
    features.emplace_back(0.5 * static_cast<double>(f));
  }
  node.ingest("cam", 1.0, common::Json(std::move(features)));

  constexpr int kRequests = 5;
  double spanned_flush_requests = 0.0;
  for (int i = 0; i < kRequests; ++i) {
    auto response = node.call(
        "GET", "/ei_algorithms/safety/detection?sensor=cam&timestamp=1");
    ASSERT_EQ(response.status, 200);
    std::string trace_id =
        common::Json::parse(response.body).at("trace_id").as_string();
    common::Json trace = common::Json::parse(
        node.call("GET", "/ei_trace/" + trace_id).body);
    // root -> ei.infer (3rd child) -> ei.batch (only child).
    const common::Json& infer = trace.at("root").at("children").as_array()[2];
    ASSERT_EQ(infer.at("name").as_string(), "ei.infer");
    const common::Json& batch = infer.at("children").as_array()[0];
    ASSERT_EQ(batch.at("name").as_string(), "ei.batch");
    const common::Json& attrs = batch.at("attributes");
    EXPECT_EQ(attrs.at("batch_rows").as_number(), 1.0);
    EXPECT_GE(attrs.at("queue_wait_us").as_number(), 0.0);
    // Serial requests never share a flush, so each span must report a
    // single-request flush of exactly its own rows.
    EXPECT_EQ(attrs.at("flush_requests").as_number(), 1.0);
    EXPECT_EQ(attrs.at("flush_rows").as_number(), 1.0);
    spanned_flush_requests += attrs.at("flush_requests").as_number();
  }

  common::Json status =
      common::Json::parse(node.call("GET", "/ei_status").body);
  const common::Json& batching = status.at("batching");
  // One flush per serial request; none fused; the largest fused batch is a
  // single row — in exact agreement with every span above.
  EXPECT_EQ(batching.at("flushes").as_number(),
            static_cast<double>(kRequests));
  EXPECT_EQ(batching.at("coalesced_requests").as_number(), 0.0);
  EXPECT_EQ(batching.at("max_fused_rows").as_number(), 1.0);
  EXPECT_EQ(spanned_flush_requests, static_cast<double>(kRequests));
}

}  // namespace
}  // namespace openei::runtime
