// Tests for the parallel compute substrate: thread pool / parallel_for
// semantics, bit-identical parallel-vs-serial kernels (GEMM, conv, a full
// training step), batched inference, and the micro-batching queue.  These
// are the tests the CI TSan leg runs specifically to catch data races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "runtime/batcher.h"
#include "runtime/inference.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"

namespace openei {
namespace {

using common::Rng;
using tensor::Shape;
using tensor::Tensor;

/// Restores the previous thread count when a test scope ends, so tests do
/// not leak their parallelism configuration into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : previous_(common::thread_count()) {
    common::set_thread_count(n);
  }
  ~ScopedThreads() { common::set_thread_count(previous_); }

 private:
  std::size_t previous_;
};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedThreads threads(4);
  std::vector<std::atomic<int>> hits(10000);
  common::parallel_for(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/16);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForTest, EmptyAndSingleElementRanges) {
  ScopedThreads threads(4);
  int calls = 0;
  common::parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::size_t seen_lo = 99, seen_hi = 0;
  common::parallel_for(7, 8, [&](std::size_t lo, std::size_t hi) {
    seen_lo = lo;
    seen_hi = hi;
  });
  EXPECT_EQ(seen_lo, 7U);
  EXPECT_EQ(seen_hi, 8U);
}

TEST(ParallelForTest, PropagatesExceptionFromWorkerChunk) {
  ScopedThreads threads(4);
  EXPECT_THROW(
      common::parallel_for(
          0, 10000,
          [](std::size_t lo, std::size_t) {
            if (lo > 0) throw InvalidArgument("boom in worker chunk");
          },
          /*grain=*/16),
      InvalidArgument);
  // The pool must stay usable after an exception.
  std::atomic<std::size_t> count{0};
  common::parallel_for(
      0, 1000,
      [&](std::size_t lo, std::size_t hi) { count.fetch_add(hi - lo); },
      /*grain=*/16);
  EXPECT_EQ(count.load(), 1000U);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ScopedThreads threads(4);
  std::atomic<std::size_t> total{0};
  common::parallel_for(
      0, 64,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          common::parallel_for(
              0, 8,
              [&](std::size_t ilo, std::size_t ihi) {
                total.fetch_add(ihi - ilo);
              },
              /*grain=*/1);
        }
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 64U * 8U);
}

TEST(ParallelForTest, ThreadCountKnobRoundTrips) {
  ScopedThreads scope(3);
  EXPECT_EQ(common::thread_count(), 3U);
  common::set_thread_count(1);
  EXPECT_EQ(common::thread_count(), 1U);
}

TEST(ParallelForTest, ParsesThreadEnvValues) {
  EXPECT_EQ(common::parse_thread_env("4", 8), 4U);
  EXPECT_EQ(common::parse_thread_env("1", 8), 1U);
  EXPECT_EQ(common::parse_thread_env(nullptr, 8), 8U);
  EXPECT_EQ(common::parse_thread_env("", 8), 8U);
  EXPECT_EQ(common::parse_thread_env("0", 8), 8U);
  EXPECT_EQ(common::parse_thread_env("banana", 8), 8U);
  EXPECT_EQ(common::parse_thread_env("4x", 8), 8U);
}

/// Reference naive i-k-j GEMM the exact scalar path must reproduce bitwise.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  std::size_t m = a.shape().dim(0);
  std::size_t k = a.shape().dim(1);
  std::size_t n = b.shape().dim(1);
  Tensor out(Shape{m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      float a_ip = a.at2(i, p);
      if (a_ip == 0.0F) continue;
      for (std::size_t j = 0; j < n; ++j) {
        out.at2(i, j) += a_ip * b.at2(p, j);
      }
    }
  }
  return out;
}

TEST(GemmTest, ReferenceGemmMatchesNaiveBitwise) {
  Rng rng(11);
  // Odd sizes cross the k-block boundary and leave a tail row for the
  // two-row register kernel.
  Tensor a = Tensor::random_normal(Shape{37, 301}, rng);
  Tensor b = Tensor::random_normal(Shape{301, 53}, rng);
  ScopedThreads serial(1);
  Tensor ref(Shape{37, 53});
  tensor::gemm_ref(a.data().data(), b.data().data(), ref.data().data(), 37,
                   301, 53);
  EXPECT_EQ(ref, naive_matmul(a, b));
}

TEST(GemmTest, DispatchedGemmMatchesNaiveWithinTolerance) {
  Rng rng(11);
  Tensor a = Tensor::random_normal(Shape{37, 301}, rng);
  Tensor b = Tensor::random_normal(Shape{301, 53}, rng);
  ScopedThreads serial(1);
  Tensor naive = naive_matmul(a, b);
  Tensor fast = tensor::matmul(a, b);
  // FMA contraction reassociates nothing but fuses rounding steps: the
  // dispatched kernels agree with exact math to normal accumulation error.
  ASSERT_EQ(fast.shape(), naive.shape());
  for (std::size_t i = 0; i < fast.elements(); ++i) {
    EXPECT_NEAR(fast[i], naive[i], 1e-3F) << "at flat index " << i;
  }
}

TEST(GemmTest, ParallelAndSerialGemmBitIdentical) {
  Rng rng(12);
  Tensor a = Tensor::random_normal(Shape{64, 96}, rng);
  Tensor b = Tensor::random_normal(Shape{96, 80}, rng);
  Tensor serial_result, parallel_result;
  {
    ScopedThreads threads(1);
    serial_result = tensor::matmul(a, b);
  }
  {
    ScopedThreads threads(4);
    parallel_result = tensor::matmul(a, b);
  }
  EXPECT_EQ(serial_result, parallel_result);
}

TEST(GemmTest, ParallelAndSerialConvBitIdentical) {
  Rng rng(13);
  tensor::Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 8;
  spec.kernel = 3;
  spec.padding = 1;
  Tensor input = Tensor::random_normal(Shape{6, 3, 12, 12}, rng);
  Tensor weights = Tensor::random_normal(Shape{8, 3, 3, 3}, rng);
  Tensor bias = Tensor::random_normal(Shape{8}, rng);

  Tensor serial_result, parallel_result;
  {
    ScopedThreads threads(1);
    serial_result = tensor::conv2d_im2col(input, weights, bias, spec);
  }
  {
    ScopedThreads threads(4);
    parallel_result = tensor::conv2d_im2col(input, weights, bias, spec);
  }
  EXPECT_EQ(serial_result, parallel_result);
  // And the im2col path still agrees with direct convolution numerically.
  EXPECT_TRUE(
      parallel_result.all_close(tensor::conv2d(input, weights, bias, spec), 1e-3F));
}

/// Trains the same conv+batchnorm model serially and in parallel; every
/// parameter must come out bit-identical for the determinism contract to
/// hold through a full forward+backward+update step.
TEST(GemmTest, ParallelAndSerialTrainStepBitIdentical) {
  auto train_once = [] {
    Rng rng(14);
    nn::zoo::ImageSpec spec;
    spec.channels = 3;
    spec.size = 8;
    spec.classes = 3;
    nn::Model model = nn::zoo::make_mini_vgg(spec, rng);
    Rng data_rng(15);
    auto dataset = data::make_images(60, spec.channels, spec.size,
                                     spec.classes, data_rng);
    nn::TrainOptions options;
    options.epochs = 1;
    options.batch_size = 16;
    nn::fit(model, dataset, options);
    return model;
  };

  nn::Model serial_model = [&] {
    ScopedThreads threads(1);
    return train_once();
  }();
  nn::Model parallel_model = [&] {
    ScopedThreads threads(4);
    return train_once();
  }();

  auto serial_params = serial_model.parameters();
  auto parallel_params = parallel_model.parameters();
  ASSERT_EQ(serial_params.size(), parallel_params.size());
  for (std::size_t i = 0; i < serial_params.size(); ++i) {
    EXPECT_EQ(*serial_params[i], *parallel_params[i]) << "parameter " << i;
  }
}

runtime::InferenceSession make_session(Rng& rng) {
  nn::Model model = nn::zoo::make_mlp("batch_test", 8, 3, {16}, rng);
  return runtime::InferenceSession(std::move(model), hwsim::openei_package(),
                                   hwsim::raspberry_pi_4());
}

TEST(PredictBatchTest, FusedBatchMatchesIndividualRuns) {
  Rng rng(20);
  runtime::InferenceSession session = make_session(rng);
  std::vector<Tensor> requests;
  for (std::size_t i = 0; i < 5; ++i) {
    requests.push_back(Tensor::random_normal(Shape{1 + i % 3, 8}, rng));
  }

  std::vector<runtime::InferenceResult> fused = session.predict_batch(requests);
  ASSERT_EQ(fused.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    runtime::InferenceResult solo = session.run(requests[i]);
    EXPECT_EQ(fused[i].predictions, solo.predictions) << "request " << i;
    EXPECT_DOUBLE_EQ(fused[i].batch_latency_s, solo.batch_latency_s);
    EXPECT_DOUBLE_EQ(fused[i].batch_energy_j, solo.batch_energy_j);
  }
}

TEST(PredictBatchTest, RejectsMismatchedSampleShape) {
  Rng rng(21);
  runtime::InferenceSession session = make_session(rng);
  EXPECT_THROW(session.predict_batch({Tensor(Shape{2, 7})}), InvalidArgument);
  EXPECT_THROW(session.predict_batch({}), InvalidArgument);
}

TEST(PredictBatchTest, ConcurrentCallersMatchSerialWithoutAllocating) {
  // run_rows callers and a predict_batch caller hit one session at once.
  // Each runs on an arena of its own from the session's pool, so every
  // answer matches the serial reference and no caller allocates tensors.
  Rng rng(24);
  runtime::InferenceSession session(
      nn::zoo::make_mlp("shared", 16, 5, {64, 32}, rng),
      hwsim::openei_package(), hwsim::raspberry_pi_4());
  constexpr std::size_t kRowThreads = 4;
  constexpr std::size_t kRows = 3;
  constexpr int kRounds = 200;
  std::vector<Tensor> inputs;
  for (std::size_t t = 0; t < kRowThreads; ++t) {
    inputs.push_back(Tensor::random_normal(Shape{kRows, 16}, rng));
  }
  std::vector<Tensor> batch_requests{Tensor::random_normal(Shape{2, 16}, rng),
                                     Tensor::random_normal(Shape{4, 16}, rng)};
  // Serial reference; it also warms the first arena and its fused staging.
  std::vector<std::vector<std::size_t>> expected;
  for (const Tensor& input : inputs) {
    expected.push_back(session.run(input).predictions);
  }
  for (const runtime::InferenceResult& result :
       session.predict_batch(batch_requests)) {
    expected.push_back(result.predictions);
  }

  std::atomic<bool> go{false};
  std::vector<std::uint64_t> allocations(kRowThreads + 1, 0);
  std::vector<int> mismatches(kRowThreads + 1, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kRowThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      tensor::AllocationTrackingScope scope;
      for (int round = 0; round < kRounds; ++round) {
        runtime::InferenceResult result =
            session.run_rows(inputs[t].data().data(), kRows);
        if (result.predictions != expected[t]) ++mismatches[t];
      }
      allocations[t] = scope.stats().allocations;
    });
  }
  threads.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    tensor::AllocationTrackingScope scope;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<runtime::InferenceResult> results =
          session.predict_batch(batch_requests);
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].predictions != expected[kRowThreads + i]) {
          ++mismatches[kRowThreads];
        }
      }
    }
    allocations[kRowThreads] = scope.stats().allocations;
  });
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t <= kRowThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_EQ(allocations[t], 0U) << "thread " << t;
  }
}

TEST(MicroBatcherTest, FlushesOnTimeoutWithoutFillingBatch) {
  Rng rng(22);
  auto session = std::make_shared<runtime::InferenceSession>(make_session(rng));
  runtime::MicroBatcher::Options options;
  options.max_batch_rows = 64;  // never filled by one request
  options.max_wait_s = 0.02;
  options.eager_when_idle = false;
  runtime::MicroBatcher batcher(session, options);

  Tensor request = Tensor::random_normal(Shape{2, 8}, rng);
  auto future = batcher.submit(request);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(future.get().predictions, session->run(request).predictions);
}

TEST(MicroBatcherTest, CoalescesConcurrentSubmissionsIntoOneFlush) {
  Rng rng(23);
  auto session = std::make_shared<runtime::InferenceSession>(make_session(rng));
  auto metrics = std::make_shared<runtime::BatcherMetrics>();
  runtime::MicroBatcher::Options options;
  options.max_batch_rows = 8;
  options.max_wait_s = 0.5;  // rely on the fill trigger, not the timeout
  options.eager_when_idle = false;
  runtime::MicroBatcher batcher(session, options, metrics);

  std::vector<Tensor> requests;
  for (std::size_t i = 0; i < 8; ++i) {
    requests.push_back(Tensor::random_normal(Shape{1, 8}, rng));
  }
  std::vector<std::future<runtime::InferenceResult>> futures;
  for (const Tensor& request : requests) {
    futures.push_back(batcher.submit(request));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    runtime::InferenceResult result = futures[i].get();
    EXPECT_EQ(result.predictions, session->run(requests[i]).predictions)
        << "request " << i;
  }
  EXPECT_GE(metrics->max_fused_rows.load(), 2U);
  EXPECT_GT(metrics->fused_requests.load(), 0U);
  EXPECT_LT(metrics->flushes.load(), 8U);
}

TEST(MicroBatcherTest, DrainsPendingRequestsOnDestruction) {
  Rng rng(24);
  auto session = std::make_shared<runtime::InferenceSession>(make_session(rng));
  runtime::MicroBatcher::Options options;
  options.max_batch_rows = 128;
  options.max_wait_s = 30.0;  // destructor, not the timeout, must flush
  options.eager_when_idle = false;

  std::vector<std::future<runtime::InferenceResult>> futures;
  {
    runtime::MicroBatcher batcher(session, options);
    for (std::size_t i = 0; i < 3; ++i) {
      futures.push_back(
          batcher.submit(Tensor::random_normal(Shape{1, 8}, rng)));
    }
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().predictions.size(), 1U);
  }
}

TEST(MicroBatcherTest, ShapeErrorReportedThroughFuture) {
  Rng rng(25);
  auto session = std::make_shared<runtime::InferenceSession>(make_session(rng));
  runtime::MicroBatcher batcher(session, runtime::MicroBatcher::Options{});
  auto future = batcher.submit(Tensor(Shape{2, 7}));  // model expects 8 wide
  EXPECT_THROW(future.get(), InvalidArgument);
}

TEST(MicroBatcherTest, ManyThreadsHammeringOneBatcher) {
  ScopedThreads pool(4);
  Rng rng(26);
  auto session = std::make_shared<runtime::InferenceSession>(make_session(rng));
  runtime::MicroBatcher::Options options;
  options.max_batch_rows = 4;
  options.max_wait_s = 0.001;
  runtime::MicroBatcher batcher(session, options);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 16;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> ok{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng local_rng(100 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Tensor request = Tensor::random_normal(Shape{1, 8}, local_rng);
        auto expected = session->run(request).predictions;
        if (batcher.submit(std::move(request)).get().predictions == expected) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
}

}  // namespace
}  // namespace openei
