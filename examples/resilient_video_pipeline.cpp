// Resilient video pipeline — the Sec. IV-C availability requirements in one
// runnable scenario: a camera streams frames into an edge node through
// POST /ei_stream, where the package manager's streaming runtime classifies
// them under a bounded frame queue; then the detection API's upstream turns
// flaky and a degrading client falls back to its local copy of the model
// instead of surfacing errors.  (Replica failover and failback through the
// fleet router are shown by examples/fleet_failover.)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collab/cloud_edge.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "net/faults.h"
#include "data/metrics.h"
#include "data/synthetic.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/train.h"
#include "nn/zoo.h"

using namespace openei;

namespace {

/// Row `i` of `set` as a JSON feature array.
std::string feature_row(const data::Dataset& set, std::size_t i) {
  std::string row = "[";
  for (std::size_t f = 0; f < set.features.shape().dim(1); ++f) {
    if (f > 0) row += ",";
    row += std::to_string(set.features.at2(i, f));
  }
  return row + "]";
}

}  // namespace

int main() {
  std::printf("=== resilient video pipeline: streaming + degradation ===\n\n");

  // Train one detector; the camera node, the upstream and the degrading
  // client's local fallback all carry identical weights.
  common::Rng rng(29);
  auto frames = data::make_blobs(500, 16, 3, rng);
  auto [train, test] = data::train_test_split(frames, 0.8, rng);
  common::Rng model_rng(30);
  nn::Model detector = nn::zoo::make_mlp("detector", 16, 3, {24}, model_rng);
  nn::TrainOptions topt;
  topt.epochs = 20;
  topt.sgd.learning_rate = 0.05F;
  topt.sgd.momentum = 0.9F;
  nn::fit(detector, train, topt);
  double accuracy = nn::evaluate_accuracy(detector, test);

  // 1. Streaming half: a camera pushes its frames in bursts of 10 into a
  // blocking frame queue on the Pi; the session's worker classifies them.
  core::EdgeNode camera_node(core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                                                  hwsim::openei_package(), 4096});
  camera_node.deploy_model("safety", "detection", detector.clone(), accuracy);
  auto opened = camera_node.call(
      "POST", "/ei_stream?scenario=safety&algorithm=detection&policy=block"
              "&capacity=32");
  std::string id = common::Json::parse(opened.body).at("stream").as_string();
  std::printf("stream %s opened on %s (status %d)\n", id.c_str(),
              camera_node.device().name.c_str(), opened.status);

  constexpr std::size_t kBurst = 10;
  for (std::size_t start = 0; start < test.size(); start += kBurst) {
    std::string body = "[";
    for (std::size_t i = start; i < std::min(start + kBurst, test.size()); ++i) {
      if (i > start) body += ",";
      body += feature_row(test, i);
    }
    camera_node.call("POST", "/ei_stream/" + id + "/frames", body + "]");
  }

  // Results arrive asynchronously; under kBlock, seq is the frame index + 1.
  std::map<std::size_t, std::size_t> by_seq;
  double worst_wait_s = 0.0;
  double sim_latency_s = 0.0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (by_seq.size() < test.size() &&
         std::chrono::steady_clock::now() < deadline) {
    common::Json polled = common::Json::parse(
        camera_node.call("GET", "/ei_stream/" + id + "/results").body);
    for (const common::Json& row : polled.at("results").as_array()) {
      by_seq[static_cast<std::size_t>(row.at("seq").as_int())] =
          static_cast<std::size_t>(row.at("prediction").as_int());
      worst_wait_s = std::max(worst_wait_s, row.at("queue_wait_s").as_number());
      sim_latency_s = row.at("sim_latency_s").as_number();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::size_t> predictions;
  for (const auto& [seq, prediction] : by_seq) predictions.push_back(prediction);
  common::Json closed =
      common::Json::parse(camera_node.call("DELETE", "/ei_stream/" + id).body);
  std::printf("device sustains %.0f fps per stream (camera: 30 fps)\n",
              sim_latency_s > 0.0 ? 1.0 / sim_latency_s : 0.0);
  std::printf("delivered %zu/%zu frames (dropped %.0f); stream accuracy %.3f; "
              "worst frame waited %.2f ms in the queue\n\n",
              predictions.size(), test.size(),
              closed.at("queue").at("dropped_deadline").as_number() +
                  closed.at("queue").at("dropped_policy").as_number(),
              predictions.size() == test.size()
                  ? data::accuracy(predictions, test.labels)
                  : 0.0,
              1e3 * worst_wait_s);
  if (predictions.size() != test.size()) return 1;  // a frame went missing

  // 2. Degradation half: the detection API's upstream is a *flaky* node — a
  // seeded FaultPlan batters the detection route with 5xx bursts, mid-stream
  // resets and latency spikes while a degrading client falls back to its
  // local copy of the detector instead of surfacing errors to the caller.
  std::printf("!! upstream serves under a deterministic fault plan\n");
  core::EdgeNode upstream(core::EdgeNodeConfig{hwsim::jetson_tx2(),
                                               hwsim::openei_package(), 64});
  upstream.deploy_model("safety", "detection", detector.clone(), accuracy);
  auto plan = std::make_shared<net::FaultPlan>(97);
  plan->add({.path_prefix = "/ei_algorithms",
             .kind = net::FaultKind::kErrorBurst,
             .probability = 0.35})
      .add({.path_prefix = "/ei_algorithms",
            .kind = net::FaultKind::kResetMidStream,
            .probability = 0.25})
      .add({.path_prefix = "/ei_algorithms",
            .kind = net::FaultKind::kInjectDelay,
            .probability = 0.2,
            .delay_s = 0.01});
  net::HttpServer::Options faulty;
  faulty.faults = plan;
  std::uint16_t flaky_port = upstream.start_server(0, faulty);

  net::ResilientClient::Options copts;
  copts.deadline_s = 0.5;
  copts.retry.max_attempts = 2;
  copts.retry.initial_backoff_s = 0.002;
  copts.breaker.failure_threshold = 3;
  copts.breaker.open_duration_s = 0.02;
  collab::ResilientCloudEdge degrading(
      flaky_port, "/ei_algorithms/safety/detection", detector.clone(),
      hwsim::openei_package(), hwsim::raspberry_pi_4(), copts);

  std::size_t cloud_ok = 0;
  std::size_t degraded = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    try {
      auto outcome = degrading.classify(feature_row(test, i));
      if (outcome.status != 200) {
        ++failed;
      } else if (outcome.served_by == "cloud") {
        ++cloud_ok;
      } else {
        ++degraded;
      }
    } catch (const std::exception&) {
      ++failed;
    }
  }
  std::printf("30 frames under faults (%zu/%zu upstream requests faulted):\n",
              plan->injected_count(), plan->request_count());
  std::printf("  served by cloud: %zu, degraded to local: %zu, failed: %zu\n",
              cloud_ok, degraded, failed);
  std::printf("  cloud breaker now: %s\n",
              net::to_string(degrading.cloud_circuit_state()));

  upstream.stop_server();
  std::printf("\n=== resilient pipeline example complete ===\n");
  return 0;
}
