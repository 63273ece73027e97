// End-to-end model lifecycle suite (label: lifecycle): hot-swap, rollback,
// undeploy over the REST API; LRU eviction + bit-identical reload; admission
// control's documented 503; the warm-path zero-copy guarantee; and a
// swap-under-load stress meant to run first under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/edge_node.h"
#include "hwsim/cost_model.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "net/faults.h"
#include "net/http.h"
#include "net/resilient_client.h"
#include "net/socket.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "runtime/inference.h"
#include "runtime/session_cache.h"
#include "tensor/tensor.h"

namespace openei::libei {
namespace {

using common::Json;
using common::Rng;

constexpr std::size_t kFeatures = 8;
constexpr std::size_t kClasses = 3;
constexpr const char* kInput =
    "?input=[[1,2,3,4,5,6,7,8],[8,7,6,5,4,3,2,1]]";

/// A model that deterministically predicts `winner` for every input: all
/// parameters zeroed, output bias one-hot.  Lets swap/rollback/evict tests
/// read which deployment version served a request straight off the
/// predictions, with zero training or flakiness.
nn::Model make_constant_model(const std::string& name, std::size_t winner) {
  Rng rng(99);
  nn::Model model = nn::zoo::make_mlp(name, kFeatures, kClasses, {4}, rng);
  for (nn::Tensor* param : model.parameters()) *param *= 0.0F;
  model.parameters().back()->data()[winner] = 1.0F;
  return model;
}

core::EdgeNodeConfig base_config() {
  core::EdgeNodeConfig config{hwsim::raspberry_pi_4(), hwsim::openei_package(),
                              64};
  return config;
}

std::vector<std::size_t> predictions_of(const net::HttpResponse& response) {
  Json doc = Json::parse(response.body);  // keep alive while iterating
  std::vector<std::size_t> out;
  for (const Json& p : doc.at("predictions").as_array()) {
    out.push_back(static_cast<std::size_t>(p.as_int()));
  }
  return out;
}

TEST(LifecycleZeroCopyTest, WarmRequestsPerformZeroTensorAllocations) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 1), 0.9);

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  // Warm-up: materializes the session (one model clone) and its batcher;
  // everything after is steady state.
  ASSERT_EQ(node.call("GET", target).status, 200);

  for (int i = 0; i < 5; ++i) {
    tensor::AllocationTrackingScope scope;
    net::HttpResponse response = node.call("GET", target);
    EXPECT_EQ(response.status, 200);
    // Exactly one tensor allocation on the handler thread: the input rows
    // queued for the micro-batcher.  A model deep copy would allocate every
    // parameter tensor; the forward pass runs on the flush thread's arena.
    EXPECT_EQ(scope.stats().allocations, 1U)
        << "warm request " << i << " allocated extra tensor memory";
    EXPECT_EQ(predictions_of(response), (std::vector<std::size_t>{1, 1}));
  }

  runtime::SessionCache::Stats stats = node.service().lifecycle().stats();
  EXPECT_EQ(stats.misses, 1U);   // exactly one materialization
  EXPECT_GE(stats.hits, 5U);
  EXPECT_EQ(stats.resident_sessions, 1U);
  auto residents = node.service().lifecycle().resident_info();
  ASSERT_EQ(residents.size(), 1U);
  EXPECT_GT(residents[0].bytes, 0U);
}

TEST(LifecycleSwapTest, InFlightLeasePinsOldVersionAcrossHotSwap) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  EXPECT_EQ(predictions_of(node.call("GET", target)),
            (std::vector<std::size_t>{0, 0}));

  // Pin the v1 snapshot the way an in-flight request does.
  runtime::SessionCache::Lease lease =
      node.service().lifecycle().acquire("det");

  std::string v2_body = nn::model_to_json(make_constant_model("det", 2)).dump();
  net::HttpResponse swap = node.call(
      "POST", "/ei_models?scenario=safety&algorithm=detection&accuracy=0.8",
      v2_body);
  ASSERT_EQ(swap.status, 201);
  EXPECT_TRUE(Json::parse(swap.body).at("swapped").as_bool());

  // New requests see v2...
  EXPECT_EQ(predictions_of(node.call("GET", target)),
            (std::vector<std::size_t>{2, 2}));
  // ...while the pinned lease still computes v1's outputs.
  nn::Tensor batch = runtime::rows_to_batch(
      Json::parse("[[1,2,3,4,5,6,7,8]]"), lease.session->model().input_shape());
  EXPECT_EQ(lease.session->run(batch).predictions,
            (std::vector<std::size_t>{0}));
  EXPECT_DOUBLE_EQ(lease.entry->accuracy, 0.9);

  runtime::SessionCache::Stats stats = node.service().lifecycle().stats();
  EXPECT_EQ(stats.invalidations, 1U);  // v1 session retired on first v2 hit
}

TEST(LifecycleEvictionTest, EvictedModelReloadsBitIdentical) {
  nn::Model model_a = make_constant_model("det_a", 0);
  nn::Model model_b = make_constant_model("det_b", 1);

  core::EdgeNodeConfig config = base_config();
  // Budget fits exactly one resident session: every switch between the two
  // models forces an LRU eviction + cold reload.
  std::size_t session_bytes =
      hwsim::estimate_inference(model_a, config.package, config.device)
          .memory_bytes;
  config.service.lifecycle.budget_bytes = session_bytes + session_bytes / 2;
  core::EdgeNode node(config);
  node.deploy_model("safety", "detect_a", std::move(model_a), 0.9);
  node.deploy_model("safety", "detect_b", std::move(model_b), 0.9);

  const std::string target_a =
      std::string("/ei_algorithms/safety/detect_a") + kInput;
  const std::string target_b =
      std::string("/ei_algorithms/safety/detect_b") + kInput;

  net::HttpResponse first = node.call("GET", target_a);
  ASSERT_EQ(first.status, 200);
  EXPECT_EQ(node.call("GET", target_a).body, first.body);  // warm hit

  net::HttpResponse other = node.call("GET", target_b);  // evicts det_a
  ASSERT_EQ(other.status, 200);
  EXPECT_EQ(predictions_of(other), (std::vector<std::size_t>{1, 1}));

  runtime::SessionCache::Stats stats = node.service().lifecycle().stats();
  EXPECT_EQ(stats.evictions, 1U);
  EXPECT_EQ(stats.resident_sessions, 1U);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);

  // Cold reload after eviction answers bit-identically to the first serve.
  net::HttpResponse reloaded = node.call("GET", target_a);
  EXPECT_EQ(reloaded.body, first.body);
  stats = node.service().lifecycle().stats();
  EXPECT_EQ(stats.evictions, 2U);
  EXPECT_EQ(stats.misses, 3U);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);
}

TEST(LifecycleAdmissionTest, OverBudgetModelAnswers503MemoryPressure) {
  core::EdgeNodeConfig config = base_config();
  config.service.lifecycle.budget_bytes = 1;  // nothing can be admitted
  core::EdgeNode node(config);
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);

  net::HttpResponse response = node.call(
      "GET", std::string("/ei_algorithms/safety/detection") + kInput);
  ASSERT_EQ(response.status, 503);
  Json body = Json::parse(response.body);
  EXPECT_EQ(body.at("error").as_string(), "memory_pressure");
  EXPECT_EQ(body.at("model").as_string(), "det");
  EXPECT_GT(body.at("needed_bytes").as_int(), 1);
  EXPECT_EQ(body.at("budget_bytes").as_int(), 1);
  EXPECT_EQ(body.at("resident_bytes").as_int(), 0);

  runtime::SessionCache::Stats stats = node.service().lifecycle().stats();
  EXPECT_EQ(stats.admission_rejections, 1U);
  EXPECT_EQ(stats.resident_sessions, 0U);
  // The rejection reaches the observability layer too.
  EXPECT_NE(node.call("GET", "/ei_metrics").body.find(
                "ei_admission_rejections_total 1"),
            std::string::npos);
  Json status = Json::parse(node.call("GET", "/ei_status").body);
  EXPECT_EQ(status.at("lifecycle").at("admission_rejections").as_int(), 1);
}

TEST(LifecycleHttpTest, SwapRollbackUndeployOverRealHttp) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  std::uint16_t port = node.start_server(0);
  net::HttpClient client(port);

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  EXPECT_EQ(predictions_of(client.get(target)),
            (std::vector<std::size_t>{0, 0}));
  Json index = Json::parse(client.get("/ei_models").body);
  EXPECT_FALSE(
      index.at("models").as_array()[0].at("rollback_available").as_bool());

  // Rollback with nothing retained: 409, as documented.
  EXPECT_EQ(client.del("/ei_models/det?rollback=1").status, 409);

  // Hot-swap to v2 over the wire.
  std::string v2_body = nn::model_to_json(make_constant_model("det", 2)).dump();
  net::HttpResponse swap = client.post(
      "/ei_models?scenario=safety&algorithm=detection&accuracy=0.8", v2_body);
  ASSERT_EQ(swap.status, 201);
  EXPECT_TRUE(Json::parse(swap.body).at("swapped").as_bool());
  EXPECT_EQ(predictions_of(client.get(target)),
            (std::vector<std::size_t>{2, 2}));
  index = Json::parse(client.get("/ei_models").body);
  EXPECT_TRUE(
      index.at("models").as_array()[0].at("rollback_available").as_bool());

  // Rollback restores v1's outputs exactly.
  net::HttpResponse rollback = client.del("/ei_models/det?rollback=1");
  ASSERT_EQ(rollback.status, 200);
  EXPECT_EQ(Json::parse(rollback.body).at("rolled_back").as_string(), "det");
  EXPECT_EQ(predictions_of(client.get(target)),
            (std::vector<std::size_t>{0, 0}));
  // The prior slot emptied: a second rollback fails again.
  EXPECT_EQ(client.del("/ei_models/det?rollback=1").status, 409);

  // Undeploy: the route 404s afterwards, and again on a double delete.
  EXPECT_EQ(client.del("/ei_models/det").status, 200);
  EXPECT_EQ(client.get(target).status, 404);
  EXPECT_EQ(client.del("/ei_models/det").status, 404);
  node.stop_server();
}

TEST(LifecycleHttpTest, NodeConveniencesMirrorDeleteRoutes) {
  core::EdgeNode node(base_config());
  node.deploy_model("s", "a", make_constant_model("m", 0), 0.5);
  EXPECT_FALSE(node.rollback_model("m"));
  node.deploy_model("s", "a", make_constant_model("m", 1), 0.6);
  EXPECT_TRUE(node.rollback_model("m"));
  EXPECT_DOUBLE_EQ(node.registry().get("m")->accuracy, 0.5);
  EXPECT_TRUE(node.undeploy_model("m"));
  EXPECT_FALSE(node.undeploy_model("m"));
}

// The TSan target: client threads hammer the algorithm route while a
// deployer thread swaps, rolls back, undeploys, and redeploys the model.
// Every response must be a well-formed 200 or 404 (the model briefly does
// not exist between erase and redeploy); predictions must always belong to
// one of the deployed versions — never a torn mix.
TEST(LifecycleStressTest, ConcurrentInferenceSurvivesSwapsAndErases) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  std::string v1_body = nn::model_to_json(make_constant_model("det", 0)).dump();
  std::string v2_body = nn::model_to_json(make_constant_model("det", 2)).dump();
  const std::string deploy_target =
      "/ei_models?scenario=safety&algorithm=detection&accuracy=0.9";
  const std::string infer_target =
      std::string("/ei_algorithms/safety/detection") + kInput;

  std::atomic<bool> failed{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&node, &failed, &stop, &infer_target] {
      while (!stop.load()) {
        net::HttpResponse response = node.call("GET", infer_target);
        if (response.status == 200) {
          auto predictions = predictions_of(response);
          if (predictions.size() != 2 || predictions[0] != predictions[1] ||
              (predictions[0] != 0 && predictions[0] != 2)) {
            failed = true;
          }
        } else if (response.status != 404) {
          failed = true;
        }
        node.call("GET", "/ei_status");
      }
    });
  }

  for (int i = 0; i < 25 && !failed; ++i) {
    ASSERT_EQ(node.call("POST", deploy_target, v2_body).status, 201);  // swap
    node.call("GET", infer_target);
    if (i % 3 == 0) {
      ASSERT_EQ(node.call("DELETE", "/ei_models/det?rollback=1").status, 200);
    } else {
      ASSERT_EQ(node.call("DELETE", "/ei_models/det").status, 200);
      ASSERT_EQ(node.call("POST", deploy_target, v1_body).status, 201);
    }
  }
  stop = true;
  for (std::thread& t : clients) t.join();
  EXPECT_FALSE(failed.load());

  // Consistency after the dust settles: one current version serves.
  EXPECT_EQ(node.call("GET", infer_target).status, 200);
  runtime::SessionCache::Stats stats = node.service().lifecycle().stats();
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);
}

// --- Hot-swap atomicity under injected faults ------------------------------
//
// A swap either fully lands (registry version bumps once, new predictions
// serve) or leaves no trace (version unchanged, old predictions serve).
// Fault placement matters: kRefuseConnection and kErrorBurst fire *before*
// the handler, and a truncated upload never completes parsing — in all three
// cases the registry must be untouched.

std::uint64_t registry_version_of(net::HttpClient& client) {
  return static_cast<std::uint64_t>(Json::parse(client.get("/ei_status").body)
                                        .at("lifecycle")
                                        .at("registry_version")
                                        .as_int());
}

TEST(LifecycleFaultTest, RefusedSwapLeavesRegistryOnOldVersion) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  auto plan = std::make_shared<net::FaultPlan>(11);
  // Every POST /ei_models is refused; /ei_status and inference stay healthy.
  plan->add(net::FaultRule{"/ei_models", net::FaultKind::kRefuseConnection});
  net::HttpServer::Options server;
  server.faults = plan;
  std::uint16_t port = node.start_server(0, server);
  net::HttpClient client(port);

  std::uint64_t version = registry_version_of(client);
  std::string v2_body = nn::model_to_json(make_constant_model("det", 2)).dump();
  const std::string deploy_target =
      "/ei_models?scenario=safety&algorithm=detection&accuracy=0.8";
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(client.post(deploy_target, v2_body), openei::IoError);
  }
  EXPECT_EQ(registry_version_of(client), version);
  EXPECT_EQ(predictions_of(client.get(
                std::string("/ei_algorithms/safety/detection") + kInput)),
            (std::vector<std::size_t>{0, 0}));
  node.stop_server();
}

TEST(LifecycleFaultTest, TruncatedSwapUploadNeverReachesTheRegistry) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  net::HttpServer::Options server;
  server.read_timeout_s = 0.2;  // give up on the stalled upload quickly
  std::uint16_t port = node.start_server(0, server);
  net::HttpClient client(port);
  std::uint64_t version = registry_version_of(client);

  // A partial write: correct head, Content-Length promising more body than
  // ever arrives, then the connection dies mid-upload.
  std::string v2_body = nn::model_to_json(make_constant_model("det", 2)).dump();
  std::string head =
      "POST /ei_models?scenario=safety&algorithm=detection HTTP/1.1\r\n"
      "Host: 127.0.0.1\r\n"
      "Content-Length: " + std::to_string(v2_body.size()) + "\r\n\r\n";
  {
    net::TcpConnection torn = net::connect_local(port);
    torn.write_all(head + v2_body.substr(0, v2_body.size() / 2));
    torn.close();
  }

  EXPECT_EQ(registry_version_of(client), version);
  EXPECT_EQ(predictions_of(client.get(
                std::string("/ei_algorithms/safety/detection") + kInput)),
            (std::vector<std::size_t>{0, 0}));
  node.stop_server();
}

TEST(LifecycleFaultTest, RetriedSwapThroughFaultBurstBumpsVersionExactlyOnce) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  auto plan = std::make_shared<net::FaultPlan>(12);
  // The first two deploy attempts are served a 503 with the handler
  // bypassed; the third goes through.  The retrying client must converge on
  // exactly one version bump — transient faults never double-apply a swap.
  plan->add(net::FaultRule{"/ei_models", net::FaultKind::kErrorBurst,
                           /*probability=*/1.0, /*from_request=*/0,
                           /*until_request=*/2});
  net::HttpServer::Options server;
  server.faults = plan;
  std::uint16_t port = node.start_server(0, server);
  net::HttpClient status_client(port);
  std::uint64_t version = registry_version_of(status_client);

  net::ResilientClient::Options options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_s = 0.001;
  options.breaker.failure_threshold = 100;
  net::ResilientClient client(port, options);
  std::string v2_body = nn::model_to_json(make_constant_model("det", 2)).dump();
  net::HttpResponse swap = client.post(
      "/ei_models?scenario=safety&algorithm=detection&accuracy=0.8", v2_body);
  ASSERT_EQ(swap.status, 201);
  EXPECT_TRUE(Json::parse(swap.body).at("swapped").as_bool());
  EXPECT_EQ(client.stats().retries, 2U);

  EXPECT_EQ(registry_version_of(status_client), version + 1);
  EXPECT_EQ(predictions_of(status_client.get(
                std::string("/ei_algorithms/safety/detection") + kInput)),
            (std::vector<std::size_t>{2, 2}));
  node.stop_server();
}

TEST(LifecycleFaultTest, RollbackUnderFaultsRestoresPriorVersionOrNothing) {
  core::EdgeNode node(base_config());
  node.deploy_model("safety", "detection", make_constant_model("det", 0), 0.9);
  node.deploy_model("safety", "detection", make_constant_model("det", 2), 0.8);
  auto plan = std::make_shared<net::FaultPlan>(13);
  // Rollback attempt #0 refused (no registry change), #1 clean.
  plan->add(net::FaultRule{"/ei_models", net::FaultKind::kRefuseConnection,
                           /*probability=*/1.0, /*from_request=*/0,
                           /*until_request=*/1});
  net::HttpServer::Options server;
  server.faults = plan;
  std::uint16_t port = node.start_server(0, server);
  net::HttpClient client(port);
  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  std::uint64_t version = registry_version_of(client);

  // The faulted rollback fails in transport and must change nothing: v2
  // keeps serving.
  EXPECT_THROW(client.del("/ei_models/det?rollback=1"), openei::IoError);
  EXPECT_EQ(registry_version_of(client), version);
  EXPECT_EQ(predictions_of(client.get(target)),
            (std::vector<std::size_t>{2, 2}));

  // The retry lands: exactly one version bump, v1 serves again, and the
  // retained slot emptied (a second rollback 409s).
  EXPECT_EQ(client.del("/ei_models/det?rollback=1").status, 200);
  EXPECT_EQ(registry_version_of(client), version + 1);
  EXPECT_EQ(predictions_of(client.get(target)),
            (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(client.del("/ei_models/det?rollback=1").status, 409);
  node.stop_server();
}

}  // namespace
}  // namespace openei::libei
