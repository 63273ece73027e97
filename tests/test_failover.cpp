// Tests for the libei inference-session cache: redeploy invalidation and
// concurrent callers sharing one warm session.  Replica failover is tested
// on fleet::Router in test_fleet.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.h"
#include "core/edge_node.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/zoo.h"
#include "runtime/session_cache.h"

namespace openei::core {
namespace {

using common::Rng;

TEST(SessionCacheTest, RepeatCallsReuseCacheAndRedeployInvalidates) {
  Rng rng(4);
  EdgeNode node(EdgeNodeConfig{hwsim::raspberry_pi_4(),
                               hwsim::openei_package(), 32});
  Rng m1(5);
  node.deploy_model("home", "monitor", nn::zoo::make_mlp("m", 4, 2, {8}, m1),
                    0.9);

  std::string target = "/ei_algorithms/home/monitor?input=[1,2,3,4]";
  auto first = node.call("GET", target);
  ASSERT_EQ(first.status, 200);
  auto again = node.call("GET", target);
  EXPECT_EQ(again.body, first.body);

  // Redeploy under the same name with different weights; the cache must not
  // serve the stale session.
  Rng m2(6);
  node.deploy_model("home", "monitor", nn::zoo::make_mlp("m", 4, 2, {8}, m2),
                    0.9);
  auto fresh = node.call("GET", target);
  ASSERT_EQ(fresh.status, 200);
  // ALEM/latency metadata identical but predictions may change; at minimum
  // the call still works and reflects the *new* registry version.
  common::Json doc = common::Json::parse(fresh.body);
  EXPECT_EQ(doc.at("model").as_string(), "m");
}

TEST(SessionCacheTest, SessionSharesTheRegistryModel) {
  // A cold miss builds its session over the registry entry's own model, not
  // a copy, and the session keeps that snapshot alive past an erase.
  Rng rng(8);
  runtime::ModelRegistry registry;
  registry.put(
      {"home", "monitor", nn::zoo::make_mlp("m", 4, 2, {8}, rng), 0.9});
  runtime::SessionCache cache(registry, hwsim::openei_package(),
                              hwsim::raspberry_pi_4(), {});
  runtime::SessionCache::Lease lease = cache.acquire("m");
  EXPECT_EQ(&lease.session->model(), &registry.get("m")->model);

  nn::Tensor row(tensor::Shape{1, 4});
  std::vector<std::size_t> before = lease.session->run(row).predictions;
  std::shared_ptr<runtime::InferenceSession> session = lease.session;
  lease = {};
  cache.clear();
  ASSERT_TRUE(registry.erase("m"));
  EXPECT_EQ(session->model().name(), "m");
  EXPECT_EQ(session->run(row).predictions, before);
}

TEST(SessionCacheTest, ConcurrentAlgorithmCallsShareOneSessionSafely) {
  // Hammer one node's algorithm route from several clients at once: the
  // shared cached session must produce identical, correct results with no
  // crashes (inference-mode forward is read-only).
  Rng rng(7);
  EdgeNode node(EdgeNodeConfig{hwsim::jetson_tx2(),
                               hwsim::openei_package(), 32});
  node.deploy_model("safety", "detection",
                    nn::zoo::make_mlp("det", 6, 3, {16}, rng), 0.9);
  auto port = node.start_server(0);

  std::string target = "/ei_algorithms/safety/detection?input=[1,2,3,4,5,6]";
  std::string expected = node.call("GET", target).body;

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, port] {
      net::HttpClient client(port);
      for (int i = 0; i < 25; ++i) {
        auto response = client.get(target);
        if (response.status != 200) {
          ++failures;
        } else if (response.body != expected) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  node.stop_server();
}

}  // namespace
}  // namespace openei::core
