// Integration tests for libei + EdgeNode: the Fig. 6 REST resource scheme
// end-to-end — in-process and over real loopback HTTP — including the full
// Sec. III-E walkthrough (camera data API -> detection algorithm API).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/edge_node.h"
#include "data/metrics.h"
#include "data/synthetic.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/serialize.h"
#include "nn/train.h"
#include "nn/zoo.h"

namespace openei::libei {
namespace {

using common::Json;
using common::Rng;

/// Node fixture: a Raspberry-Pi-class node with two detection model
/// variants (big/accurate and small/fast) and a camera sensor.
class NodeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(21);
    dataset_ = new data::Dataset(data::make_blobs(400, 8, 3, rng));
    auto [train, test] = data::train_test_split(*dataset_, 0.8, rng);
    test_ = new data::Dataset(std::move(test));

    nn::TrainOptions topt;
    topt.epochs = 20;
    topt.sgd.learning_rate = 0.05F;
    topt.sgd.momentum = 0.9F;

    node_ = new core::EdgeNode(core::EdgeNodeConfig{
        hwsim::raspberry_pi_3(), hwsim::openei_package(), 1024});

    nn::Model big = nn::zoo::make_mlp("detect_big", 8, 3, {64, 32}, rng);
    nn::fit(big, train, topt);
    double big_acc = nn::evaluate_accuracy(big, *test_);
    nn::Model small = nn::zoo::make_mlp("detect_small", 8, 3, {4}, rng);
    nn::fit(small, train, topt);
    double small_acc = nn::evaluate_accuracy(small, *test_);
    // The fixture's premise: big is more accurate, small is lighter.
    ASSERT_GT(big_acc, small_acc - 0.01);
    node_->deploy_model("safety", "detection", std::move(big), big_acc);
    node_->deploy_model("safety", "detection", std::move(small), small_acc);

    // Camera feed: payloads are 8-feature vectors.
    for (std::size_t i = 0; i < 10; ++i) {
      common::JsonArray features;
      for (std::size_t f = 0; f < 8; ++f) {
        features.emplace_back(
            static_cast<double>(test_->features.at2(i, f)));
      }
      node_->ingest("camera1", static_cast<double>(i), Json(std::move(features)));
    }
  }

  static void TearDownTestSuite() {
    delete node_;
    delete test_;
    delete dataset_;
    node_ = nullptr;
    test_ = nullptr;
    dataset_ = nullptr;
  }

  static data::Dataset* dataset_;
  static data::Dataset* test_;
  static core::EdgeNode* node_;
};

data::Dataset* NodeFixture::dataset_ = nullptr;
data::Dataset* NodeFixture::test_ = nullptr;
core::EdgeNode* NodeFixture::node_ = nullptr;

TEST_F(NodeFixture, DataRealtimeRoute) {
  auto response = node_->call("GET", "/ei_data/realtime/camera1?timestamp=3");
  ASSERT_EQ(response.status, 200);
  Json doc = Json::parse(response.body);
  EXPECT_DOUBLE_EQ(doc.at("timestamp").as_number(), 3.0);
  EXPECT_EQ(doc.at("payload").as_array().size(), 8U);
}

TEST_F(NodeFixture, DataHistoryRoute) {
  auto response = node_->call("GET", "/ei_data/history/camera1?start=2&end=5");
  ASSERT_EQ(response.status, 200);
  Json doc = Json::parse(response.body);
  EXPECT_EQ(doc.at("records").as_array().size(), 4U);
}

TEST_F(NodeFixture, DataRoutesReject) {
  EXPECT_EQ(node_->call("GET", "/ei_data/realtime/nope?timestamp=0").status, 404);
  EXPECT_EQ(node_->call("GET", "/ei_data/realtime/camera1?timestamp=99").status,
            404);
  EXPECT_EQ(node_->call("GET", "/ei_data/bogus/camera1").status, 400);
  EXPECT_EQ(node_->call("GET", "/ei_data/realtime").status, 400);
  EXPECT_EQ(node_->call("GET", "/nonsense").status, 404);
}

TEST_F(NodeFixture, AlgorithmCallDefaultsToAccuracyOriented) {
  // Paper Sec. III-E: default selection is accuracy oriented -> detect_big.
  auto response = node_->call(
      "GET", "/ei_algorithms/safety/detection?sensor=camera1&timestamp=0");
  ASSERT_EQ(response.status, 200) << response.body;
  Json doc = Json::parse(response.body);
  EXPECT_EQ(doc.at("model").as_string(), "detect_big");
  EXPECT_EQ(doc.at("predictions").as_array().size(), 1U);
  EXPECT_TRUE(doc.at("alem").contains("latency_s"));
}

TEST_F(NodeFixture, AlgorithmCallLatencyObjectivePicksSmallModel) {
  auto response = node_->call(
      "GET",
      "/ei_algorithms/safety/detection?sensor=camera1&objective=latency");
  ASSERT_EQ(response.status, 200) << response.body;
  Json doc = Json::parse(response.body);
  EXPECT_EQ(doc.at("model").as_string(), "detect_small");
}

TEST_F(NodeFixture, AlgorithmCallWithInlineBatchPredictsWell) {
  // Send 50 test rows inline and check the predictions against labels.
  common::JsonArray rows;
  for (std::size_t i = 0; i < 50; ++i) {
    common::JsonArray row;
    for (std::size_t f = 0; f < 8; ++f) {
      row.emplace_back(static_cast<double>(test_->features.at2(i, f)));
    }
    rows.emplace_back(std::move(row));
  }
  auto response = node_->call("POST", "/ei_algorithms/safety/detection",
                              Json(std::move(rows)).dump());
  ASSERT_EQ(response.status, 200) << response.body;
  Json doc = Json::parse(response.body);
  const auto& predictions = doc.at("predictions").as_array();
  ASSERT_EQ(predictions.size(), 50U);
  std::vector<std::size_t> predicted;
  for (const Json& p : predictions) {
    predicted.push_back(static_cast<std::size_t>(p.as_int()));
  }
  std::vector<std::size_t> truth(test_->labels.begin(),
                                 test_->labels.begin() + 50);
  EXPECT_GT(data::accuracy(predicted, truth), 0.8);
}

TEST_F(NodeFixture, AlgorithmCallInfeasibleConstraints400s) {
  auto response = node_->call(
      "GET", "/ei_algorithms/safety/detection?sensor=camera1&min_accuracy=1.5"
             "&objective=latency");
  EXPECT_EQ(response.status, 400);
}

TEST_F(NodeFixture, AlgorithmCallValidation) {
  EXPECT_EQ(node_->call("GET", "/ei_algorithms/safety/unknown?input=[1]").status,
            404);
  EXPECT_EQ(node_->call("GET", "/ei_algorithms/safety/detection").status, 400);
  EXPECT_EQ(
      node_->call("GET", "/ei_algorithms/safety/detection?input=[1,2]").status,
      400);  // wrong width
  EXPECT_EQ(node_->call("GET",
                        "/ei_algorithms/safety/detection?input=[1]&objective=warp")
                .status,
            400);
}

TEST_F(NodeFixture, ModelIndexAndFetch) {
  auto index = node_->call("GET", "/ei_models");
  ASSERT_EQ(index.status, 200);
  Json doc = Json::parse(index.body);
  EXPECT_EQ(doc.at("models").as_array().size(), 2U);

  auto fetch = node_->call("GET", "/ei_models/detect_small");
  ASSERT_EQ(fetch.status, 200);
  Json model_doc = Json::parse(fetch.body);
  nn::Model rebuilt = nn::model_from_json(model_doc.at("model"));
  EXPECT_EQ(rebuilt.name(), "detect_small");

  EXPECT_EQ(node_->call("GET", "/ei_models/ghost").status, 404);
}

TEST_F(NodeFixture, ModelDeploymentOverRest) {
  Rng rng(31);
  nn::Model fresh = nn::zoo::make_mlp("detect_v3", 8, 3, {8}, rng);
  std::string body = nn::save_model(fresh);
  auto response = node_->call(
      "POST", "/ei_models?scenario=safety&algorithm=detection&accuracy=0.5",
      body);
  EXPECT_EQ(response.status, 201);
  EXPECT_TRUE(node_->registry().contains("detect_v3"));
  node_->registry().erase("detect_v3");  // restore fixture state

  EXPECT_EQ(node_->call("POST", "/ei_models", body).status, 400);  // no scenario
}

TEST_F(NodeFixture, FullSec3EWalkthroughOverRealHttp) {
  // The paper's Sec. III-E programming model, over actual loopback HTTP:
  // 1. GET /ei_data/realtime/camera1?timestamp=...   (fetch the frame)
  // 2. GET /ei_algorithms/safety/detection?sensor=camera1 (detect objects)
  std::uint16_t port = node_->start_server(0);
  net::HttpClient client(port);

  auto frame = client.get("/ei_data/realtime/camera1?timestamp=1");
  ASSERT_EQ(frame.status, 200);
  Json frame_doc = Json::parse(frame.body);
  EXPECT_DOUBLE_EQ(frame_doc.at("timestamp").as_number(), 1.0);

  auto detection =
      client.get("/ei_algorithms/safety/detection?sensor=camera1&timestamp=1");
  ASSERT_EQ(detection.status, 200);
  Json result = Json::parse(detection.body);
  EXPECT_EQ(result.at("scenario").as_string(), "safety");
  EXPECT_EQ(result.at("device").as_string(), "raspberry-pi-3");
  EXPECT_EQ(result.at("predictions").as_array().size(), 1U);

  node_->stop_server();
  EXPECT_FALSE(node_->serving());
}

TEST(EdgeNodeTest, DeployAndPlayOnAnyProfile) {
  // "any hardware ... will become an intelligent edge after deploying
  // OpenEI" — same code path on a Jetson profile.
  Rng rng(41);
  core::EdgeNode node(core::EdgeNodeConfig{hwsim::jetson_tx2(),
                                           hwsim::lite_framework(), 64});
  nn::Model model = nn::zoo::make_mlp("m", 4, 2, {8}, rng);
  node.deploy_model("home", "power_monitor", std::move(model), 0.9);
  auto response = node.call("GET",
                            "/ei_algorithms/home/power_monitor?input=[1,2,3,4]");
  EXPECT_EQ(response.status, 200);
  Json doc = Json::parse(response.body);
  EXPECT_EQ(doc.at("device").as_string(), "jetson-tx2");
}

TEST(EdgeNodeTest, ModelDeployRecordsItsParseTime) {
  // A hot-swap's cost is mostly decoding the body, so POST /ei_models times
  // it into an always-on histogram.
  Rng rng(43);
  core::EdgeNode node(core::EdgeNodeConfig{hwsim::jetson_tx2(),
                                           hwsim::lite_framework(), 64});
  std::string body = nn::save_model(nn::zoo::make_mlp("m", 4, 2, {8}, rng));
  ASSERT_EQ(node.call("POST", "/ei_models?scenario=home&algorithm=power_monitor",
                      body)
                .status,
            201);
  std::string metrics = node.call("GET", "/ei_metrics").body;
  EXPECT_NE(metrics.find("ei_model_parse_seconds_count 1\n"), std::string::npos)
      << metrics;
}

TEST(EdgeNodeTest, ServerLifecycleGuards) {
  core::EdgeNode node(core::EdgeNodeConfig{hwsim::raspberry_pi_3(),
                                           hwsim::openei_package(), 16});
  EXPECT_THROW(node.port(), openei::InvalidArgument);
  node.start_server(0);
  EXPECT_THROW(node.start_server(0), openei::InvalidArgument);
  node.stop_server();
  node.stop_server();  // idempotent
}

}  // namespace
}  // namespace openei::libei
