// Deterministic fault-matrix tests: every injected fault class exercised
// against {HttpClient, ResilientClient}, malformed-request hardening
// (400-not-crash), deadline enforcement against a never-responding socket,
// circuit-breaker state transitions, and graceful degradation of the
// cloud-edge path (replica failover and failback are tested on
// fleet::Router in test_fleet.cpp) — the Sec. IV-C
// "high availability ... failure avoidance" requirements as executable
// specifications.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "collab/cloud_edge.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "hwsim/device.h"
#include "hwsim/network.h"
#include "hwsim/package.h"
#include "net/faults.h"
#include "net/http.h"
#include "net/resilient_client.h"
#include "nn/zoo.h"

namespace openei::net {
namespace {

HttpServer::Options with_plan(std::shared_ptr<FaultPlan> plan,
                              double read_timeout_s = 5.0) {
  HttpServer::Options options;
  options.read_timeout_s = read_timeout_s;
  options.faults = std::move(plan);
  return options;
}

HttpResponse ok_handler(const HttpRequest&) {
  return HttpResponse::json(200, R"({"ok":true,"payload":"0123456789abcdef"})");
}

// --- FaultPlan scheduling ------------------------------------------------

TEST(FaultPlanTest, SameSeedSameSchedule) {
  auto run = [](std::uint64_t seed) {
    FaultPlan plan(seed);
    plan.add(FaultRule{"", FaultKind::kErrorBurst, /*probability=*/0.5});
    std::vector<FaultKind> kinds;
    for (int i = 0; i < 32; ++i) kinds.push_back(plan.next("/any").kind);
    return kinds;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // different seed, different burst pattern
}

TEST(FaultPlanTest, WindowAndPrefixSelectRequests) {
  FaultPlan plan(1);
  plan.add(FaultRule{"/ei_algorithms", FaultKind::kErrorBurst,
                     /*probability=*/1.0, /*from_request=*/1,
                     /*until_request=*/3});
  // Non-matching route never faulted and does not advance the rule counter.
  EXPECT_EQ(plan.next("/ei_status").kind, FaultKind::kNone);
  // Matched requests 0,1,2,3 -> window [1,3) faults exactly #1 and #2.
  EXPECT_EQ(plan.next("/ei_algorithms/a/b").kind, FaultKind::kNone);
  EXPECT_EQ(plan.next("/ei_algorithms/a/b").kind, FaultKind::kErrorBurst);
  EXPECT_EQ(plan.next("/ei_algorithms/a/b").kind, FaultKind::kErrorBurst);
  EXPECT_EQ(plan.next("/ei_algorithms/a/b").kind, FaultKind::kNone);
  EXPECT_EQ(plan.request_count(), 5U);
  EXPECT_EQ(plan.injected_count(), 2U);
}

// --- Fault matrix: plain HttpClient observes each fault class ------------

TEST(FaultMatrixTest, RefusedConnectionIsIoError) {
  auto plan = std::make_shared<FaultPlan>(2);
  plan->add(FaultRule{"", FaultKind::kRefuseConnection});
  HttpServer server(0, ok_handler, with_plan(plan));
  HttpClient client(server.port(), /*deadline_s=*/1.0);
  EXPECT_THROW(client.get("/x"), openei::IoError);
  server.stop();
}

TEST(FaultMatrixTest, MidStreamResetIsIoError) {
  auto plan = std::make_shared<FaultPlan>(3);
  plan->add(FaultRule{"", FaultKind::kResetMidStream});
  HttpServer server(0, ok_handler, with_plan(plan));
  HttpClient client(server.port(), /*deadline_s=*/1.0);
  EXPECT_THROW(client.get("/x"), openei::IoError);
  server.stop();
}

TEST(FaultMatrixTest, TruncatedResponseIsDetectedNotSilentlyAccepted) {
  auto plan = std::make_shared<FaultPlan>(4);
  plan->add(FaultRule{"", FaultKind::kTruncateResponse});
  HttpServer server(0, ok_handler, with_plan(plan));
  HttpClient client(server.port(), /*deadline_s=*/1.0);
  EXPECT_THROW(client.get("/x"), openei::IoError);
  server.stop();
}

TEST(FaultMatrixTest, SlowReadTripsClientDeadline) {
  auto plan = std::make_shared<FaultPlan>(5);
  plan->add(FaultRule{"", FaultKind::kSlowRead, /*probability=*/1.0,
                      /*from_request=*/0, /*until_request=*/SIZE_MAX,
                      /*delay_s=*/2.0});
  HttpServer server(0, ok_handler, with_plan(plan));
  HttpClient client(server.port(), /*deadline_s=*/0.2);
  common::Stopwatch elapsed;
  EXPECT_THROW(client.get("/x"), openei::TimeoutError);
  EXPECT_LT(elapsed.elapsed_seconds(), 1.5);  // bounded, not 2+ s
  server.stop();
}

TEST(FaultMatrixTest, InjectedDelayTripsClientDeadline) {
  auto plan = std::make_shared<FaultPlan>(6);
  plan->add(FaultRule{"", FaultKind::kInjectDelay, /*probability=*/1.0,
                      /*from_request=*/0, /*until_request=*/SIZE_MAX,
                      /*delay_s=*/2.0});
  HttpServer server(0, ok_handler, with_plan(plan));
  HttpClient client(server.port(), /*deadline_s=*/0.2);
  common::Stopwatch elapsed;
  EXPECT_THROW(client.get("/x"), openei::TimeoutError);
  EXPECT_LT(elapsed.elapsed_seconds(), 1.5);
  server.stop();
}

TEST(FaultMatrixTest, ErrorBurstServes503) {
  auto plan = std::make_shared<FaultPlan>(7);
  plan->add(FaultRule{"", FaultKind::kErrorBurst});
  HttpServer server(0, ok_handler, with_plan(plan));
  HttpClient client(server.port(), /*deadline_s=*/1.0);
  EXPECT_EQ(client.get("/x").status, 503);
  server.stop();
}

// --- Fault matrix: ResilientClient rides through bounded faults ----------

TEST(ResilientClientTest, RetriesThroughTransientFaultWindow) {
  for (FaultKind kind : {FaultKind::kRefuseConnection, FaultKind::kResetMidStream,
                         FaultKind::kTruncateResponse, FaultKind::kErrorBurst}) {
    auto plan = std::make_shared<FaultPlan>(8);
    // Exactly the first two requests fault, then the route heals.
    plan->add(FaultRule{"", kind, /*probability=*/1.0, /*from_request=*/0,
                        /*until_request=*/2});
    HttpServer server(0, ok_handler, with_plan(plan));

    ResilientClient::Options options;
    options.deadline_s = 2.0;
    options.retry.max_attempts = 3;
    options.retry.initial_backoff_s = 0.001;
    auto metrics = std::make_shared<ResilienceMetrics>();
    options.metrics = metrics;
    ResilientClient client(server.port(), options);

    HttpResponse response = client.get("/x");
    EXPECT_EQ(response.status, 200) << "fault kind " << to_string(kind);
    EXPECT_EQ(client.stats().retries, 2U) << "fault kind " << to_string(kind);
    EXPECT_EQ(metrics->retries.load(), 2U);
    server.stop();
  }
}

TEST(ResilientClientTest, DeterministicJitterReproducesBackoffSchedule) {
  ResilientClient::Options options;
  options.seed = 99;
  // Two clients with the same seed draw the same jitter stream; this shows
  // through identical stats after identical failure sequences against a
  // dead endpoint.
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
    listener.shutdown();
  }
  options.deadline_s = 0.5;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_s = 0.001;
  ResilientClient a(dead_port, options);
  ResilientClient b(dead_port, options);
  EXPECT_THROW(a.get("/x"), openei::IoError);
  EXPECT_THROW(b.get("/x"), openei::IoError);
  EXPECT_EQ(a.stats().attempts, b.stats().attempts);
  EXPECT_EQ(a.stats().failures, b.stats().failures);
}

TEST(ResilientClientTest, SurfacesResidual5xxAfterBudget) {
  auto plan = std::make_shared<FaultPlan>(9);
  plan->add(FaultRule{"", FaultKind::kErrorBurst});  // every request
  HttpServer server(0, ok_handler, with_plan(plan));
  ResilientClient::Options options;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_s = 0.001;
  options.breaker.failure_threshold = 100;  // keep the breaker out of this test
  ResilientClient client(server.port(), options);
  EXPECT_EQ(client.get("/x").status, 503);
  EXPECT_EQ(client.stats().retries, 1U);
  server.stop();
}

TEST(ResilientClientTest, FourOhFourPassesThroughWithoutRetry) {
  HttpServer server(0, [](const HttpRequest&) -> HttpResponse {
    throw openei::NotFound("nope");
  });
  ResilientClient client(server.port());
  EXPECT_EQ(client.get("/missing").status, 404);
  EXPECT_EQ(client.stats().retries, 0U);
  EXPECT_EQ(client.circuit_state(), CircuitState::kClosed);
  server.stop();
}

// --- Circuit breaker ------------------------------------------------------

TEST(CircuitBreakerTest, OpensAfterThresholdAndFailsFast) {
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
    listener.shutdown();
  }
  ResilientClient::Options options;
  options.deadline_s = 0.5;
  options.retry.max_attempts = 1;
  options.retry.initial_backoff_s = 0.001;
  options.breaker.failure_threshold = 3;
  options.breaker.open_duration_s = 30.0;  // stays open for the test
  auto metrics = std::make_shared<ResilienceMetrics>();
  options.metrics = metrics;
  {
    ResilientClient client(dead_port, options);

    for (int i = 0; i < 3; ++i) {
      EXPECT_THROW(client.get("/x"), openei::IoError);
    }
    EXPECT_EQ(client.circuit_state(), CircuitState::kOpen);
    EXPECT_EQ(metrics->breaker_opens.load(), 1U);
    EXPECT_EQ(metrics->open_breakers.load(), 1);

    // Open breaker: rejected locally, fast, with CircuitOpenError.
    common::Stopwatch elapsed;
    EXPECT_THROW(client.get("/x"), openei::CircuitOpenError);
    EXPECT_LT(elapsed.elapsed_seconds(), 0.1);
    EXPECT_EQ(metrics->breaker_rejections.load(), 1U);
  }
  // A destroyed client releases its open-breaker gauge.
  EXPECT_EQ(metrics->open_breakers.load(), 0);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesAfterRecovery) {
  auto plan = std::make_shared<FaultPlan>(10);
  // First 3 requests 503, then healthy: the breaker opens, then a half-open
  // trial after the open window closes it again.
  plan->add(FaultRule{"", FaultKind::kErrorBurst, /*probability=*/1.0,
                      /*from_request=*/0, /*until_request=*/3});
  HttpServer server(0, ok_handler, with_plan(plan));
  ResilientClient::Options options;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 3;
  options.breaker.open_duration_s = 0.05;
  ResilientClient client(server.port(), options);

  for (int i = 0; i < 3; ++i) EXPECT_EQ(client.get("/x").status, 503);
  EXPECT_EQ(client.circuit_state(), CircuitState::kOpen);
  EXPECT_THROW(client.get("/x"), openei::CircuitOpenError);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(client.get("/x").status, 200);  // half-open trial succeeds
  EXPECT_EQ(client.circuit_state(), CircuitState::kClosed);
  server.stop();
}

TEST(CircuitBreakerTest, ProbeBypassesOpenBreaker) {
  auto plan = std::make_shared<FaultPlan>(11);
  plan->add(FaultRule{"", FaultKind::kErrorBurst, /*probability=*/1.0,
                      /*from_request=*/0, /*until_request=*/3});
  HttpServer server(0, ok_handler, with_plan(plan));
  ResilientClient::Options options;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 3;
  options.breaker.open_duration_s = 60.0;  // would stay open without a probe
  ResilientClient client(server.port(), options);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(client.get("/x").status, 503);
  EXPECT_EQ(client.circuit_state(), CircuitState::kOpen);
  EXPECT_TRUE(client.probe("/x"));  // endpoint healed; probe closes the breaker
  EXPECT_EQ(client.circuit_state(), CircuitState::kClosed);
  EXPECT_EQ(client.get("/x").status, 200);
  server.stop();
}

// --- Deadlines: no request path can block indefinitely -------------------

TEST(DeadlineTest, NeverRespondingSocketCannotHangTheClient) {
  // A listener that accepts into its backlog but never serves: the write
  // lands, the response never comes.
  TcpListener black_hole(0);
  HttpClient client(black_hole.port(), /*deadline_s=*/0.2);
  common::Stopwatch elapsed;
  EXPECT_THROW(client.get("/x"), openei::TimeoutError);
  double waited = elapsed.elapsed_seconds();
  EXPECT_GE(waited, 0.15);
  EXPECT_LT(waited, 1.5);
  black_hole.shutdown();
}

TEST(DeadlineTest, ResilientClientDeadlineSpansAllRetries) {
  TcpListener black_hole(0);
  ResilientClient::Options options;
  options.deadline_s = 0.3;
  options.retry.max_attempts = 10;  // budget far larger than the deadline
  options.retry.initial_backoff_s = 0.01;
  ResilientClient client(black_hole.port(), options);
  common::Stopwatch elapsed;
  EXPECT_THROW(client.get("/x"), openei::TimeoutError);
  EXPECT_LT(elapsed.elapsed_seconds(), 1.5);
  black_hole.shutdown();
}

TEST(DeadlineTest, ThreeRetrySequenceNeverExceedsCallerDeadline) {
  // Regression: the caller's deadline is end-to-end.  Every phase of every
  // attempt — connect, write, read, and the backoff sleeps between attempts
  // — must fit in the one budget, so a 3-retry sequence can never stretch
  // the call past it.  Backoffs here would sum to ~0.75s on their own.
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
    listener.shutdown();
  }
  ResilientClient::Options options;
  options.deadline_s = 0.4;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_s = 0.25;
  options.retry.backoff_multiplier = 2.0;
  options.retry.max_backoff_s = 5.0;
  options.retry.jitter_fraction = 0.0;
  options.breaker.failure_threshold = 100;
  ResilientClient client(dead_port, options);
  common::Stopwatch elapsed;
  EXPECT_THROW(client.get("/x"), openei::Error);
  // Small scheduling slack only — anything near 0.65s would mean a backoff
  // sleep escaped the deadline clamp.
  EXPECT_LT(elapsed.elapsed_seconds(), 0.55);
}

TEST(DeadlineTest, NoBackoffSleepAfterTheFinalAttempt) {
  // The failure summary must surface as soon as the last attempt fails:
  // sleeping the post-final backoff (here 2s) would be pure added latency.
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
    listener.shutdown();
  }
  ResilientClient::Options options;
  options.deadline_s = 10.0;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_s = 0.05;
  options.retry.backoff_multiplier = 40.0;  // second backoff would be 2s
  options.retry.jitter_fraction = 0.0;
  options.breaker.failure_threshold = 100;
  ResilientClient client(dead_port, options);
  common::Stopwatch elapsed;
  EXPECT_THROW(client.get("/x"), openei::IoError);
  EXPECT_LT(elapsed.elapsed_seconds(), 0.5);
}

// --- Per-endpoint breaker visibility --------------------------------------

TEST(BreakerVisibilityTest, SharedSinkReportsPerEndpointState) {
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
    listener.shutdown();
  }
  HttpServer healthy(0, ok_handler);
  auto metrics = std::make_shared<ResilienceMetrics>();
  ResilientClient::Options options;
  options.deadline_s = 0.5;
  options.retry.max_attempts = 1;
  options.retry.initial_backoff_s = 0.001;
  options.breaker.failure_threshold = 2;
  options.breaker.open_duration_s = 30.0;
  options.metrics = metrics;
  {
    ResilientClient good(healthy.port(), options);
    ResilientClient bad(dead_port, options);
    EXPECT_EQ(good.get("/x").status, 200);
    for (int i = 0; i < 2; ++i) EXPECT_THROW(bad.get("/x"), openei::IoError);

    std::vector<BreakerSnapshot> snapshots = metrics->breaker_snapshots();
    ASSERT_EQ(snapshots.size(), 2U);
    const BreakerSnapshot* good_row = nullptr;
    const BreakerSnapshot* bad_row = nullptr;
    for (const BreakerSnapshot& row : snapshots) {
      if (row.endpoint == "127.0.0.1:" + std::to_string(dead_port)) {
        bad_row = &row;
      } else {
        good_row = &row;
      }
    }
    ASSERT_NE(good_row, nullptr);
    ASSERT_NE(bad_row, nullptr);
    EXPECT_EQ(good_row->state, CircuitState::kClosed);
    EXPECT_EQ(good_row->consecutive_failures, 0U);
    EXPECT_EQ(bad_row->state, CircuitState::kOpen);
    EXPECT_GE(bad_row->consecutive_failures, 2U);
    EXPECT_GT(bad_row->last_transition_unix_s, 0.0);

    // The same rows ride along in the sink's JSON (what /ei_status embeds).
    common::Json doc = metrics->to_json();
    ASSERT_EQ(doc.at("breakers").as_array().size(), 2U);
    bool saw_open = false;
    for (const common::Json& row : doc.at("breakers").as_array()) {
      if (row.at("state").as_string() == "open") saw_open = true;
    }
    EXPECT_TRUE(saw_open);
  }
  // Destroyed clients unregister: the sink never reports dead endpoints.
  EXPECT_TRUE(metrics->breaker_snapshots().empty());
  healthy.stop();
}

TEST(BreakerVisibilityTest, EiStatusExposesBreakerRows) {
  core::EdgeNodeConfig config{hwsim::raspberry_pi_4(), hwsim::openei_package(),
                              64};
  core::EdgeNode node(config);
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
    listener.shutdown();
  }
  ResilientClient::Options options;
  options.deadline_s = 0.3;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.open_duration_s = 30.0;
  options.metrics = node.resilience_metrics();
  ResilientClient outbound(dead_port, options);
  EXPECT_THROW(outbound.get("/x"), openei::IoError);

  common::Json status = common::Json::parse(node.call("GET", "/ei_status").body);
  const common::Json& breakers = status.at("resilience").at("breakers");
  ASSERT_EQ(breakers.as_array().size(), 1U);
  EXPECT_EQ(breakers.as_array()[0].at("state").as_string(), "open");
  EXPECT_EQ(breakers.as_array()[0].at("endpoint").as_string(),
            "127.0.0.1:" + std::to_string(dead_port));
}

TEST(DeadlineTest, StalledClientCannotPinAServerWorker) {
  HttpServer::Options options;
  options.read_timeout_s = 0.1;
  HttpServer server(0, ok_handler, options);
  // Connect and send nothing; the worker must give up on its own.
  TcpConnection silent = connect_local(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Healthy clients are still served, and stop() drains without hanging.
  HttpClient client(server.port(), 1.0);
  EXPECT_EQ(client.get("/x").status, 200);
  server.stop();  // would deadlock if the silent worker were pinned
  silent.close();
}

// --- Malformed requests: 400, never a crash or a hang --------------------

TEST(MalformedRequestTest, OversizedContentLengthGets400) {
  HttpServer server(0, ok_handler);
  TcpConnection connection = connect_local(server.port());
  connection.write_all(
      "POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n");
  char buffer[512];
  std::string reply;
  try {
    while (true) {
      std::size_t n = connection.read_some(buffer, sizeof(buffer));
      if (n == 0) break;
      reply.append(buffer, n);
    }
  } catch (const openei::IoError&) {
  }
  EXPECT_NE(reply.find("400"), std::string::npos);
  server.stop();
}

TEST(MalformedRequestTest, NonNumericContentLengthGets400) {
  HttpServer server(0, ok_handler);
  TcpConnection connection = connect_local(server.port());
  connection.write_all(
      "POST /x HTTP/1.1\r\nContent-Length: 18446744073709551617\r\n\r\n");
  char buffer[512];
  std::string reply;
  try {
    while (true) {
      std::size_t n = connection.read_some(buffer, sizeof(buffer));
      if (n == 0) break;
      reply.append(buffer, n);
    }
  } catch (const openei::IoError&) {
  }
  EXPECT_NE(reply.find("400"), std::string::npos);
  server.stop();
}

TEST(MalformedRequestTest, TruncatedHeadLeavesServerHealthy) {
  HttpServer::Options options;
  options.read_timeout_s = 0.1;
  HttpServer server(0, ok_handler, options);
  {
    TcpConnection connection = connect_local(server.port());
    connection.write_all("GET /x HTT");  // head cut mid-line, then close
  }
  HttpClient client(server.port(), 1.0);
  EXPECT_EQ(client.get("/x").status, 200);
  server.stop();
}

TEST(MalformedRequestTest, BadPercentEncodingGets400) {
  HttpServer server(0, ok_handler);
  HttpClient client(server.port(), 1.0);
  EXPECT_EQ(client.get("/bad%zzpath").status, 400);
  EXPECT_EQ(client.get("/x?a=%2").status, 400);
  // Parser-level: the same inputs throw ParseError, never crash.
  std::string path;
  std::map<std::string, std::string> query;
  EXPECT_THROW(parse_target("/bad%zz", path, query), openei::ParseError);
  EXPECT_THROW(parse_request("GET /a%2 HTTP/1.1", ""), openei::ParseError);
  server.stop();
}

// --- NetworkLink loss knob ------------------------------------------------

TEST(NetworkLinkLossTest, LossInflatesTimeAndEnergy) {
  hwsim::NetworkLink clean = hwsim::wifi();
  hwsim::NetworkLink lossy = clean.with_loss(0.5);
  // 50% loss -> every packet sent twice in expectation.
  EXPECT_DOUBLE_EQ(lossy.expected_transmissions(), 2.0);
  double clean_serialize = clean.transfer_time_s(1 << 20) - clean.rtt_s / 2.0;
  double lossy_serialize = lossy.transfer_time_s(1 << 20) - lossy.rtt_s / 2.0;
  EXPECT_NEAR(lossy_serialize, 2.0 * clean_serialize, 1e-9);
  EXPECT_NEAR(lossy.transfer_energy_j(1000), 2.0 * clean.transfer_energy_j(1000),
              1e-12);
  // Default links are clean and unchanged.
  EXPECT_DOUBLE_EQ(clean.loss_rate, 0.0);
  EXPECT_THROW(clean.with_loss(1.0), openei::InvalidArgument);
  EXPECT_THROW(clean.with_loss(-0.1), openei::InvalidArgument);
}

}  // namespace
}  // namespace openei::net

namespace openei::collab {
namespace {

// Degradation: with the cloud circuit open, every request is served by the
// local fallback with zero caller-visible errors, and the degraded-serve
// counters are visible via /ei_status.
TEST(CloudEdgeDegradationTest, ServesLocallyWhileCloudIsDown) {
  common::Rng model_rng(77);
  nn::Model cloud_model = nn::zoo::make_mlp("cloud-det", 4, 2, {16}, model_rng);
  nn::Model edge_model = cloud_model.clone();  // "compressed" local twin

  auto cloud = std::make_unique<core::EdgeNode>(core::EdgeNodeConfig{
      hwsim::edge_server(), hwsim::openei_package(), 32});
  cloud->deploy_model("safety", "detection", cloud_model.clone(), 0.95);
  auto cloud_port = cloud->start_server(0);

  // The edge node whose /ei_status will report the degraded serving.
  core::EdgeNode edge(core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                                           hwsim::openei_package(), 32});

  net::ResilientClient::Options options;
  options.deadline_s = 1.0;
  options.retry.max_attempts = 1;
  options.retry.initial_backoff_s = 0.001;
  options.breaker.failure_threshold = 2;
  options.breaker.open_duration_s = 30.0;  // stays open once tripped
  options.metrics = edge.resilience_metrics();
  ResilientCloudEdge serving(cloud_port, "/ei_algorithms/safety/detection",
                             edge_model.clone(), edge.package(), edge.device(),
                             options);

  auto healthy = serving.classify("[1,2,3,4]");
  EXPECT_EQ(healthy.served_by, "cloud");
  ASSERT_EQ(healthy.predictions.size(), 1U);

  cloud->stop_server();
  std::vector<std::size_t> degraded_predictions;
  for (int i = 0; i < 8; ++i) {
    auto outcome = serving.classify("[1,2,3,4]");  // must never throw
    EXPECT_EQ(outcome.served_by, "local_fallback");
    EXPECT_EQ(outcome.status, 200);
    degraded_predictions = outcome.predictions;
  }
  // Identical weights -> the degraded path answers exactly like the cloud.
  EXPECT_EQ(degraded_predictions, healthy.predictions);
  EXPECT_EQ(serving.cloud_served(), 1U);
  EXPECT_EQ(serving.degraded_served(), 8U);
  // After failure_threshold transport errors the circuit is open and serving
  // is breaker-fast (no connect attempts), still with zero errors.
  EXPECT_EQ(serving.cloud_circuit_state(), net::CircuitState::kOpen);

  auto status = edge.call("GET", "/ei_status");
  ASSERT_EQ(status.status, 200);
  common::Json resilience = common::Json::parse(status.body).at("resilience");
  EXPECT_EQ(resilience.at("degraded_serves").as_number(), 8.0);
  EXPECT_GE(resilience.at("breaker_opens").as_number(), 1.0);
  EXPECT_EQ(resilience.at("open_breakers").as_number(), 1.0);
  EXPECT_GE(resilience.at("breaker_rejections").as_number(), 1.0);
}

}  // namespace
}  // namespace openei::collab
