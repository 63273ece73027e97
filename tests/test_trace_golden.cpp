// Golden-trace integration test: the exact span tree every /ei_algorithms
// request must emit when tracing is on.  This is the observability layer's
// regression anchor — if an instrumented stage span is removed or renamed,
// these shape assertions fail.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/zoo.h"
#include "obs/trace.h"
#include "stream/frame_queue.h"

namespace openei::libei {
namespace {

using common::Json;

std::unique_ptr<core::EdgeNode> make_traced_node(bool coalesce) {
  core::EdgeNodeConfig config{hwsim::raspberry_pi_4(),
                              hwsim::openei_package(), 256, {}};
  config.service.coalesce_inference = coalesce;
  config.service.tracing.enabled = true;
  config.service.tracing.seed = 2026;
  config.service.tracing.ring_capacity = 32;
  auto node = std::make_unique<core::EdgeNode>(std::move(config));
  common::Rng rng(99);
  node->deploy_model("safety", "detection",
                     nn::zoo::make_mlp("detector", 8, 3, {16}, rng), 0.9);
  common::JsonArray features;
  for (std::size_t f = 0; f < 8; ++f) {
    features.emplace_back(0.1 * static_cast<double>(f));
  }
  node->ingest("cam", 1.0, Json(std::move(features)));
  return node;
}

/// GET /ei_algorithms -> parse trace_id -> GET /ei_trace/{id} -> root JSON.
Json fetch_trace(core::EdgeNode& node) {
  auto response = node.call(
      "GET", "/ei_algorithms/safety/detection?sensor=cam&timestamp=1");
  EXPECT_EQ(response.status, 200);
  Json body = Json::parse(response.body);
  const std::string& trace_id = body.at("trace_id").as_string();
  EXPECT_FALSE(trace_id.empty());
  auto trace_response = node.call("GET", "/ei_trace/" + trace_id);
  EXPECT_EQ(trace_response.status, 200);
  Json trace = Json::parse(trace_response.body);
  EXPECT_EQ(trace.at("trace_id").as_string(), trace_id);
  return trace;
}

std::vector<std::string> child_names(const Json& span) {
  std::vector<std::string> names;
  for (const Json& child : span.at("children").as_array()) {
    names.push_back(child.at("name").as_string());
  }
  return names;
}

const Json& child_named(const Json& span, const std::string& name) {
  for (const Json& child : span.at("children").as_array()) {
    if (child.at("name").as_string() == name) return child;
  }
  ADD_FAILURE() << "span '" << span.at("name").as_string()
                << "' has no child '" << name << "'";
  static Json empty{common::JsonObject{}};
  return empty;
}

TEST(TraceGolden, CoalescedRequestEmitsTheCanonicalSpanTree) {
  auto node = make_traced_node(/*coalesce=*/true);
  Json trace = fetch_trace(*node);

  const Json& root = trace.at("root");
  EXPECT_EQ(root.at("name").as_string(), "ei.request");
  // The golden shape: exactly these four stages, in pipeline order.
  EXPECT_EQ(child_names(root),
            (std::vector<std::string>{"ei.select", "ei.parse", "ei.infer",
                                      "ei.serialize"}));
  // 4 stage spans + root + the ei.batch ride-along under ei.infer.
  EXPECT_EQ(trace.at("span_count").as_number(), 6.0);

  const Json& root_attrs = root.at("attributes");
  EXPECT_EQ(root_attrs.at("method").as_string(), "GET");
  EXPECT_EQ(root_attrs.at("path").as_string(),
            "/ei_algorithms/safety/detection");
  EXPECT_EQ(root_attrs.at("status").as_number(), 200.0);

  const Json& select = child_named(root, "ei.select");
  EXPECT_EQ(select.at("attributes").at("candidates").as_number(), 1.0);
  EXPECT_EQ(select.at("attributes").at("eligible").as_number(), 1.0);
  EXPECT_EQ(select.at("attributes").at("model").as_string(), "detector");

  const Json& parse = child_named(root, "ei.parse");
  EXPECT_EQ(parse.at("attributes").at("rows").as_number(), 1.0);
  EXPECT_EQ(parse.at("attributes").at("input_bytes").as_number(),
            8.0 * sizeof(float));

  // ei.infer carries the simulated ALEM attribution and, when coalesced,
  // exactly one ei.batch child stamped by the flush thread.
  const Json& infer = child_named(root, "ei.infer");
  const Json& infer_attrs = infer.at("attributes");
  EXPECT_EQ(infer_attrs.at("model").as_string(), "detector");
  EXPECT_EQ(infer_attrs.at("coalesced").as_number(), 1.0);
  EXPECT_GT(infer_attrs.at("sim_latency_us").as_number(), 0.0);
  EXPECT_GT(infer_attrs.at("sim_energy_mj").as_number(), 0.0);
  EXPECT_GT(infer_attrs.at("sim_memory_bytes").as_number(), 0.0);
  EXPECT_EQ(child_names(infer), (std::vector<std::string>{"ei.batch"}));

  const Json& batch = child_named(infer, "ei.batch");
  const Json& batch_attrs = batch.at("attributes");
  EXPECT_GE(batch_attrs.at("queue_wait_us").as_number(), 0.0);
  EXPECT_GE(batch_attrs.at("forward_us").as_number(), 0.0);
  EXPECT_GE(batch_attrs.at("batch_rows").as_number(), 1.0);
  EXPECT_GE(batch_attrs.at("flush_rows").as_number(), 1.0);
  EXPECT_EQ(batch_attrs.at("flush_requests").as_number(), 1.0);
  // Every session forward runs on the zero-alloc arena, so the fused
  // forward allocates no tensors.
  EXPECT_EQ(batch_attrs.at("peak_tensor_bytes").as_number(), 0.0);

  EXPECT_TRUE(child_names(child_named(root, "ei.serialize")).empty());

  // Timing sanity: the root brackets the sum of its stage spans.
  double stage_total = 0.0;
  for (const Json& child : root.at("children").as_array()) {
    double d = child.at("duration_us").as_number();
    EXPECT_GE(d, 0.0);
    stage_total += d;
  }
  EXPECT_GE(root.at("duration_us").as_number(), stage_total * 0.99);
}

TEST(TraceGolden, DirectPathHasNoBatchSpanAndArenaForwardIsZeroAlloc) {
  auto node = make_traced_node(/*coalesce=*/false);
  Json trace = fetch_trace(*node);
  const Json& root = trace.at("root");
  EXPECT_EQ(child_names(root),
            (std::vector<std::string>{"ei.select", "ei.parse", "ei.infer",
                                      "ei.serialize"}));
  EXPECT_EQ(trace.at("span_count").as_number(), 5.0);  // no ei.batch
  const Json& infer = child_named(root, "ei.infer");
  EXPECT_TRUE(child_names(infer).empty());
  EXPECT_EQ(infer.at("attributes").at("coalesced").as_number(), 0.0);
  // The direct path wraps the forward in an AllocationTrackingScope; the
  // forward runs on the zero-alloc arena, so the peak on ei.infer is zero.
  EXPECT_EQ(infer.at("attributes").at("peak_tensor_bytes").as_number(), 0.0);
}

TEST(TraceGolden, EnergyDegradedRequestPinsTheCanonicalSpanTree) {
  // A power cap below the idle draw forces every request over budget; the
  // wide reject factor keeps it serviceable, so the request must degrade:
  // the select stage flips to min-energy and rides the cheaper variant.
  // The span tree shape is identical to a healthy direct request — only
  // the select attribution and the response flags change.
  core::EdgeNodeConfig config{hwsim::raspberry_pi_4(),
                              hwsim::openei_package(), 256, {}};
  config.service.coalesce_inference = false;
  config.service.tracing.enabled = true;
  config.service.tracing.seed = 2026;
  config.service.tracing.ring_capacity = 32;
  config.service.energy.power_cap_w = 0.5;
  config.service.energy.reject_factor = 100.0;
  auto node = std::make_unique<core::EdgeNode>(std::move(config));
  common::Rng rng(99);
  node->deploy_model("safety", "detection",
                     nn::zoo::make_mlp("detector", 8, 3, {16}, rng), 0.9);
  node->deploy_model("safety", "detection",
                     nn::zoo::make_mlp("detector-lite", 8, 3, {4}, rng), 0.7);
  common::JsonArray features;
  for (std::size_t f = 0; f < 8; ++f) {
    features.emplace_back(0.1 * static_cast<double>(f));
  }
  node->ingest("cam", 1.0, Json(std::move(features)));

  auto response = node->call(
      "GET", "/ei_algorithms/safety/detection?sensor=cam&timestamp=1");
  ASSERT_EQ(response.status, 200);
  Json body = Json::parse(response.body);
  EXPECT_EQ(body.at("model").as_string(), "detector-lite");
  EXPECT_TRUE(body.at("energy_degraded").as_bool());
  EXPECT_GT(body.at("ledger_energy_j").as_number(), 0.0);

  Json trace = Json::parse(
      node->call("GET", "/ei_trace/" + body.at("trace_id").as_string()).body);
  const Json& root = trace.at("root");
  EXPECT_EQ(child_names(root),
            (std::vector<std::string>{"ei.select", "ei.parse", "ei.infer",
                                      "ei.serialize"}));
  EXPECT_EQ(trace.at("span_count").as_number(), 5.0);  // direct: no ei.batch

  const Json& select = child_named(root, "ei.select");
  const Json& select_attrs = select.at("attributes");
  EXPECT_EQ(select_attrs.at("energy_degraded").as_number(), 1.0);
  EXPECT_EQ(select_attrs.at("model").as_string(), "detector-lite");
  EXPECT_EQ(select_attrs.at("candidates").as_number(), 2.0);
  EXPECT_EQ(select_attrs.at("eligible").as_number(), 2.0);

  // sim_energy_mj on ei.infer is sourced from the device ledger (what the
  // account actually accrued for this request), and must reconcile with the
  // response's ledger_energy_j exactly.
  const Json& infer = child_named(root, "ei.infer");
  EXPECT_TRUE(child_names(infer).empty());
  EXPECT_EQ(infer.at("attributes").at("model").as_string(), "detector-lite");
  EXPECT_DOUBLE_EQ(infer.at("attributes").at("sim_energy_mj").as_number(),
                   body.at("ledger_energy_j").as_number() * 1e3);
}

TEST(TraceGolden, TraceIdsAreDeterministicAcrossIdenticalNodes) {
  auto a = make_traced_node(true);
  auto b = make_traced_node(true);
  Json trace_a = fetch_trace(*a);
  Json trace_b = fetch_trace(*b);
  // Same seed, same request sequence -> bit-identical ids (no wall clock in
  // id derivation), even though timestamps differ.
  EXPECT_EQ(trace_a.at("trace_id").as_string(),
            trace_b.at("trace_id").as_string());
  EXPECT_EQ(trace_a.at("root").at("id").as_string(),
            trace_b.at("root").at("id").as_string());
}

TEST(TraceGolden, MetricsAndStatusExposeTheRequest) {
  auto node = make_traced_node(true);
  fetch_trace(*node);

  auto metrics = node->call("GET", "/ei_metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4");
  EXPECT_NE(metrics.body.find(
                "ei_request_latency_seconds_bucket{model=\"detector\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ei_request_latency_seconds_count"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ei_model_sim_energy_mj_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ei_model_sim_memory_bytes"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ei_requests_total{route=\"ei_algorithms\","
                              "status=\"ok\"} 1"),
            std::string::npos);

  Json status = Json::parse(node->call("GET", "/ei_status").body);
  const Json& latency = status.at("latency").at("detector");
  EXPECT_EQ(latency.at("count").as_number(), 1.0);
  EXPECT_GT(latency.at("p50_us").as_number(), 0.0);
  EXPECT_LE(latency.at("p50_us").as_number(),
            latency.at("p99_us").as_number());
  EXPECT_TRUE(status.at("tracing").at("enabled").as_bool());
  // fetch_trace committed 2 traces (/ei_algorithms + /ei_trace/{id}); the
  // /ei_metrics request above committed a third before /ei_status ran.
  EXPECT_EQ(status.at("tracing").at("completed_traces").as_number(), 3.0);
}

TEST(TraceGolden, TraceListingAndErrorPaths) {
  auto node = make_traced_node(true);
  fetch_trace(*node);
  fetch_trace(*node);

  Json listing = Json::parse(node->call("GET", "/ei_trace").body);
  EXPECT_TRUE(listing.at("enabled").as_bool());
  // fetch_trace issues /ei_algorithms + /ei_trace/{id}; both are traced.
  const auto& ids = listing.at("traces").as_array();
  EXPECT_GE(ids.size(), 2u);

  EXPECT_EQ(node->call("GET", "/ei_trace/12345").status, 404);
  EXPECT_EQ(node->call("GET", "/ei_trace/not-a-number").status, 400);

  // Tracing disabled: no trace_id in responses, /ei_trace/{id} explains.
  core::EdgeNodeConfig config{hwsim::raspberry_pi_4(),
                              hwsim::openei_package(), 16, {}};
  core::EdgeNode plain(std::move(config));
  common::Rng rng(99);
  plain.deploy_model("safety", "detection",
                     nn::zoo::make_mlp("detector", 8, 3, {4}, rng), 0.9);
  plain.ingest("cam", 1.0, Json(common::JsonArray{
                               Json(1.0), Json(2.0), Json(3.0), Json(4.0),
                               Json(1.0), Json(2.0), Json(3.0), Json(4.0)}));
  auto response = plain.call(
      "GET", "/ei_algorithms/safety/detection?sensor=cam&timestamp=1");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(Json::parse(response.body).find("trace_id"), nullptr);
  auto missing = plain.call("GET", "/ei_trace/1");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("disabled"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Streaming golden traces: the canonical span tree of one streamed frame,
// on the delivered path and on the drop path.
// ---------------------------------------------------------------------------

TEST(TraceGolden, StreamedFrameEmitsCanonicalSpanTree) {
  auto node = make_traced_node(/*coalesce=*/true);
  auto opened = node->call(
      "POST", "/ei_stream?scenario=safety&algorithm=detection&policy=block");
  ASSERT_EQ(opened.status, 201);
  std::string stream_id = Json::parse(opened.body).at("stream").as_string();

  auto submitted = node->call("POST", "/ei_stream/" + stream_id + "/frames",
                              "[[1,2,3,4,5,6,7,8]]");
  ASSERT_EQ(submitted.status, 200);
  Json verdicts = Json::parse(submitted.body);
  ASSERT_EQ(verdicts.at("accepted").as_number(), 1.0);
  std::string trace_id =
      verdicts.at("frames").as_array()[0].at("trace_id").as_string();
  ASSERT_FALSE(trace_id.empty());

  // The frame's trace finishes when the worker delivers it — poll until the
  // tracer has committed it.
  net::HttpResponse traced;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    traced = node->call("GET", "/ei_trace/" + trace_id);
    if (traced.status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(traced.status, 200);
  Json trace = Json::parse(traced.body);

  const Json& root = trace.at("root");
  EXPECT_EQ(root.at("name").as_string(), "stream.frame");
  // The golden delivered-path shape: admission, queue residency, inference,
  // delivery — exactly these four, in pipeline order.
  EXPECT_EQ(child_names(root),
            (std::vector<std::string>{"stream.enqueue", "stream.queue_wait",
                                      "stream.infer", "stream.deliver"}));
  EXPECT_EQ(trace.at("span_count").as_number(), 5.0);

  const Json& root_attrs = root.at("attributes");
  EXPECT_EQ(root_attrs.at("session").as_string(), stream_id);
  EXPECT_EQ(root_attrs.at("model").as_string(), "detector");
  EXPECT_EQ(root_attrs.at("policy").as_string(), "block");
  EXPECT_EQ(root_attrs.at("seq").as_number(), 1.0);

  const Json& enqueue = child_named(root, "stream.enqueue");
  EXPECT_EQ(enqueue.at("attributes").at("outcome").as_string(), "admitted");
  EXPECT_EQ(enqueue.at("attributes").at("policy").as_string(), "block");
  EXPECT_EQ(enqueue.at("attributes").at("depth").as_number(), 1.0);
  EXPECT_EQ(enqueue.at("attributes").at("evicted").as_number(), 0.0);

  // stream.infer carries the simulated ALEM attribution, like ei.infer.
  const Json& infer = child_named(root, "stream.infer");
  const Json& infer_attrs = infer.at("attributes");
  EXPECT_EQ(infer_attrs.at("model").as_string(), "detector");
  EXPECT_GE(infer_attrs.at("queue_wait_us").as_number(), 0.0);
  EXPECT_GT(infer_attrs.at("sim_latency_us").as_number(), 0.0);
  EXPECT_GT(infer_attrs.at("sim_energy_mj").as_number(), 0.0);
  EXPECT_GT(infer_attrs.at("sim_memory_bytes").as_number(), 0.0);

  EXPECT_GE(child_named(root, "stream.queue_wait").at("duration_us")
                .as_number(),
            0.0);
  node->call("DELETE", "/ei_stream/" + stream_id);
}

TEST(TraceGolden, DroppedStreamFrameEmitsDropSpanTree) {
  // Drop path, pinned deterministically in-process: a fake clock expires the
  // frame between admission and pop, so the tree must close with
  // stream.drop{reason=deadline} instead of infer/deliver.
  obs::Tracer::Options trace_options;
  trace_options.enabled = true;
  trace_options.seed = 2026;
  obs::Tracer tracer(trace_options);

  std::int64_t now_ns = 0;
  stream::FrameQueue::Options options;
  options.capacity = 4;
  options.policy = stream::AdmitPolicy::kBlock;
  options.deadline_s = 0.001;
  options.now = [&now_ns] { return now_ns; };
  stream::FrameQueue queue(options);

  stream::Frame frame;
  frame.rows = nn::Tensor(tensor::Shape{1, 1});
  frame.span = tracer.begin_trace("stream.frame");
  std::uint64_t trace_id = frame.span.trace_id();
  ASSERT_EQ(queue.push(std::move(frame)).outcome,
            stream::PushOutcome::kAdmitted);

  now_ns = 2'000'000;  // past the 1ms deadline
  EXPECT_FALSE(queue.try_pop().has_value());
  EXPECT_EQ(queue.counters().dropped_deadline, 1U);

  auto record = tracer.find(trace_id);
  ASSERT_TRUE(record.has_value());
  Json trace = record->to_json();
  const Json& root = trace.at("root");
  EXPECT_EQ(root.at("name").as_string(), "stream.frame");
  // The golden drop-path shape: the frame was admitted and waited, then the
  // deadline killed it before inference — no infer/deliver spans exist.
  EXPECT_EQ(child_names(root),
            (std::vector<std::string>{"stream.enqueue", "stream.queue_wait",
                                      "stream.drop"}));
  EXPECT_EQ(trace.at("span_count").as_number(), 4.0);

  const Json& drop = child_named(root, "stream.drop");
  EXPECT_EQ(drop.at("attributes").at("reason").as_string(), "deadline");
  EXPECT_EQ(drop.at("attributes").at("seq").as_number(), 1.0);
  EXPECT_GE(drop.at("attributes").at("waited_us").as_number(), 0.0);
}

}  // namespace
}  // namespace openei::libei
