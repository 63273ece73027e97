#include "workloads.h"

#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/json.h"
#include "compress/quantize_model.h"
#include "hwsim/package.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "runtime/inference.h"
#include "selector/capability_db.h"
#include "selector/selecting_algorithm.h"

namespace openei::bench_e2e {

using common::Json;
using common::JsonArray;
using common::Rng;

std::string Template::wire(std::uint64_t rid) const {
  std::string out;
  out.reserve(target.size() + body.size() + 128);
  out += method;
  out += ' ';
  out += target;
  out += target.find('?') == std::string::npos ? "?rid=" : "&rid=";
  out += std::to_string(rid);
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (method == "POST") {
    out += "Content-Type: application/json\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

net::HttpRequest Template::parsed(std::uint64_t rid) const {
  net::HttpRequest request;
  request.method = method;
  net::parse_target(target, request.path, request.query);
  request.query["rid"] = std::to_string(rid);
  request.body = body;
  return request;
}

selector::SelectionRequest selection_for(
    const std::map<std::string, std::string>& query, const std::string& device) {
  selector::SelectionRequest request;
  request.device_name = device;
  request.objective = selector::Objective::kMaxAccuracy;
  if (auto it = query.find("objective");
      it != query.end() && it->second == "latency") {
    request.objective = selector::Objective::kMinLatency;
  }
  if (auto it = query.find("min_accuracy"); it != query.end()) {
    request.requirements.min_accuracy = std::stod(it->second);
  }
  return request;
}

selector::CapabilityDatabase capabilities(const WorkloadSpec& spec,
                                          const std::string& path,
                                          const hwsim::DeviceProfile& device) {
  selector::CapabilityDatabase db;
  for (const Deployment& d : spec.deployments) {
    if (path == "/ei_algorithms/" + d.scenario + "/" + d.algorithm) {
      db.add(selector::estimate_capability(spec.models[d.model], d.accuracy,
                                           hwsim::openei_package(), device));
    }
  }
  return db;
}

bool matches(const Template& request, int status, std::string_view body) {
  if (status != request.expect_status) return false;
  for (const std::string& needle : request.expect) {
    if (body.find(needle) == std::string_view::npos) return false;
  }
  return true;
}

namespace {

/// Seeded input row as JSON text: fixed-point decimals (no exponent, no '+'
/// that a query decoder could turn into a space).
std::string random_row(Rng& rng, std::size_t elems) {
  std::string out = "[[";
  char buf[16];
  for (std::size_t i = 0; i < elems; ++i) {
    int n = std::snprintf(buf, sizeof(buf), "%.3f", rng.uniform(-1.0, 1.0));
    if (i > 0) out += ',';
    out.append(buf, static_cast<std::size_t>(n));
  }
  out += "]]";
  return out;
}

/// Eq. 1's pick for a request to `path` with query `query` on `device`.
std::string expected_pick(const WorkloadSpec& spec, const std::string& path,
                          const std::string& query,
                          const hwsim::DeviceProfile& device) {
  std::string ignored;
  std::map<std::string, std::string> params;
  net::parse_target("/?" + query, ignored, params);
  auto chosen = selector::select(capabilities(spec, path, device),
                                 selection_for(params, device.name));
  if (!chosen.has_value()) {
    throw std::runtime_error("Eq. 1 picks nothing for '" + query + "'");
  }
  return chosen->model_name;
}

/// Fills an inference template's oracle: the expected model and the
/// predictions that model computes in-process on the exact decoded input.
void set_oracle(Template& t, const WorkloadSpec& spec, const std::string& model,
                const hwsim::DeviceProfile& device,
                std::map<std::string, runtime::InferenceSession>& sessions) {
  auto it = sessions.find(model);
  if (it == sessions.end()) {
    for (const nn::Model& m : spec.models) {
      if (m.name() == model) {
        it = sessions
                 .emplace(model, runtime::InferenceSession(
                                     m.clone(), hwsim::openei_package(), device))
                 .first;
      }
    }
  }
  const nn::Model& served = it->second.model();
  nn::Tensor batch =
      runtime::rows_to_batch(Json::parse(t.input), served.input_shape());
  t.model = model;
  t.predictions = it->second.run(batch).predictions;
  JsonArray predictions;
  for (std::size_t p : t.predictions) predictions.emplace_back(p);
  t.expect = {"\"model\":" + Json(model).dump(),
              "\"predictions\":" + Json(std::move(predictions)).dump()};
}

Template swap_template(const WorkloadSpec& spec, const Deployment& d) {
  const nn::Model& model = spec.models[d.model];
  char accuracy[32];
  std::snprintf(accuracy, sizeof(accuracy), "%.2f", d.accuracy);
  Template t;
  t.method = "POST";
  t.target = "/ei_models?scenario=" + d.scenario + "&algorithm=" + d.algorithm +
             "&accuracy=" + accuracy;
  t.body = nn::model_to_json(model).dump();
  t.expect_status = 201;
  t.expect = {"\"deployed\":" + Json(model.name()).dump()};
  t.swap = true;
  t.model = model.name();
  return t;
}

// --- vgg_infer ---------------------------------------------------------------
// One node serves mini-VGG as fp32 and its int8 twin under one key; half the
// requests ask for objective=latency (Eq. 1 picks int8), half take the
// default accuracy objective (fp32).
WorkloadSpec make_vgg(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = "vgg_infer";
  spec.rate_rps = 900.0;
  spec.limit_ms = 25.0;
  spec.devices = {hwsim::edge_fpga()};
  Rng model_rng(11);
  nn::zoo::ImageSpec image;  // 3x16x16 -> 4 classes
  nn::Model fp32 = nn::zoo::make_mini_vgg(image, model_rng);
  fp32.set_name("vgg_fp32");
  // Calibrated (fixed activation scales), so a request's answer does not
  // depend on which other requests share its micro-batch: with per-call
  // dynamic ranges a fused batch changes about 1% of int8 answers.
  Rng calibration_rng(12);
  nn::Tensor calibration(tensor::Shape{64, image.channels, image.size, image.size});
  for (float& v : calibration.data()) v = calibration_rng.uniform_float(-1.0F, 1.0F);
  nn::Model int8 = compress::quantize_int8(fp32, calibration).model;
  int8.set_name("vgg_int8");
  spec.models.push_back(std::move(fp32));
  spec.models.push_back(std::move(int8));
  spec.deployments = {{"vision", "classify", 0, 0.92},
                      {"vision", "classify", 1, 0.91}};

  const hwsim::DeviceProfile& device = spec.devices[0];
  const std::string path = "/ei_algorithms/vision/classify";
  std::string accurate = expected_pick(spec, path, "", device);
  std::string fast = expected_pick(spec, path, "objective=latency", device);
  if (accurate != "vgg_fp32" || fast != "vgg_int8") {
    throw std::runtime_error("vgg_infer: Eq. 1 picks " + accurate + " / " +
                             fast + ", expected vgg_fp32 / vgg_int8");
  }
  std::map<std::string, runtime::InferenceSession> sessions;
  Rng rng(seed);
  const std::size_t kImages = 256;
  const std::size_t elems = spec.models[0].input_shape().elements();
  for (std::size_t i = 0; i < kImages; ++i) {
    std::string image_json = random_row(rng, elems);
    for (bool latency : {false, true}) {
      Template t;
      t.method = "POST";
      t.target = latency ? "/ei_algorithms/vision/classify?objective=latency"
                         : "/ei_algorithms/vision/classify";
      t.body = image_json;
      t.input = image_json;
      set_oracle(t, spec, latency ? fast : accurate, device, sessions);
      spec.pool.push_back(std::move(t));
    }
  }
  std::size_t reads = spec.pool.size();
  spec.pick = [reads](Rng& r) {
    return static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(reads) - 1));
  };
  spec.pool.push_back(swap_template(spec, spec.deployments[0]));
  spec.swaps = {reads};
  return spec;
}

// --- mlp_fleet ---------------------------------------------------------------
// Four nodes behind a fleet::Router front door (replication 2), 8 keys of an
// 8->{4}->3 MLP; the key is uniform, the input drawn from a seeded pool.
WorkloadSpec make_mlp_fleet(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = "mlp_fleet";
  spec.rate_rps = 3500.0;
  spec.limit_ms = 10.0;
  spec.devices = {hwsim::raspberry_pi_4(), hwsim::jetson_tx2(),
                  hwsim::edge_server(), hwsim::mobile_phone()};
  spec.fleet = true;
  const std::size_t kKeys = 8;
  const std::size_t kInputs = 64;
  const std::size_t kSessions = 16;
  for (std::size_t k = 0; k < kKeys; ++k) {
    Rng model_rng(100 + k);
    spec.models.push_back(nn::zoo::make_mlp("det" + std::to_string(k), 8, 3,
                                            {4}, model_rng));
    spec.deployments.push_back(
        {"scenario" + std::to_string(k), "detect", k, 0.90});
  }
  // Every node computes the same answer for a key (Eq. 1 has one candidate),
  // so the oracle can run on any profile.
  std::map<std::string, runtime::InferenceSession> sessions;
  Rng rng(seed);
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < kInputs; ++i) inputs.push_back(random_row(rng, 8));
  for (std::size_t k = 0; k < kKeys; ++k) {
    for (std::size_t i = 0; i < kInputs; ++i) {
      Template t;
      t.method = "GET";
      t.target = "/ei_algorithms/scenario" + std::to_string(k) +
                 "/detect?input=" + inputs[i] + "&session=s" +
                 std::to_string((k * kInputs + i) % kSessions);
      t.input = inputs[i];
      set_oracle(t, spec, spec.models[k].name(), spec.devices[0], sessions);
      spec.pool.push_back(std::move(t));
    }
  }
  std::size_t reads = spec.pool.size();
  spec.pick = [reads](Rng& r) {
    return static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(reads) - 1));
  };
  spec.pool.push_back(swap_template(spec, spec.deployments[0]));
  spec.swaps = {reads};
  return spec;
}

// --- model_churn -------------------------------------------------------------
// One node holds 6 keys x 4 MLP widths under a SessionCache budget of about a
// third of them.  Reads pick a key by Zipf popularity and one of four
// requirement classes, each of which Eq. 1 maps to exactly one width; 1 in
// 50 requests hot-swaps a deployed variant with identical weights.
WorkloadSpec make_churn(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = "model_churn";
  spec.rate_rps = 1500.0;
  spec.limit_ms = 25.0;
  spec.devices = {hwsim::edge_server()};
  const std::size_t kKeys = 6;
  const std::size_t kInputs = 64;
  const std::size_t kFeatures = 16;
  const std::vector<std::size_t> widths = {8, 32, 128, 512};
  const std::vector<double> accuracies = {0.80, 0.85, 0.90, 0.95};
  const std::vector<std::string> classes = {
      "objective=latency", "objective=latency&min_accuracy=0.84",
      "objective=latency&min_accuracy=0.89", ""};
  const hwsim::DeviceProfile& device = spec.devices[0];
  std::size_t session_bytes = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    for (std::size_t v = 0; v < widths.size(); ++v) {
      Rng model_rng(200 + k * widths.size() + v);
      std::string name =
          "churn" + std::to_string(k) + "_w" + std::to_string(widths[v]);
      spec.models.push_back(
          nn::zoo::make_mlp(name, kFeatures, 4, {widths[v]}, model_rng));
      spec.deployments.push_back({"churn" + std::to_string(k), "detect",
                                  spec.models.size() - 1, accuracies[v]});
      session_bytes += hwsim::estimate_inference(spec.models.back(),
                                                 hwsim::openei_package(), device)
                           .memory_bytes;
    }
  }
  spec.budget_bytes = session_bytes / 3;

  // Setup check: each requirement class selects a different width.
  std::vector<std::vector<std::string>> picks(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    std::string path = "/ei_algorithms/churn" + std::to_string(k) + "/detect";
    for (std::size_t c = 0; c < classes.size(); ++c) {
      picks[k].push_back(expected_pick(spec, path, classes[c], device));
      const std::string& want = spec.models[k * widths.size() + c].name();
      if (picks[k].back() != want) {
        throw std::runtime_error("model_churn: class '" + classes[c] +
                                 "' picks " + picks[k].back() + ", expected " +
                                 want);
      }
    }
  }

  std::map<std::string, runtime::InferenceSession> sessions;
  Rng rng(seed);
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(random_row(rng, kFeatures));
  }
  for (std::size_t k = 0; k < kKeys; ++k) {
    for (std::size_t c = 0; c < classes.size(); ++c) {
      for (std::size_t i = 0; i < kInputs; ++i) {
        Template t;
        t.method = "GET";
        t.target = "/ei_algorithms/churn" + std::to_string(k) +
                   "/detect?input=" + inputs[i] +
                   (classes[c].empty() ? "" : "&" + classes[c]);
        t.input = inputs[i];
        set_oracle(t, spec, picks[k][c], device, sessions);
        spec.pool.push_back(std::move(t));
      }
    }
  }
  std::size_t reads = spec.pool.size();
  for (const Deployment& d : spec.deployments) {
    spec.pool.push_back(swap_template(spec, d));
  }
  // The bursts between rounds re-POST each key's widest variant: the largest
  // model bodies, and one body size, so their latencies are not a mix of four.
  for (std::size_t k = 0; k < kKeys; ++k) {
    spec.swaps.push_back(reads + k * widths.size() + widths.size() - 1);
  }
  // Zipf(1) key popularity: key k has weight 1/(k+1).
  std::vector<double> cumulative;
  double total = 0.0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cumulative.push_back(total);
  }
  std::size_t variants = spec.deployments.size();
  spec.pick = [=](Rng& r) -> std::size_t {
    if (r.uniform_int(0, 49) == 0) {
      return reads + static_cast<std::size_t>(
                         r.uniform_int(0, static_cast<std::int64_t>(variants) - 1));
    }
    double u = r.uniform(0.0, total);
    std::size_t key = 0;
    while (key + 1 < kKeys && u >= cumulative[key]) ++key;
    auto cls = static_cast<std::size_t>(r.uniform_int(0, 3));
    auto input = static_cast<std::size_t>(
        r.uniform_int(0, static_cast<std::int64_t>(kInputs) - 1));
    return (key * 4 + cls) * kInputs + input;
  };
  return spec;
}

}  // namespace

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "vgg_infer") return make_vgg(seed);
  if (name == "mlp_fleet") return make_mlp_fleet(seed);
  if (name == "model_churn") return make_churn(seed);
  throw std::runtime_error("unknown workload '" + name + "'");
}

Topology::~Topology() {
  // Front door first (it forwards into the nodes), then the router's own
  // server, then the node servers, then the nodes they call into.
  if (front_server) front_server->stop();
  front_server.reset();
  router.reset();
  for (auto& server : node_servers) server->stop();
  node_servers.clear();
  nodes.clear();
}

net::ServerStats Topology::node_stats(std::size_t i) const {
  return node_servers.empty() ? nodes[i]->server_stats()
                              : node_servers[i]->stats();
}

namespace {

/// Handler that times `inner` into `log` under the request's rid, whether
/// it returns or throws.
net::HttpServer::Handler timed(net::HttpServer::Handler inner, SpanLog* log) {
  return [inner = std::move(inner), log](const net::HttpRequest& request) {
    struct Span {
      SpanLog* log;
      std::uint64_t rid;
      std::int64_t start = now_ns();
      ~Span() {
        if (rid != 0) log->record(rid, now_ns() - start);
      }
    } span{log, request_id(request)};
    return inner(request);
  };
}

}  // namespace

std::unique_ptr<Topology> start_topology(const WorkloadSpec& spec,
                                         Spans* spans) {
  auto topo = std::make_unique<Topology>();
  libei::EiService::Options service;
  service.lifecycle.budget_bytes = spec.budget_bytes;
  for (const hwsim::DeviceProfile& device : spec.devices) {
    core::EdgeNodeConfig config{device, hwsim::openei_package(), 4096, service};
    topo->nodes.push_back(std::make_unique<core::EdgeNode>(std::move(config)));
    core::EdgeNode& node = *topo->nodes.back();
    if (spans != nullptr) {
      libei::EiService* ei = &node.service();
      topo->node_servers.push_back(std::make_unique<net::HttpServer>(
          0,
          timed([ei](const net::HttpRequest& r) { return ei->handle(r); },
                &spans->node)));
      topo->node_ports.push_back(topo->node_servers.back()->port());
    } else {
      topo->node_ports.push_back(node.start_server(0));
    }
  }
  if (spec.fleet) {
    std::vector<fleet::NodeEndpoint> endpoints;
    for (std::size_t i = 0; i < topo->node_ports.size(); ++i) {
      endpoints.push_back({"node" + std::to_string(i), topo->node_ports[i]});
    }
    topo->router = std::make_unique<fleet::Router>(std::move(endpoints));
    for (const Deployment& d : spec.deployments) {
      topo->router->deploy(d.scenario, d.algorithm,
                           nn::model_to_json(spec.models[d.model]).dump(),
                           d.accuracy);
    }
    if (spans != nullptr) {
      fleet::Router* router = topo->router.get();
      topo->front_server = std::make_unique<net::HttpServer>(
          0, timed([router](const net::HttpRequest& r) { return router->route(r); },
                   &spans->front));
      topo->port = topo->front_server->port();
    } else {
      topo->port = topo->router->start_server(0);
    }
  } else {
    for (const Deployment& d : spec.deployments) {
      topo->nodes[0]->deploy_model(d.scenario, d.algorithm,
                                   spec.models[d.model].clone(), d.accuracy);
    }
    topo->port = topo->node_ports[0];
  }
  return topo;
}

bool answered(const Template& request, std::uint16_t port) {
  try {
    net::HttpClient client(port);
    std::string target = request.target +
                         (request.target.find('?') == std::string::npos ? "?" : "&") +
                         "rid=0";
    net::HttpResponse response = request.method == "POST"
                                     ? client.post(target, request.body)
                                     : client.get(target);
    return matches(request, response.status, response.body);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace openei::bench_e2e
