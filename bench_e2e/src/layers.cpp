#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

#include "common/json.h"
#include "hwsim/package.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "runtime/inference.h"
#include "runtime/session_cache.h"
#include "selector/capability_db.h"
#include "selector/selecting_algorithm.h"
#include "tensor/pack.h"

namespace openei::bench_e2e {

using common::Json;

namespace {

/// Router::meter() counters: routed requests, forward attempts, failovers.
void add_router_counts(fleet::Router& router, std::size_t nodes, Counters& c) {
  obs::MetricsRegistry& meter = router.meter();
  for (const char* outcome : {"ok", "failover", "miss", "failed", "no_node"}) {
    c.fleet_requests +=
        meter.counter("ei_fleet_requests_total", {{"outcome", outcome}}).value();
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    for (const char* outcome : {"ok", "miss", "error"}) {
      c.fleet_forwards +=
          meter
              .counter("ei_fleet_forwards_total",
                       {{"node", "node" + std::to_string(i)}, {"outcome", outcome}})
              .value();
    }
  }
  c.fleet_failovers += meter.counter("ei_fleet_failovers_total").value();
}

}  // namespace

Counters snapshot(Topology& topo) {
  Counters c;
  for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
    libei::EiService& service = topo.nodes[i]->service();
    runtime::SessionCache::Stats cache = service.lifecycle().stats();
    c.cache_hits += static_cast<double>(cache.hits);
    c.cache_misses += static_cast<double>(cache.misses);
    c.cache_evictions += static_cast<double>(cache.evictions);
    libei::EiService::Metrics m = service.metrics();
    c.algorithm_requests += static_cast<double>(m.algorithm_requests);
    c.batch_flushes += static_cast<double>(m.batch_flushes);
    net::ServerStats s = topo.node_stats(i);
    c.conns_accepted += static_cast<double>(s.connections_accepted);
    c.requests_served += static_cast<double>(s.requests_served);
    c.keepalive_reuses += static_cast<double>(s.keepalive_reuses);
    c.energy_j += service.energy_governor().snapshot().ledger.total_j;
  }
  if (topo.router) add_router_counts(*topo.router, topo.nodes.size(), c);
  return c;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double us_since(std::int64_t start) { return (now_ns() - start) * 1e-3; }

std::size_t node_of(const Topology& topo, const net::HttpRequest& request) {
  if (!topo.router) return 0;
  std::string owner =
      topo.router->owners_of(fleet::Router::routing_key(request)).front();
  return std::stoul(owner.substr(4));  // "node<i>"
}

struct GemmShape {
  std::size_t m, k, n;
};

/// The GEMM each weight layer of `model` runs for one sample.
std::vector<GemmShape> gemm_shapes(const nn::Model& model) {
  std::vector<GemmShape> shapes;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const nn::Layer& layer = model.layer(i);
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
      tensor::Shape out = model.shape_after(i + 1);
      shapes.push_back({out.dim(1) * out.dim(2),
                        conv->spec().in_channels * conv->spec().kernel *
                            conv->spec().kernel,
                        conv->spec().out_channels});
    } else if (const auto* dense = dynamic_cast<const nn::Dense*>(&layer)) {
      shapes.push_back({1, dense->in_features(), dense->out_features()});
    }
  }
  return shapes;
}

/// tensor layer: gemm_packed at every mini-VGG layer shape, and the fp32
/// mini-VGG forward (run_rows) those kernels sit inside.
void tensor_probe(std::vector<Metric>& out) {
  common::Rng rng(11);
  nn::Model vgg = nn::zoo::make_mini_vgg(nn::zoo::ImageSpec{}, rng);
  const int kReps = 200;
  double gemm_sum = 0.0;
  std::size_t index = 0;
  for (const GemmShape& g : gemm_shapes(vgg)) {
    std::vector<float> a(g.m * g.k), b(g.k * g.n), bias(g.n), c(g.m * g.n);
    for (float& v : a) v = rng.uniform_float(-1.0F, 1.0F);
    for (float& v : b) v = rng.uniform_float(-1.0F, 1.0F);
    tensor::PackedMatrix packed = tensor::PackedMatrix::pack(b.data(), g.k, g.n);
    std::vector<double> times;
    for (int r = 0; r < kReps + 20; ++r) {
      std::int64_t t = now_ns();
      tensor::gemm_packed(a.data(), g.m, packed, bias.data(), true, false,
                          c.data());
      if (r >= 20) times.push_back(us_since(t));
    }
    double us = iqm(times);
    gemm_sum += us;
    out.push_back({"tensor.gemm_us.L" + std::to_string(index++), us, "us"});
  }
  runtime::InferenceSession session(vgg.clone(), hwsim::openei_package(),
                                    hwsim::edge_fpga());
  std::vector<float> image(vgg.input_shape().elements());
  for (float& v : image) v = rng.uniform_float(-1.0F, 1.0F);
  std::vector<double> times;
  for (int r = 0; r < kReps + 20; ++r) {
    std::int64_t t = now_ns();
    session.run_rows(image.data(), 1);
    if (r >= 20) times.push_back(us_since(t));
  }
  double forward_us = iqm(times);
  out.push_back({"tensor.gemm_share", ratio(gemm_sum, forward_us), "ratio"});
  out.push_back({"tensor.forward_gflops",
                 static_cast<double>(vgg.flops_per_sample()) / (forward_us * 1e3),
                 "GFLOP/s"});
}

}  // namespace

std::vector<Metric> layer_metrics(const WorkloadSpec& spec, Topology& topo,
                                  const LoadRun& run, const Spans& spans,
                                  std::uint64_t first_free_rid,
                                  std::uint64_t seed,
                                  std::vector<std::string>& notes,
                                  bool& replay_correct) {
  std::vector<Metric> out;
  char line[256];
  tensor_probe(out);

  // --- Load-window counters ------------------------------------------------
  const Counters& b = run.before;
  const Counters& a = run.after;
  double requests = static_cast<double>(run.closed.samples.size() +
                                        run.open.samples.size());
  double stalls = 0.0;
  std::vector<double> lateness;
  for (const Phase* phase : {&run.closed, &run.open}) {
    for (const Sample& s : phase->samples) stalls += s.service_ms() > 100.0 ? 1 : 0;
  }
  for (const Sample& s : run.open.samples) lateness.push_back(s.lateness_ms());

  // --- Load spans: client latency vs the handler spans (closed loop) --------
  std::uint64_t max_rid = first_free_rid + 4096;
  std::vector<std::int64_t> node_span = spans.node.by_rid(max_rid);
  std::vector<std::int64_t> front_span = spans.front.by_rid(max_rid);
  const std::vector<std::int64_t>& outer = topo.router ? front_span : node_span;
  std::vector<double> client_us, outer_us, net_self_us, handle_us, route_us,
      route_self_us;
  for (const Sample& s : run.closed.samples) {
    if (s.outcome != Outcome::kOk || s.swap || outer[s.rid] == 0) continue;
    double client = s.service_ms() * 1e3;
    double outer_one = outer[s.rid] * 1e-3;
    client_us.push_back(client);
    outer_us.push_back(outer_one);
    net_self_us.push_back(client - outer_one);
    if (node_span[s.rid] != 0) handle_us.push_back(node_span[s.rid] * 1e-3);
    if (topo.router && node_span[s.rid] != 0) {
      route_us.push_back(outer_one);
      route_self_us.push_back(outer_one - node_span[s.rid] * 1e-3);
    }
  }

  // --- Sequential replay through each layer's public calls ------------------
  const std::size_t kReplay = 300;
  common::Rng rng(seed ^ 0x5eedULL);
  std::vector<std::size_t> sample;
  while (sample.size() < kReplay) {
    std::size_t t = spec.pick(rng);
    if (!spec.pool[t].swap) sample.push_back(t);
  }
  std::vector<double> replay_handle, select_us, candidates, parse_us,
      acquire_us, run_rows_us, dump_us, libei_self, residual;
  std::vector<float> rows;
  std::map<std::string, selector::CapabilityDatabase> dbs;
  std::size_t replay_wrong = 0;
  std::uint64_t rid = first_free_rid;
  for (std::size_t t : sample) {
    const Template& tmpl = spec.pool[t];
    net::HttpRequest request = tmpl.parsed(rid++);
    std::size_t n = node_of(topo, request);
    core::EdgeNode& node = *topo.nodes[n];
    runtime::SessionCache& cache = node.service().lifecycle();
    // Warm the model first so handle and its children all see the warm path
    // (cold misses are measured separately below).
    runtime::SessionCache::Lease pinned = cache.acquire(tmpl.model, true);

    std::int64_t start = now_ns();
    net::HttpResponse response = node.service().handle(request);
    double handle = us_since(start);
    if (!matches(tmpl, response.status, response.body)) ++replay_wrong;

    std::string key = std::to_string(n) + request.path;
    auto db = dbs.find(key);
    if (db == dbs.end()) {
      db = dbs.emplace(key, capabilities(spec, request.path, node.device())).first;
    }
    selector::SelectionRequest selection =
        selection_for(request.query, node.device().name);
    selector::SelectionStats stats;
    start = now_ns();
    auto chosen = selector::select(db->second, selection, &stats);
    double select = us_since(start);
    if (!chosen.has_value() || chosen->model_name != tmpl.model) ++replay_wrong;

    start = now_ns();
    runtime::SessionCache::Lease lease = cache.acquire(tmpl.model, true);
    double acquire = us_since(start);

    start = now_ns();
    std::size_t row_count = runtime::rows_to_floats(
        Json::parse(tmpl.input), lease.session->model().input_shape(), rows);
    double parse = us_since(start);

    start = now_ns();
    runtime::InferenceResult result = lease.session->run_rows(rows.data(), row_count);
    double forward = us_since(start);
    if (result.predictions != tmpl.predictions) ++replay_wrong;

    Json body = Json::parse(response.body);
    start = now_ns();
    std::string dumped = body.dump();
    double dump = us_since(start);

    replay_handle.push_back(handle);
    select_us.push_back(select);
    candidates.push_back(static_cast<double>(stats.evaluated));
    acquire_us.push_back(acquire);
    parse_us.push_back(parse);
    run_rows_us.push_back(forward);
    dump_us.push_back(dump);
    libei_self.push_back(handle - (select + acquire + parse + forward + dump));
    residual.push_back(forward * 1e-6 / lease.session->per_sample_cost().latency_s);
  }

  // --- fleet layer without a front door: replay through a one-node Router ---
  double fleet_forwards_per_req = ratio(a.fleet_forwards - b.fleet_forwards,
                                        a.fleet_requests - b.fleet_requests);
  double fleet_failovers = a.fleet_failovers - b.fleet_failovers;
  if (!topo.router) {
    fleet::RouterOptions options;
    options.replication = 1;
    fleet::Router router({{"node0", topo.node_ports[0]}}, options);
    std::uint64_t route_rid = rid;
    std::vector<std::pair<std::uint64_t, double>> routed;
    for (std::size_t t : sample) {
      net::HttpRequest request = spec.pool[t].parsed(rid++);
      std::int64_t start = now_ns();
      net::HttpResponse response = router.route(request);
      routed.emplace_back(request_id(request), us_since(start));
      if (!matches(spec.pool[t], response.status, response.body)) ++replay_wrong;
    }
    std::vector<std::int64_t> spans_now = spans.node.by_rid(rid);
    for (const auto& [id, us] : routed) {
      if (id < route_rid || spans_now[id] == 0) continue;
      route_us.push_back(us);
      route_self_us.push_back(us - spans_now[id] * 1e-3);
    }
    Counters routed_counters;
    add_router_counts(router, 1, routed_counters);
    fleet_forwards_per_req =
        ratio(routed_counters.fleet_forwards, routed_counters.fleet_requests);
    fleet_failovers = routed_counters.fleet_failovers;
  }

  // --- Cold materialization and model-body parsing --------------------------
  std::vector<double> materialize_ms, model_parse_ms;
  std::vector<std::string> cold_models;
  for (std::size_t t : sample) {
    const std::string& m = spec.pool[t].model;
    if (cold_models.size() < 4 &&
        std::find(cold_models.begin(), cold_models.end(), m) == cold_models.end()) {
      cold_models.push_back(m);
    }
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& m : cold_models) {
      core::EdgeNode* holder = topo.nodes[0].get();
      for (auto& candidate : topo.nodes) {
        if (candidate->registry().contains(m)) holder = candidate.get();
      }
      runtime::SessionCache::Options options;
      options.budget_bytes = std::size_t{1} << 40;
      runtime::SessionCache cold(holder->registry(), holder->package(),
                                 holder->device(), options);
      std::int64_t start = now_ns();
      cold.acquire(m, false);
      materialize_ms.push_back(us_since(start) * 1e-3);
    }
    for (std::size_t s = 0; s < std::min<std::size_t>(spec.swaps.size(), 4); ++s) {
      const std::string& body = spec.pool[spec.swaps[s]].body;
      std::int64_t start = now_ns();
      nn::Model model = nn::model_from_json(Json::parse(body));
      model_parse_ms.push_back(us_since(start) * 1e-3);
    }
  }

  replay_correct = replay_wrong == 0;
  std::snprintf(line, sizeof(line),
                "replay: %zu requests through EiService::handle + children, "
                "%zu mismatches",
                sample.size(), replay_wrong);
  notes.emplace_back(line);

  double handle_iqm = iqm(replay_handle);
  double children = iqm(select_us) + iqm(acquire_us) + iqm(parse_us) +
                    iqm(run_rows_us) + iqm(dump_us);
  double libei_self_us = iqm(libei_self);
  double libei_parts = ratio(libei_self_us + children, handle_iqm);
  double net_self = iqm(net_self_us);
  double net_parts = ratio(net_self + iqm(outer_us), iqm(client_us));
  for (auto [name, value, whole] :
       {std::tuple{"libei", libei_parts, handle_iqm},
        std::tuple{"net", net_parts, iqm(client_us)}}) {
    bool ok = std::abs(value - 1.0) <= kPartsTolerance;
    std::snprintf(line, sizeof(line),
                  "parts check %s: self + children = %.3f of the whole "
                  "(%.1f us; tolerance %.0f%%) %s",
                  name, value, whole, kPartsTolerance * 100, ok ? "PASS" : "FAIL");
    notes.emplace_back(line);
  }

  out.push_back({"runtime.run_rows_us", iqm(run_rows_us), "us"});
  out.push_back({"runtime.batch_rows_mean",
                 ratio(a.algorithm_requests - b.algorithm_requests,
                       a.batch_flushes - b.batch_flushes),
                 "rows"});
  out.push_back({"runtime.acquire_us", iqm(acquire_us), "us"});
  out.push_back({"runtime.materialize_ms", iqm(materialize_ms), "ms"});
  out.push_back({"runtime.cache_hit_ratio",
                 ratio(a.cache_hits - b.cache_hits,
                       (a.cache_hits - b.cache_hits) +
                           (a.cache_misses - b.cache_misses)),
                 "ratio"});
  out.push_back({"runtime.evictions_per_1k",
                 1e3 * ratio(a.cache_evictions - b.cache_evictions, requests),
                 "count"});
  out.push_back({"selector.select_us", iqm(select_us), "us"});
  out.push_back({"selector.candidates", median(candidates), "count"});
  out.push_back({"json.parse_us", iqm(parse_us), "us"});
  out.push_back({"json.dump_us", iqm(dump_us), "us"});
  out.push_back({"json.model_parse_ms", iqm(model_parse_ms), "ms"});
  out.push_back({"libei.handle_us", iqm(handle_us), "us"});
  out.push_back({"libei.self_us", libei_self_us, "us"});
  out.push_back({"fleet.route_us", iqm(route_us), "us"});
  out.push_back({"fleet.self_us", iqm(route_self_us), "us"});
  out.push_back({"fleet.forwards_per_req", fleet_forwards_per_req, "count"});
  out.push_back({"fleet.failovers", fleet_failovers, "count"});
  out.push_back({"net.self_us", net_self, "us"});
  out.push_back({"net.node_conns_per_req",
                 ratio(a.conns_accepted - b.conns_accepted,
                       a.requests_served - b.requests_served),
                 "count"});
  out.push_back({"net.keepalive_reuse_ratio",
                 ratio(a.keepalive_reuses - b.keepalive_reuses,
                       a.requests_served - b.requests_served),
                 "ratio"});
  out.push_back({"net.stalls_per_10k", 1e4 * ratio(stalls, requests), "count"});
  out.push_back({"hwsim.latency_residual", iqm(residual), "ratio"});
  out.push_back({"loadgen.lateness_p99_ms", quantile(lateness, 0.99), "ms"});
  return out;
}

}  // namespace openei::bench_e2e
