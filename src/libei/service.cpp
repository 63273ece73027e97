#include "libei/service.h"

#include <algorithm>
#include <optional>

#include "common/clock.h"
#include "common/strings.h"
#include "hwsim/cost_model.h"
#include "nn/serialize.h"
#include "runtime/inference.h"
#include "selector/capability_db.h"
#include "selector/selecting_algorithm.h"
#include "tensor/pack.h"
#include "tensor/quantize.h"

namespace openei::libei {

using common::Json;
using common::JsonArray;
using common::JsonObject;
using net::HttpRequest;
using net::HttpResponse;

EiService::EiService(runtime::ModelRegistry& registry, datastore::SensorStore& store,
                     hwsim::DeviceProfile device, hwsim::PackageSpec package)
    : EiService(registry, store, std::move(device), std::move(package),
                Options{}) {}

EiService::EiService(runtime::ModelRegistry& registry, datastore::SensorStore& store,
                     hwsim::DeviceProfile device, hwsim::PackageSpec package,
                     Options options)
    : registry_(registry),
      store_(store),
      device_(std::move(device)),
      package_(std::move(package)),
      options_(options),
      tracer_(options.tracing),
      governor_(std::make_shared<runtime::EnergyGovernor>(device_,
                                                          options.energy)),
      lifecycle_(registry_, package_, device_,
                 [&] {
                   runtime::SessionCache::Options lifecycle = options.lifecycle;
                   lifecycle.batching.governor = governor_;
                   lifecycle.batcher_metrics = batcher_metrics_;
                   return lifecycle;
                 }(),
                 &meter_),
      streams_(lifecycle_,
               [&] {
                 // Stream workers charge the same device ledger.
                 stream::StreamManager::Options streaming = options.streaming;
                 streaming.session.governor = governor_.get();
                 return streaming;
               }(),
               &tracer_, &meter_) {
  // handle_stream builds each session's options from this stored copy (not
  // the manager defaults above), so it must carry the governor as well or
  // HTTP-opened streams would never charge the ledger.
  options_.streaming.session.governor = governor_.get();
  meter_.describe("ei_requests_total", "Requests served, by route and status class");
  meter_.describe("ei_session_cache_hits_total",
                  "Warm inference-session cache hits");
  meter_.describe("ei_session_cache_misses_total",
                  "Session cache misses (lazy materializations)");
  meter_.describe("ei_session_cache_evictions_total",
                  "Sessions evicted (LRU) to stay under the memory budget");
  meter_.describe("ei_session_cache_invalidations_total",
                  "Stale sessions retired after a model hot-swap/rollback");
  meter_.describe("ei_admission_rejections_total",
                  "Requests answered 503 memory_pressure by admission control");
  meter_.describe("ei_session_resident_bytes",
                  "Bytes of resident inference sessions (ALEM memory)");
  meter_.describe("ei_session_resident_count", "Resident inference sessions");
  meter_.describe("ei_session_budget_bytes",
                  "Resident-session byte budget derived from device RAM");
  meter_.describe("ei_model_swaps_total",
                  "Model hot-swaps (POST over an existing name)");
  meter_.describe("ei_model_parse_seconds",
                  "Decoding a POST /ei_models body (JSON parse + model build)");
  meter_.describe("ei_model_rollbacks_total",
                  "Rollbacks restoring the prior model version");
  meter_.describe("ei_request_latency_seconds",
                  "Wall-clock /ei_algorithms latency, by model");
  meter_.describe("ei_model_sim_energy_mj_total",
                  "Simulated inference energy spent per model (mJ, hwsim cost model)");
  meter_.describe("ei_model_sim_memory_bytes",
                  "Simulated peak inference memory footprint per model");
  meter_.describe("ei_model_rows_total", "Inference rows served per model");
  meter_.describe("ei_traces_completed_total",
                  "Finished traces committed to the in-memory ring");
  meter_.describe("ei_stream_sessions_active", "Open streaming sessions");
  meter_.describe("ei_stream_frames_admitted_total",
                  "Stream frames admitted into a session queue, by policy");
  meter_.describe("ei_stream_frames_rejected_total",
                  "Stream frames refused at admission (backpressure/closed)");
  meter_.describe("ei_stream_frames_delivered_total",
                  "Stream frames that completed inference");
  meter_.describe("ei_stream_frames_dropped_total",
                  "Stream frames dropped before inference, by reason");
  meter_.describe("ei_isa_level",
                  "Detected SIMD dispatch level per GEMM engine (fp32: "
                  "0=scalar 1=avx2 2=avx512; int8: 0..3 adds vnni)");
  meter_.describe("ei_stream_frame_latency_seconds",
                  "End-to-end streamed-frame latency (admission to delivery)");
  meter_.describe("ei_energy_joules_total",
                  "Cumulative device energy from the hwsim ledger, by power "
                  "state (idle/active/boost)");
  meter_.describe("ei_power_watts",
                  "Rolling device power draw estimated by the energy governor");
  meter_.describe("ei_freq_level",
                  "Current DVFS rung (index into the device freq ladder)");
  meter_.describe("ei_power_state",
                  "Current power state (0=idle 1=active 2=boost)");
  meter_.describe("ei_energy_degrades_total",
                  "Requests degraded to the min-energy variant because the "
                  "rolling watts exceeded the power cap");
  meter_.describe("ei_energy_rejections_total",
                  "Requests answered 503 energy_budget past cap * "
                  "reject_factor");
}

void EiService::set_serving_stats_source(
    std::function<net::ServerStats()> source) {
  std::lock_guard<std::mutex> lock(serving_mutex_);
  serving_source_ = std::move(source);
}

EiService::Metrics EiService::metrics() const {
  return Metrics{data_requests_.load(),
                 algorithm_requests_.load(),
                 model_requests_.load(),
                 stream_requests_.load(),
                 errors_.load(),
                 resilience_->retries.load(),
                 resilience_->timeouts.load(),
                 resilience_->breaker_opens.load(),
                 resilience_->breaker_rejections.load(),
                 resilience_->degraded_serves.load(),
                 batcher_metrics_->flushes.load(),
                 batcher_metrics_->fused_requests.load(),
                 batcher_metrics_->max_fused_rows.load()};
}

std::shared_ptr<const selector::CapabilityDatabase> EiService::capabilities_for(
    const std::string& scenario, const std::string& algorithm) {
  // Version first, candidates second: the cached rows can only be *newer*
  // than their recorded version, so a concurrent deploy at worst triggers
  // one redundant rebuild — never a stale serve past the version bump.
  std::uint64_t version = registry_.version();
  std::string key = scenario + "/" + algorithm;
  {
    std::lock_guard<std::mutex> lock(capability_mutex_);
    auto it = capability_cache_.find(key);
    if (it != capability_cache_.end() && it->second.version == version) {
      return it->second.db;
    }
  }
  auto candidates = registry_.find(scenario, algorithm);
  if (candidates.empty()) return nullptr;  // caller 404s; nothing to cache
  auto db = std::make_shared<selector::CapabilityDatabase>();
  for (const runtime::ModelEntryPtr& entry : candidates) {
    db->add(selector::estimate_capability(entry->model, entry->accuracy,
                                          package_, device_));
  }
  std::lock_guard<std::mutex> lock(capability_mutex_);
  CapabilitySlice& slot = capability_cache_[key];
  slot.version = version;
  slot.db = db;
  return db;
}

HttpResponse EiService::handle(const HttpRequest& request) {
  // Count before dispatch; failures additionally bump the error counter.
  struct ErrorCounter {
    std::atomic<std::uint64_t>& errors;
    bool armed = true;
    ~ErrorCounter() {
      if (armed) ++errors;
    }
  } error_guard{errors_};

  auto segments = common::split_nonempty(request.path, '/');
  if (segments.empty()) {
    throw NotFound("no resource at '" + request.path + "'");
  }
  const std::string& route = segments[0];

  // Root span of this request's trace — inert (no allocation, one branch)
  // unless Options.tracing.enabled.
  obs::Span root = tracer_.begin_trace("ei.request");
  if (root.active()) {
    root.set_attribute("method", request.method);
    root.set_attribute("path", request.path);
  }

  auto serve = [this, &error_guard, &root, &route](HttpResponse response) {
    if (response.status < 400) error_guard.armed = false;
    if (root.active()) {
      root.set_attribute("status", static_cast<double>(response.status));
    }
    meter_
        .counter("ei_requests_total",
                 {{"route", route},
                  {"status", response.status < 400 ? "ok" : "error"}})
        .increment();
    return response;
  };

  if (route == "ei_data") {
    ++data_requests_;
    return serve(handle_data(request, segments));
  }
  if (route == "ei_algorithms") {
    ++algorithm_requests_;
    return serve(handle_algorithm(request, segments, root));
  }
  if (route == "ei_models") {
    ++model_requests_;
    return serve(handle_models(request, segments));
  }
  if (route == "ei_stream") {
    ++stream_requests_;
    return serve(handle_stream(request, segments));
  }
  if (route == "ei_status" && segments.size() == 1 && request.method == "GET") {
    return serve(handle_status());
  }
  if (route == "ei_metrics" && segments.size() == 1 &&
      request.method == "GET") {
    meter_.gauge("ei_traces_completed_total")
        .set(static_cast<double>(tracer_.completed_traces()));
    meter_.gauge("ei_isa_level", {{"engine", "fp32"}})
        .set(static_cast<double>(tensor::fp32_isa_level()));
    meter_.gauge("ei_isa_level", {{"engine", "int8"}})
        .set(static_cast<double>(tensor::int8_isa_level()));
    runtime::EnergyGovernor::Snapshot power = governor_->snapshot();
    meter_.gauge("ei_energy_joules_total", {{"state", "idle"}})
        .set(power.ledger.state_j[0]);
    meter_.gauge("ei_energy_joules_total", {{"state", "active"}})
        .set(power.ledger.state_j[1]);
    meter_.gauge("ei_energy_joules_total", {{"state", "boost"}})
        .set(power.ledger.state_j[2]);
    meter_.gauge("ei_power_watts").set(power.rolling_watts);
    meter_.gauge("ei_freq_level")
        .set(static_cast<double>(power.ledger.freq_level));
    meter_.gauge("ei_power_state")
        .set(static_cast<double>(static_cast<int>(power.ledger.state)));
    return serve(HttpResponse{200, "text/plain; version=0.0.4",
                              meter_.render_prometheus()});
  }
  if (route == "ei_trace" && request.method == "GET") {
    return serve(handle_trace(segments));
  }
  throw NotFound("unknown resource type '" + route + "'");
}

HttpResponse EiService::handle_status() {
  Json out{JsonObject{}};
  out.set("device", device_.name);
  out.set("ram_bytes", device_.ram_bytes);
  out.set("effective_gflops", device_.effective_gflops);
  out.set("package", package_.name);
  out.set("supports_training", package_.supports_training);
  // Detected SIMD dispatch levels for the two GEMM engines — what the
  // kernels actually run on this host, not what the binary was compiled for.
  Json simd{JsonObject{}};
  simd.set("fp32_isa_level", tensor::fp32_isa_level());
  simd.set("fp32_isa", tensor::fp32_isa_name());
  simd.set("int8_isa_level", tensor::int8_isa_level());
  simd.set("int8_isa", tensor::int8_isa_name());
  out.set("simd", std::move(simd));
  JsonArray model_names;
  for (const std::string& name : registry_.names()) {
    model_names.emplace_back(name);
  }
  out.set("models", Json(std::move(model_names)));
  JsonArray sensor_ids;
  for (const std::string& id : store_.sensors()) sensor_ids.emplace_back(id);
  out.set("sensors", Json(std::move(sensor_ids)));
  Metrics snapshot = metrics();
  Json counters{JsonObject{}};
  counters.set("data_requests", snapshot.data_requests);
  counters.set("algorithm_requests", snapshot.algorithm_requests);
  counters.set("model_requests", snapshot.model_requests);
  counters.set("stream_requests", snapshot.stream_requests);
  counters.set("errors", snapshot.errors);
  out.set("requests", std::move(counters));
  out.set("resilience", resilience_->to_json());
  // Serving counters from the HTTP server fronting this service (absent
  // when the service runs in-process only).
  std::function<net::ServerStats()> serving_source;
  {
    std::lock_guard<std::mutex> lock(serving_mutex_);
    serving_source = serving_source_;
  }
  if (serving_source) {
    net::ServerStats stats = serving_source();
    Json serving{JsonObject{}};
    serving.set("connections_accepted", stats.connections_accepted);
    serving.set("connections_rejected", stats.connections_rejected);
    serving.set("requests_served", stats.requests_served);
    serving.set("keepalive_reuses", stats.keepalive_reuses);
    serving.set("idle_closed", stats.idle_closed);
    serving.set("deadline_closed", stats.deadline_closed);
    serving.set("parse_errors", stats.parse_errors);
    serving.set("open_connections", stats.open_connections);
    serving.set("peak_connections", stats.peak_connections);
    out.set("serving", std::move(serving));
  }
  Json batching{JsonObject{}};
  batching.set("max_batch_rows", options_.lifecycle.batching.max_batch_rows);
  batching.set("max_wait_s", options_.lifecycle.batching.max_wait_s);
  batching.set("flushes", snapshot.batch_flushes);
  batching.set("coalesced_requests", snapshot.coalesced_requests);
  batching.set("max_fused_rows", snapshot.max_fused_rows);
  out.set("batching", std::move(batching));
  // Per-model request-latency percentiles from the /ei_metrics histograms —
  // the ALEM latency attribute as actually served, not as simulated.
  Json latency{JsonObject{}};
  for (const auto& [labels, snap] :
       meter_.histogram_snapshots("ei_request_latency_seconds")) {
    std::string model = "unknown";
    for (const auto& [key, value] : labels) {
      if (key == "model") model = value;
    }
    Json percentiles{JsonObject{}};
    percentiles.set("count", snap.count);
    percentiles.set("p50_us", snap.quantile(0.50) * 1e6);
    percentiles.set("p95_us", snap.quantile(0.95) * 1e6);
    percentiles.set("p99_us", snap.quantile(0.99) * 1e6);
    latency.set(model, std::move(percentiles));
  }
  out.set("latency", std::move(latency));
  Json tracing{JsonObject{}};
  tracing.set("enabled", tracer_.enabled());
  tracing.set("completed_traces", tracer_.completed_traces());
  tracing.set("ring_capacity", tracer_.options().ring_capacity);
  out.set("tracing", std::move(tracing));
  // Memory-governed lifecycle: budget, residency (coldest first — the
  // eviction order), and cache counters.
  runtime::SessionCache::Stats cache = lifecycle_.stats();
  Json lifecycle{JsonObject{}};
  lifecycle.set("budget_bytes", cache.budget_bytes);
  lifecycle.set("resident_bytes", cache.resident_bytes);
  lifecycle.set("resident_sessions", cache.resident_sessions);
  lifecycle.set("hits", cache.hits);
  lifecycle.set("misses", cache.misses);
  lifecycle.set("evictions", cache.evictions);
  lifecycle.set("invalidations", cache.invalidations);
  lifecycle.set("admission_rejections", cache.admission_rejections);
  JsonArray residents;
  for (const runtime::SessionCache::ResidentInfo& info :
       lifecycle_.resident_info()) {
    Json row{JsonObject{}};
    row.set("model", info.name);
    row.set("bytes", info.bytes);
    residents.push_back(std::move(row));
  }
  lifecycle.set("resident", Json(std::move(residents)));
  lifecycle.set("registry_version", registry_.version());
  out.set("lifecycle", std::move(lifecycle));
  // Streaming sessions with their conservation-law counters (produced =
  // admitted + rejected_*; admitted = delivered + dropped_* + depth).
  Json streams{JsonObject{}};
  streams.set("active", streams_.active());
  streams.set("opened_total", streams_.opened_total());
  streams.set("closed_total", streams_.closed_total());
  streams.set("max_sessions", streams_.options().max_sessions);
  JsonArray stream_rows;
  for (const auto& session : streams_.sessions()) {
    stream::SessionStats stats = session->stats();
    Json row{JsonObject{}};
    row.set("id", session->id());
    row.set("model", session->model());
    row.set("policy",
            std::string(stream::to_string(session->options().queue.policy)));
    row.set("produced", stats.queue.produced);
    row.set("admitted", stats.queue.admitted);
    row.set("delivered", stats.queue.delivered);
    row.set("dropped_deadline", stats.queue.dropped_deadline);
    row.set("dropped_policy", stats.queue.dropped_policy);
    row.set("rejected_backpressure", stats.queue.rejected_backpressure);
    row.set("depth", stats.queue.depth);
    row.set("inferred", stats.inferred);
    row.set("results_pending", stats.results_pending);
    stream_rows.push_back(std::move(row));
  }
  streams.set("sessions", Json(std::move(stream_rows)));
  out.set("streams", std::move(streams));
  // Device power account: the cumulative joule ledger (per power state),
  // current governor position on the state/frequency ladder, and the
  // rolling-watts envelope with its degrade/reject decisions.
  runtime::EnergyGovernor::Snapshot power = governor_->snapshot();
  Json energy{JsonObject{}};
  energy.set("state", hwsim::to_string(power.ledger.state));
  energy.set("freq_level", power.ledger.freq_level);
  energy.set("freq_scale",
             governor_->device().freq_levels[power.ledger.freq_level]);
  energy.set("total_joules", power.ledger.total_j);
  Json by_state{JsonObject{}};
  const char* state_names[] = {"idle", "active", "boost"};
  for (int i = 0; i < hwsim::kPowerStateCount; ++i) {
    Json row{JsonObject{}};
    row.set("joules", power.ledger.state_j[static_cast<std::size_t>(i)]);
    row.set("seconds",
            power.ledger.state_seconds[static_cast<std::size_t>(i)]);
    by_state.set(state_names[i], std::move(row));
  }
  energy.set("states", std::move(by_state));
  energy.set("busy_joules", power.ledger.busy_j);
  energy.set("busy_seconds", power.ledger.busy_seconds);
  energy.set("charges", power.ledger.charges);
  energy.set("transitions", power.ledger.transitions);
  energy.set("boost_entries", power.boost_entries);
  energy.set("rolling_watts", power.rolling_watts);
  energy.set("power_cap_w", power.power_cap_w);
  energy.set("degrades", power.degrades);
  energy.set("rejects", power.rejects);
  out.set("energy", std::move(energy));
  return HttpResponse::json(200, out.dump());
}

HttpResponse EiService::handle_trace(const std::vector<std::string>& segments) {
  if (segments.size() == 1) {
    Json out{JsonObject{}};
    out.set("enabled", tracer_.enabled());
    JsonArray ids;
    for (std::uint64_t id : tracer_.recent_trace_ids()) {
      ids.emplace_back(std::to_string(id));  // 64-bit ids stay exact as text
    }
    out.set("traces", Json(std::move(ids)));
    return HttpResponse::json(200, out.dump());
  }
  if (segments.size() != 2) {
    throw ParseError("expected /ei_trace or /ei_trace/{id}");
  }
  std::uint64_t id = 0;
  try {
    id = std::stoull(segments[1]);
  } catch (const std::exception&) {
    throw ParseError("trace id '" + segments[1] + "' is not a number");
  }
  std::optional<obs::TraceRecord> record = tracer_.find(id);
  if (!record.has_value()) {
    throw NotFound(tracer_.enabled()
                       ? "no retained trace with id " + segments[1]
                       : "tracing is disabled on this node");
  }
  return HttpResponse::json(200, record->to_json().dump());
}

namespace {

Json record_to_json(const datastore::Record& record) {
  Json out{JsonObject{}};
  out.set("timestamp", record.timestamp);
  out.set("payload", record.payload);
  return out;
}

double query_double(const std::map<std::string, std::string>& query,
                    const std::string& key, double fallback) {
  auto it = query.find(key);
  if (it == query.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw ParseError("query parameter '" + key + "' is not a number");
  }
}

}  // namespace

HttpResponse EiService::handle_data(const HttpRequest& request,
                                    const std::vector<std::string>& segments) {
  if (request.method != "GET") {
    return HttpResponse::json(405, R"({"error":"ei_data is read-only"})");
  }
  if (segments.size() != 3) {
    throw ParseError("expected /ei_data/{realtime|history}/{sensor_id}");
  }
  const std::string& kind = segments[1];
  const std::string& sensor = segments[2];

  if (kind == "realtime") {
    double timestamp = query_double(request.query, "timestamp", 0.0);
    auto record = store_.realtime(sensor, timestamp);
    if (!record.has_value()) {
      throw NotFound("sensor '" + sensor + "' has no data at or after " +
                     std::to_string(timestamp));
    }
    return HttpResponse::json(200, record_to_json(*record).dump());
  }
  if (kind == "history") {
    double start = query_double(request.query, "start", 0.0);
    double end = query_double(request.query, "end", 1e300);
    JsonArray rows;
    for (const datastore::Record& record : store_.history(sensor, start, end)) {
      rows.push_back(record_to_json(record));
    }
    Json out{JsonObject{}};
    out.set("sensor", sensor);
    out.set("records", Json(std::move(rows)));
    return HttpResponse::json(200, out.dump());
  }
  if (kind == "stats") {
    double start = query_double(request.query, "start", 0.0);
    double end = query_double(request.query, "end", 1e300);
    datastore::SensorStore::Stats stats = store_.stats(sensor, start, end);
    Json out{JsonObject{}};
    out.set("sensor", sensor);
    out.set("count", stats.count);
    out.set("mean", stats.mean);
    out.set("min", stats.min);
    out.set("max", stats.max);
    out.set("rate_hz", stats.rate_hz);
    return HttpResponse::json(200, out.dump());
  }
  throw ParseError("unknown data type '" + kind + "' (realtime|history|stats)");
}

selector::SelectionRequest EiService::parse_selection(
    const std::map<std::string, std::string>& query) const {
  selector::SelectionRequest request;
  request.device_name = device_.name;
  // Paper Sec. III-E: "the default is accuracy oriented".
  request.objective = selector::Objective::kMaxAccuracy;
  if (auto it = query.find("objective"); it != query.end()) {
    if (it->second == "latency") {
      request.objective = selector::Objective::kMinLatency;
    } else if (it->second == "accuracy") {
      request.objective = selector::Objective::kMaxAccuracy;
    } else if (it->second == "energy") {
      request.objective = selector::Objective::kMinEnergy;
    } else if (it->second == "memory") {
      request.objective = selector::Objective::kMinMemory;
    } else {
      throw ParseError("unknown objective '" + it->second + "'");
    }
  }
  request.requirements.min_accuracy = query_double(query, "min_accuracy", 0.0);
  request.requirements.max_latency_s = query_double(query, "max_latency_s", 1e300);
  request.requirements.max_energy_j = query_double(query, "max_energy_j", 1e300);
  request.requirements.max_memory_bytes = static_cast<std::size_t>(
      query_double(query, "max_memory_bytes", 1e18));
  return request;
}

Json EiService::resolve_input(const HttpRequest& request) const {
  if (auto it = request.query.find("input"); it != request.query.end()) {
    return Json::parse(it->second);
  }
  if (!request.body.empty()) {
    return Json::parse(request.body);
  }
  if (auto it = request.query.find("sensor"); it != request.query.end()) {
    double timestamp = query_double(request.query, "timestamp", 0.0);
    auto record = store_.realtime(it->second, timestamp);
    if (!record.has_value()) {
      throw NotFound("sensor '" + it->second + "' has no data for inference");
    }
    return record->payload;
  }
  throw ParseError("algorithm call needs 'input', a body, or 'sensor'");
}

HttpResponse EiService::handle_algorithm(const HttpRequest& request,
                                         const std::vector<std::string>& segments,
                                         obs::Span& trace_root) {
  if (request.method != "GET" && request.method != "POST") {
    return HttpResponse::json(405, R"({"error":"use GET or POST"})");
  }
  if (segments.size() != 3) {
    throw ParseError("expected /ei_algorithms/{scenario}/{algorithm}");
  }
  const std::string& scenario = segments[1];
  const std::string& algorithm = segments[2];
  common::Stopwatch request_timer;

  // Stage 1 (ei.select): capability rows for this (scenario, algorithm) on
  // this device — cached off the registry version, so steady state runs the
  // selecting algorithm (Sec. III-E) over prebuilt rows.
  obs::Span select_span = trace_root.child("ei.select");
  std::shared_ptr<const selector::CapabilityDatabase> db =
      capabilities_for(scenario, algorithm);
  if (db == nullptr) {
    select_span.finish();
    throw NotFound("no model deployed for " + scenario + "/" + algorithm);
  }

  // Energy envelope (governor rolling watts vs. the profile power cap,
  // inert when no cap is configured): above the cap the selection objective
  // flips to min-energy — the request rides the cheapest eligible variant —
  // and past cap * reject_factor the request is shed outright.
  selector::SelectionRequest selection = parse_selection(request.query);
  runtime::EnergyGovernor::Admission admission = governor_->admit();
  if (admission == runtime::EnergyGovernor::Admission::kReject) {
    select_span.finish();
    meter_.counter("ei_energy_rejections_total").increment();
    runtime::EnergyGovernor::Snapshot power = governor_->snapshot();
    Json body{JsonObject{}};
    body.set("error", "energy_budget");
    body.set("rolling_watts", power.rolling_watts);
    body.set("power_cap_w", power.power_cap_w);
    body.set("state", hwsim::to_string(power.ledger.state));
    return HttpResponse::json(503, body.dump());
  }
  bool energy_degraded =
      admission == runtime::EnergyGovernor::Admission::kDegrade;
  if (energy_degraded) {
    meter_.counter("ei_energy_degrades_total").increment();
    selection.objective = selector::Objective::kMinEnergy;
  }
  selector::SelectionStats selection_stats;
  auto chosen = selector::select(*db, selection, &selection_stats);
  if (select_span.active()) {
    select_span.set_attribute("energy_degraded", energy_degraded ? 1.0 : 0.0);
    select_span.set_attribute("candidates",
                              static_cast<double>(selection_stats.evaluated));
    select_span.set_attribute(
        "eligible", static_cast<double>(selection_stats.eligible));
    select_span.set_attribute(
        "constraint_rejections",
        static_cast<double>(selection_stats.rejected_constraints));
    select_span.set_attribute(
        "not_deployable",
        static_cast<double>(selection_stats.rejected_not_deployable));
    select_span.set_attribute("model",
                              chosen.has_value() ? chosen->model_name : "");
  }
  select_span.finish();
  if (!chosen.has_value()) {
    return HttpResponse::json(
        400,
        R"({"error":"no deployed model satisfies the ALEM requirements"})");
  }
  const std::string& model_name = chosen->model_name;

  // The memory-governed session pool: warm hit shares the resident session
  // zero-copy; cold miss materializes under admission control.  A model the
  // budget cannot admit is the documented 503 — thrown errors would reach
  // the generic 500 mapping, so convert here.
  runtime::SessionCache::Lease lease;
  try {
    lease = lifecycle_.acquire(model_name, /*with_batcher=*/true);
  } catch (const runtime::MemoryPressureError& pressure) {
    Json body{JsonObject{}};
    body.set("error", "memory_pressure");
    body.set("model", pressure.model());
    body.set("needed_bytes", pressure.needed_bytes());
    body.set("budget_bytes", pressure.budget_bytes());
    body.set("resident_bytes", pressure.resident_bytes());
    return HttpResponse::json(503, body.dump());
  }
  const tensor::Shape& sample_shape = lease.session->model().input_shape();

  // Stage 2 (ei.parse): resolve the input rows into the Tensor that rides
  // the micro-batch queue.
  obs::Span parse_span = trace_root.child("ei.parse");
  nn::Tensor batch = runtime::rows_to_batch(resolve_input(request), sample_shape);
  std::size_t row_count = batch.shape().dim(0);
  double rows = static_cast<double>(row_count);
  if (parse_span.active()) {
    parse_span.set_attribute("rows", rows);
    parse_span.set_attribute(
        "input_bytes", static_cast<double>(row_count * sample_shape.elements() *
                                           sizeof(float)));
  }
  parse_span.finish();

  // Stage 3 (ei.infer): concurrent connection threads funnel into the
  // per-model micro-batch queue; this request's rows ride a fused forward
  // pass (bit-identical to a solo run), and the flush thread charges the
  // device ledger once per flush.  The ei.batch child span finishes on the
  // flush thread with queue-wait vs fused-forward attribution (and peak
  // tensor bytes seen there).
  obs::Span infer_span = trace_root.child("ei.infer");
  runtime::InferenceResult result =
      lease.batcher->submit(std::move(batch), infer_span.child("ei.batch"))
          .get();
  // What the device ledger actually accrued for this request (DVFS-adjusted,
  // prorated across a fused flush) — the cost-model estimate is only a
  // fallback for batchers wired without a governor.
  double request_energy_j = result.ledger_energy_j > 0.0
                                ? result.ledger_energy_j
                                : result.batch_energy_j;
  if (infer_span.active()) {
    infer_span.set_attribute("model", model_name);
    infer_span.set_attribute("rows", rows);
    // Simulated ALEM attribution from the hwsim cost model.
    infer_span.set_attribute("sim_latency_us", result.batch_latency_s * 1e6);
    infer_span.set_attribute("sim_energy_mj", request_energy_j * 1e3);
    infer_span.set_attribute(
        "sim_memory_bytes",
        static_cast<double>(result.per_sample.memory_bytes));
  }
  infer_span.finish();

  // Stage 4 (ei.serialize): build the JSON response.
  obs::Span serialize_span = trace_root.child("ei.serialize");
  Json out{JsonObject{}};
  out.set("scenario", scenario);
  out.set("algorithm", algorithm);
  out.set("model", model_name);
  out.set("package", package_.name);
  out.set("device", device_.name);
  out.set("alem", chosen->alem.to_json());
  JsonArray predictions;
  for (std::size_t p : result.predictions) predictions.emplace_back(p);
  out.set("predictions", Json(std::move(predictions)));
  out.set("batch_latency_s", result.batch_latency_s);
  out.set("batch_energy_j", result.batch_energy_j);
  out.set("ledger_energy_j", result.ledger_energy_j);
  if (energy_degraded) out.set("energy_degraded", true);
  if (trace_root.active()) {
    // 64-bit id as a string (JSON numbers are doubles); the caller can
    // follow up with GET /ei_trace/{trace_id}.
    out.set("trace_id", std::to_string(trace_root.trace_id()));
  }
  HttpResponse response = HttpResponse::json(200, out.dump());
  serialize_span.finish();

  // ALEM metric families behind /ei_metrics — always on, tracing or not.
  obs::LabelSet by_model{{"model", model_name}};
  meter_.histogram("ei_request_latency_seconds", by_model)
      .record(request_timer.elapsed_seconds());
  meter_.counter("ei_model_sim_energy_mj_total", by_model)
      .add(result.batch_energy_j * 1e3);
  meter_.counter("ei_model_rows_total", by_model).add(rows);
  meter_.gauge("ei_model_sim_memory_bytes", by_model)
      .set(static_cast<double>(result.per_sample.memory_bytes));
  return response;
}

namespace {

Json stream_session_json(stream::StreamSession& session) {
  stream::SessionStats stats = session.stats();
  Json out{JsonObject{}};
  out.set("stream", session.id());
  out.set("scenario", session.scenario());
  out.set("algorithm", session.algorithm());
  out.set("model", session.model());
  out.set("policy",
          std::string(stream::to_string(session.options().queue.policy)));
  out.set("capacity", session.options().queue.capacity);
  out.set("deadline_ms", session.options().queue.deadline_s * 1e3);
  out.set("closed", session.closed());
  Json queue{JsonObject{}};
  queue.set("produced", stats.queue.produced);
  queue.set("admitted", stats.queue.admitted);
  queue.set("delivered", stats.queue.delivered);
  queue.set("dropped_deadline", stats.queue.dropped_deadline);
  queue.set("dropped_policy", stats.queue.dropped_policy);
  queue.set("dropped_closed", stats.queue.dropped_closed);
  queue.set("rejected_backpressure", stats.queue.rejected_backpressure);
  queue.set("rejected_closed", stats.queue.rejected_closed);
  queue.set("blocked_pushes", stats.queue.blocked_pushes);
  queue.set("depth", stats.queue.depth);
  out.set("queue", std::move(queue));
  out.set("inferred", stats.inferred);
  out.set("infer_failures", stats.infer_failures);
  out.set("results_pending", stats.results_pending);
  out.set("results_polled", stats.results_polled);
  out.set("results_overflow", stats.results_overflow);
  out.set("last_sim_latency_s", stats.last_sim_latency_s);
  return out;
}

const char* outcome_name(stream::PushOutcome outcome) {
  switch (outcome) {
    case stream::PushOutcome::kAdmitted:
      return "admitted";
    case stream::PushOutcome::kRejectedBackpressure:
      return "backpressure";
    case stream::PushOutcome::kRejectedClosed:
      return "closed";
  }
  return "unknown";
}

}  // namespace

HttpResponse EiService::handle_stream(const HttpRequest& request,
                                      const std::vector<std::string>& segments) {
  // POST /ei_stream — open a session.  Model selection runs the same
  // selecting algorithm as /ei_algorithms, once, at open; every streamed
  // frame then rides the chosen model.
  if (request.method == "POST" && segments.size() == 1) {
    auto scenario = request.query.find("scenario");
    auto algorithm = request.query.find("algorithm");
    if (scenario == request.query.end() || algorithm == request.query.end()) {
      throw ParseError("stream open needs scenario and algorithm");
    }
    std::shared_ptr<const selector::CapabilityDatabase> db =
        capabilities_for(scenario->second, algorithm->second);
    if (db == nullptr) {
      throw NotFound("no model deployed for " + scenario->second + "/" +
                     algorithm->second);
    }
    selector::SelectionRequest selection = parse_selection(request.query);
    auto chosen = selector::select(*db, selection, nullptr);
    if (!chosen.has_value()) {
      return HttpResponse::json(
          400,
          R"({"error":"no deployed model satisfies the ALEM requirements"})");
    }

    stream::StreamSession::Options session_options = options_.streaming.session;
    if (auto it = request.query.find("policy"); it != request.query.end()) {
      auto policy = stream::parse_policy(it->second);
      if (!policy.has_value()) {
        throw ParseError("unknown policy '" + it->second +
                         "' (block|latest_wins|drop_oldest)");
      }
      session_options.queue.policy = *policy;
    }
    if (auto it = request.query.find("capacity"); it != request.query.end()) {
      double capacity = query_double(request.query, "capacity", 0.0);
      if (capacity < 1.0) throw ParseError("capacity must be >= 1");
      session_options.queue.capacity = static_cast<std::size_t>(capacity);
    }
    double deadline_ms = query_double(request.query, "deadline_ms",
                                      session_options.queue.deadline_s * 1e3);
    if (deadline_ms < 0.0) throw ParseError("deadline_ms must be >= 0");
    session_options.queue.deadline_s = deadline_ms * 1e-3;

    std::shared_ptr<stream::StreamSession> session;
    try {
      session = streams_.open(scenario->second, algorithm->second,
                              chosen->model_name, std::move(session_options));
    } catch (const runtime::MemoryPressureError& pressure) {
      Json body{JsonObject{}};
      body.set("error", "memory_pressure");
      body.set("model", pressure.model());
      body.set("needed_bytes", pressure.needed_bytes());
      body.set("budget_bytes", pressure.budget_bytes());
      body.set("resident_bytes", pressure.resident_bytes());
      return HttpResponse::json(503, body.dump());
    } catch (const ResourceExhausted&) {
      Json body{JsonObject{}};
      body.set("error", "too_many_streams");
      body.set("max_sessions", streams_.options().max_sessions);
      return HttpResponse::json(503, body.dump());
    }
    Json out{JsonObject{}};
    out.set("stream", session->id());
    out.set("model", session->model());
    out.set("policy",
            std::string(stream::to_string(session->options().queue.policy)));
    out.set("capacity", session->options().queue.capacity);
    out.set("deadline_ms", session->options().queue.deadline_s * 1e3);
    JsonArray shape;
    for (std::size_t d : session->sample_shape().dims()) shape.emplace_back(d);
    out.set("sample_shape", Json(std::move(shape)));
    return HttpResponse::json(201, out.dump());
  }

  // GET /ei_stream — session index.
  if (request.method == "GET" && segments.size() == 1) {
    Json out{JsonObject{}};
    out.set("active", streams_.active());
    out.set("max_sessions", streams_.options().max_sessions);
    JsonArray rows;
    for (const auto& session : streams_.sessions()) {
      rows.push_back(stream_session_json(*session));
    }
    out.set("streams", Json(std::move(rows)));
    return HttpResponse::json(200, out.dump());
  }

  if (segments.size() < 2) {
    throw ParseError("expected /ei_stream or /ei_stream/{id}[/frames|/results]");
  }
  const std::string& id = segments[1];

  // DELETE /ei_stream/{id} — close + drain, reporting the final counters.
  if (request.method == "DELETE" && segments.size() == 2) {
    std::shared_ptr<stream::StreamSession> session = streams_.get(id);
    if (session == nullptr || !streams_.close(id)) {
      throw NotFound("no stream with id '" + id + "'");
    }
    Json out = stream_session_json(*session);
    out.set("closed", true);
    return HttpResponse::json(200, out.dump());
  }

  std::shared_ptr<stream::StreamSession> session = streams_.get(id);
  if (session == nullptr) {
    throw NotFound("no stream with id '" + id + "'");
  }

  // GET /ei_stream/{id} — stats.
  if (request.method == "GET" && segments.size() == 2) {
    return HttpResponse::json(200, stream_session_json(*session).dump());
  }

  // POST /ei_stream/{id}/frames — submit frames (JSON rows, one frame per
  // row).  kBlock waits a bounded stream_http_max_block_s for space (the
  // handler runs on an event-loop thread), then reports backpressure.
  if (request.method == "POST" && segments.size() == 3 &&
      segments[2] == "frames") {
    nn::Tensor batch =
        runtime::rows_to_batch(resolve_input(request), session->sample_shape());
    std::size_t rows = batch.shape().dim(0);
    std::size_t elems = session->sample_shape().elements();
    std::size_t accepted = 0;
    std::size_t backpressure = 0;
    std::size_t closed = 0;
    JsonArray verdicts;
    for (std::size_t i = 0; i < rows; ++i) {
      nn::Tensor frame(session->sample_shape());
      auto src = batch.data();
      std::copy(src.begin() + static_cast<std::ptrdiff_t>(i * elems),
                src.begin() + static_cast<std::ptrdiff_t>((i + 1) * elems),
                frame.data().begin());
      stream::PushResult pushed =
          session->submit(std::move(frame), options_.stream_http_max_block_s);
      Json verdict{JsonObject{}};
      verdict.set("outcome", std::string(outcome_name(pushed.outcome)));
      if (pushed.outcome == stream::PushOutcome::kAdmitted) {
        ++accepted;
        verdict.set("seq", pushed.seq);
        if (pushed.evicted > 0) verdict.set("evicted", pushed.evicted);
      } else if (pushed.outcome == stream::PushOutcome::kRejectedClosed) {
        ++closed;
      } else {
        ++backpressure;
      }
      if (pushed.trace_id != 0) {
        verdict.set("trace_id", std::to_string(pushed.trace_id));
      }
      verdicts.push_back(std::move(verdict));
    }
    Json out{JsonObject{}};
    out.set("stream", session->id());
    out.set("accepted", accepted);
    out.set("rejected_backpressure", backpressure);
    out.set("rejected_closed", closed);
    out.set("frames", Json(std::move(verdicts)));
    int status = 200;
    if (accepted == 0 && closed > 0) {
      status = 409;  // stream already closed
    } else if (accepted == 0 && backpressure > 0) {
      status = 429;  // full queue held the bounded wait the whole time
    }
    return HttpResponse::json(status, out.dump());
  }

  // GET /ei_stream/{id}/results?max=N — drain delivered results.
  if (request.method == "GET" && segments.size() == 3 &&
      segments[2] == "results") {
    double max = query_double(request.query, "max", 1e18);
    if (max < 1.0) throw ParseError("max must be >= 1");
    std::vector<stream::DeliveredResult> results =
        session->poll(static_cast<std::size_t>(max));
    JsonArray rows;
    for (const stream::DeliveredResult& result : results) {
      Json row{JsonObject{}};
      row.set("seq", result.seq);
      row.set("prediction", result.prediction);
      row.set("queue_wait_s", result.queue_wait_s);
      row.set("infer_s", result.infer_s);
      row.set("sim_latency_s", result.sim_latency_s);
      row.set("sim_energy_j", result.sim_energy_j);
      if (result.trace_id != 0) {
        row.set("trace_id", std::to_string(result.trace_id));
      }
      rows.push_back(std::move(row));
    }
    Json out{JsonObject{}};
    out.set("stream", session->id());
    out.set("results", Json(std::move(rows)));
    out.set("pending", session->stats().results_pending);
    return HttpResponse::json(200, out.dump());
  }

  return HttpResponse::json(405, R"({"error":"unsupported ei_stream call"})");
}

HttpResponse EiService::handle_models(const HttpRequest& request,
                                      const std::vector<std::string>& segments) {
  if (request.method == "GET" && segments.size() == 1) {
    JsonArray models;
    for (const std::string& name : registry_.names()) {
      runtime::ModelEntryPtr entry = registry_.get_if(name);
      if (entry == nullptr) continue;  // undeployed between names() and here
      Json row{JsonObject{}};
      row.set("name", name);
      row.set("scenario", entry->scenario);
      row.set("algorithm", entry->algorithm);
      row.set("accuracy", entry->accuracy);
      row.set("params", entry->model.param_count());
      row.set("storage_bytes", entry->model.storage_bytes());
      row.set("int8_fraction", hwsim::model_int8_fraction(entry->model));
      row.set("rollback_available", registry_.has_prior(name));
      models.push_back(std::move(row));
    }
    Json out{JsonObject{}};
    out.set("models", Json(std::move(models)));
    out.set("registry_version", registry_.version());
    return HttpResponse::json(200, out.dump());
  }

  if (request.method == "GET" && segments.size() == 2) {
    runtime::ModelEntryPtr entry = registry_.get(segments[1]);  // throws NotFound
    Json out{JsonObject{}};
    out.set("scenario", entry->scenario);
    out.set("algorithm", entry->algorithm);
    out.set("accuracy", entry->accuracy);
    out.set("model", nn::model_to_json(entry->model));
    return HttpResponse::json(200, out.dump());
  }

  if (request.method == "POST" && segments.size() == 1) {
    auto scenario = request.query.find("scenario");
    auto algorithm = request.query.find("algorithm");
    if (scenario == request.query.end() || algorithm == request.query.end()) {
      throw ParseError("model deployment needs scenario and algorithm");
    }
    common::Stopwatch parse_timer;
    nn::Model model = nn::model_from_json(Json::parse(request.body));
    meter_.histogram("ei_model_parse_seconds").record(parse_timer.elapsed_seconds());
    runtime::ModelEntry entry{scenario->second, algorithm->second,
                              std::move(model),
                              query_double(request.query, "accuracy", 0.0)};
    std::string name = entry.model.name();
    bool swapped = registry_.contains(name);
    registry_.put(std::move(entry));
    if (swapped) meter_.counter("ei_model_swaps_total").increment();
    Json out{JsonObject{}};
    out.set("deployed", name);
    out.set("swapped", swapped);
    out.set("registry_version", registry_.version());
    return HttpResponse::json(201, out.dump());
  }

  if (request.method == "DELETE" && segments.size() == 2) {
    const std::string& name = segments[1];
    auto rollback = request.query.find("rollback");
    if (rollback != request.query.end() && rollback->second != "0") {
      // Restore the version the last hot-swap replaced.
      if (!registry_.contains(name)) {
        throw NotFound("no model named '" + name + "'");
      }
      if (!registry_.rollback(name)) {
        return HttpResponse::json(
            409, R"({"error":"no prior version retained for ')" + name +
                     R"('"})");
      }
      meter_.counter("ei_model_rollbacks_total").increment();
      Json out{JsonObject{}};
      out.set("rolled_back", name);
      out.set("registry_version", registry_.version());
      return HttpResponse::json(200, out.dump());
    }
    if (!registry_.erase(name)) {
      throw NotFound("no model named '" + name + "'");
    }
    Json out{JsonObject{}};
    out.set("undeployed", name);
    out.set("registry_version", registry_.version());
    return HttpResponse::json(200, out.dump());
  }

  return HttpResponse::json(405, R"({"error":"unsupported ei_models call"})");
}

}  // namespace openei::libei
