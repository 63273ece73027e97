// libei — the RESTful API of paper Sec. III-D / Fig. 6.
//
// Resource scheme (every resource is a URL):
//   GET  /ei_data/realtime/{sensor_id}?timestamp=T
//   GET  /ei_data/history/{sensor_id}?start=S&end=E
//   GET  /ei_algorithms/{scenario}/{algorithm}?input=<json rows>
//          [&objective=latency|accuracy|energy|memory]
//          [&min_accuracy=A][&max_latency_s=L][&max_energy_j=E]
//          [&max_memory_bytes=M]
//          — or &sensor=<id>[&timestamp=T] to pull the input from the store
//   GET  /ei_models                      — deployed model index + registry
//          version counter
//   GET  /ei_models/{name}               — serialized model (edge-edge sharing)
//   POST /ei_models?scenario=S&algorithm=A&accuracy=x  (body: model JSON)
//          — model download from the cloud (Fig. 3 dataflow 2).  POSTing an
//          already-deployed name is an atomic hot-swap: in-flight inference
//          finishes on the old version (its snapshot stays pinned until the
//          last request drains), new requests see the new one
//   DELETE /ei_models/{name}             — undeploy
//   DELETE /ei_models/{name}?rollback=1  — drop the current version and
//          restore the one the last hot-swap replaced (409 when no prior
//          version is retained)
//   POST /ei_stream?scenario=S&algorithm=A — open a streaming inference
//          session (selector picks the model as for /ei_algorithms);
//          &policy=block|latest_wins|drop_oldest, &capacity=N,
//          &deadline_ms=D tune the frame queue
//   POST /ei_stream/{id}/frames          — submit frames (body: JSON rows);
//          per-frame admission verdicts; 429 when backpressure rejected
//          every frame
//   GET  /ei_stream/{id}/results?max=N   — drain delivered results
//   GET  /ei_stream/{id}                 — session stats (queue counters,
//          conservation-law fields)
//   GET  /ei_stream                      — session index
//   DELETE /ei_stream/{id}               — close (drains the worker)
//   GET  /ei_status                      — node health: device profile,
//          package, deployed models, registered sensors, request counters,
//          per-model latency percentiles (p50/p95/p99)
//   GET  /ei_metrics                     — Prometheus text exposition:
//          per-model latency histograms, energy/memory gauges, route
//          counters (scrape me)
//   GET  /ei_trace                       — ids of retained finished traces
//   GET  /ei_trace/{id}                  — one request's span tree with
//          per-stage ALEM attribution (requires Options.tracing.enabled)
//
// An algorithm call runs the full OpenEI flow of Sec. III-E: the model
// selector picks the best deployed variant for this device under the
// caller's ALEM requirements (accuracy-oriented by default, as the paper
// specifies), then the package manager executes the inference through the
// memory-governed session cache (runtime::SessionCache) — warm sessions are
// shared zero-copy, cold ones materialize under the device's memory budget,
// and a request the budget cannot admit is answered 503 with a JSON
// {"error":"memory_pressure",...} body.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "datastore/timeseries.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/batcher.h"
#include "runtime/energy_governor.h"
#include "runtime/inference.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "net/http.h"
#include "net/resilient_client.h"
#include "runtime/model_registry.h"
#include "runtime/session_cache.h"
#include "selector/capability_db.h"
#include "selector/selecting_algorithm.h"
#include "stream/stream_manager.h"

namespace openei::libei {

class EiService {
 public:
  struct Options {
    /// Memory-governed model lifecycle: resident-session byte budget (0 =
    /// derive from the device profile), LRU eviction, admission control.
    /// `lifecycle.batching` tunes the per-model micro-batching queue every
    /// /ei_algorithms request rides (its governor is wired by the service).
    runtime::SessionCache::Options lifecycle;
    /// Per-request tracing (GET /ei_trace/{id}).  Off by default: disabled
    /// tracing costs one branch per instrumentation site.  The ALEM metric
    /// histograms behind GET /ei_metrics are always on (a handful of relaxed
    /// atomic ops per request).
    obs::Tracer::Options tracing;
    /// Streaming sessions (POST /ei_stream): concurrent-session cap and
    /// per-session queue/ring defaults (overridable per open via query
    /// parameters).
    stream::StreamManager::Options streaming;
    /// How long a frame POST into a full kBlock stream may wait for space
    /// before answering 429.  HTTP handlers run on event-loop threads, so
    /// backpressure over HTTP is bounded — unbounded blocking is only for
    /// in-process producers.
    double stream_http_max_block_s = 0.2;
    /// Energy governor knobs (rolling window, boost threshold, injectable
    /// clock).  The accounting side is always on — every inference charges
    /// the device ledger and /ei_status grows an "energy" block — but
    /// budget *enforcement* (degrade to a cheaper variant above the cap,
    /// 503 past cap * reject_factor) only engages when `energy.power_cap_w`
    /// or the device profile's power_cap_w is set.
    runtime::EnergyGovernor::Options energy;
  };

  /// Borrows the registry and store (the owning EdgeNode outlives the
  /// service); copies the device/package profiles.
  EiService(runtime::ModelRegistry& registry, datastore::SensorStore& store,
            hwsim::DeviceProfile device, hwsim::PackageSpec package);
  EiService(runtime::ModelRegistry& registry, datastore::SensorStore& store,
            hwsim::DeviceProfile device, hwsim::PackageSpec package,
            Options options);

  /// Routes one request.  Throws NotFound / ParseError for the HTTP server
  /// to translate, or returns a JSON response.
  net::HttpResponse handle(const net::HttpRequest& request);

  const hwsim::DeviceProfile& device() const { return device_; }

  /// Served-request counters (reported by /ei_status for fleet monitoring).
  /// The resilience fields snapshot the node's shared transport counters:
  /// retries/timeouts/breaker state of every outbound client wired to
  /// `resilience()` (peer fetches, failover, degrading cloud-edge serving).
  /// All backing counters are atomics (the HTTP server handles requests on
  /// concurrent connection threads and the micro-batcher flushes on its
  /// own); this struct is a consistent-enough snapshot for monitoring.
  struct Metrics {
    std::uint64_t data_requests = 0;
    std::uint64_t algorithm_requests = 0;
    std::uint64_t model_requests = 0;
    std::uint64_t stream_requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t breaker_rejections = 0;
    std::uint64_t degraded_serves = 0;
    std::uint64_t batch_flushes = 0;
    std::uint64_t coalesced_requests = 0;
    std::uint64_t max_fused_rows = 0;
  };
  Metrics metrics() const;

  /// Shared sink for the node's outbound transport resilience counters;
  /// reported in full under "resilience" by GET /ei_status.
  const std::shared_ptr<net::ResilienceMetrics>& resilience() const {
    return resilience_;
  }

  /// Wires an HTTP server's serving counters into GET /ei_status (the
  /// "serving" block: keep-alive reuse, idle/deadline closes...).
  /// The owning node sets this when it starts a server and clears it
  /// (nullptr) before tearing the server down; safe against concurrent
  /// handle() calls.
  void set_serving_stats_source(std::function<net::ServerStats()> source);

  /// The request tracer behind GET /ei_trace/{id} (inert unless
  /// Options.tracing.enabled).
  obs::Tracer& tracer() { return tracer_; }
  /// The ALEM metric families behind GET /ei_metrics.
  obs::MetricsRegistry& meter() { return meter_; }
  /// The memory-governed session pool (cache hit/miss/eviction stats are
  /// reported under "lifecycle" by GET /ei_status and as /ei_metrics
  /// families).
  runtime::SessionCache& lifecycle() { return lifecycle_; }
  /// Live streaming sessions (POST /ei_stream); reported under "streams"
  /// by GET /ei_status.
  stream::StreamManager& streams() { return streams_; }
  /// The device power account + frequency governor every simulated
  /// inference charges (reported under "energy" by GET /ei_status and as
  /// ei_energy_joules_total / ei_power_watts / ei_freq_level metrics).
  runtime::EnergyGovernor& energy_governor() { return *governor_; }

 private:
  net::HttpResponse handle_data(const net::HttpRequest& request,
                                const std::vector<std::string>& segments);
  net::HttpResponse handle_algorithm(const net::HttpRequest& request,
                                     const std::vector<std::string>& segments,
                                     obs::Span& trace_root);
  net::HttpResponse handle_models(const net::HttpRequest& request,
                                  const std::vector<std::string>& segments);
  net::HttpResponse handle_status();
  net::HttpResponse handle_trace(const std::vector<std::string>& segments);
  net::HttpResponse handle_stream(const net::HttpRequest& request,
                                  const std::vector<std::string>& segments);

  /// Parses ALEM requirements/objective from query parameters; defaults to
  /// the paper's accuracy-oriented selection.
  selector::SelectionRequest parse_selection(
      const std::map<std::string, std::string>& query) const;

  /// Resolves the inference input: inline `input` JSON rows or a stored
  /// sensor payload.
  common::Json resolve_input(const net::HttpRequest& request) const;

  /// Capability rows for one (scenario, algorithm) pair, cached off the
  /// registry's version counter: rows are rebuilt only when a deploy/swap/
  /// rollback bumps the version, never per request.
  std::shared_ptr<const selector::CapabilityDatabase> capabilities_for(
      const std::string& scenario, const std::string& algorithm);

  runtime::ModelRegistry& registry_;
  datastore::SensorStore& store_;
  hwsim::DeviceProfile device_;
  hwsim::PackageSpec package_;
  Options options_;

  std::shared_ptr<runtime::BatcherMetrics> batcher_metrics_ =
      std::make_shared<runtime::BatcherMetrics>();

  mutable std::atomic<std::uint64_t> data_requests_{0};
  mutable std::atomic<std::uint64_t> algorithm_requests_{0};
  mutable std::atomic<std::uint64_t> model_requests_{0};
  mutable std::atomic<std::uint64_t> stream_requests_{0};
  mutable std::atomic<std::uint64_t> errors_{0};
  std::shared_ptr<net::ResilienceMetrics> resilience_ =
      std::make_shared<net::ResilienceMetrics>();
  obs::Tracer tracer_;
  obs::MetricsRegistry meter_;
  mutable std::mutex serving_mutex_;
  std::function<net::ServerStats()> serving_source_;  // guarded by serving_mutex_
  /// Declared before lifecycle_/streams_: batcher flush threads and stream
  /// workers charge it, so it must outlive both (members destroy in reverse
  /// order).
  std::shared_ptr<runtime::EnergyGovernor> governor_;
  /// Declared after meter_: the cache wires its counters into it.
  runtime::SessionCache lifecycle_;
  /// Declared after lifecycle_: stream workers acquire through the cache,
  /// so reverse destruction order drains every session before the cache
  /// dies.
  stream::StreamManager streams_;

  struct CapabilitySlice {
    std::uint64_t version = ~0ULL;
    std::shared_ptr<const selector::CapabilityDatabase> db;
  };
  std::mutex capability_mutex_;
  std::map<std::string, CapabilitySlice> capability_cache_;
};

}  // namespace openei::libei
