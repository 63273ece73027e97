// openei::EdgeNode — the "deploy and play" facade (paper Sec. III).
//
// Deploying OpenEI on any hardware profile turns it into an intelligent
// edge: the node wires together the data store, the model registry, the
// package manager, the model selector, and libei's RESTful API, optionally
// served over real HTTP on loopback.  This is the type the paper's
// Raspberry Pi walkthrough (Sec. III-A/III-E) maps onto — see
// examples/quickstart.cpp.
#pragma once

#include <memory>
#include <optional>

#include "datastore/timeseries.h"
#include "libei/service.h"
#include "net/http.h"
#include "runtime/inference.h"
#include "runtime/model_registry.h"

namespace openei::core {

struct EdgeNodeConfig {
  hwsim::DeviceProfile device;   // what hardware this node simulates
  hwsim::PackageSpec package;    // which deep-learning package it runs
  std::size_t sensor_capacity = 4096;
  /// libei behaviour: session budget and micro-batching knobs
  /// (service.lifecycle), and per-request tracing (service.tracing.enabled
  /// turns /ei_trace on).
  libei::EiService::Options service = {};
};

class EdgeNode {
 public:
  /// Deploy-and-play: a node is ready as soon as it is constructed.
  explicit EdgeNode(EdgeNodeConfig config);
  ~EdgeNode();
  EdgeNode(const EdgeNode&) = delete;
  EdgeNode& operator=(const EdgeNode&) = delete;

  // --- Models (package manager) ---------------------------------------
  /// Deploys a model under (scenario, algorithm); multiple variants per
  /// pair feed the model selector.
  void deploy_model(const std::string& scenario, const std::string& algorithm,
                    nn::Model model, double accuracy);
  /// Removes a deployed model (and its retained prior version); returns
  /// false when no such model exists.  Same semantics as DELETE /ei_models.
  bool undeploy_model(const std::string& name);
  /// Restores the version the last hot-swap of `name` replaced; returns
  /// false when no prior version is retained.  Same semantics as
  /// DELETE /ei_models/{name}?rollback=1.
  bool rollback_model(const std::string& name);
  runtime::ModelRegistry& registry() { return registry_; }

  // --- Data (edge data sharing) ----------------------------------------
  /// Ingests a sensor reading.
  void ingest(const std::string& sensor_id, double timestamp,
              common::Json payload);
  datastore::SensorStore& store() { return store_; }

  // --- In-process API (same semantics as the REST routes) --------------
  /// Runs the full Sec. III-E flow for an algorithm call without HTTP.
  net::HttpResponse call(const std::string& method, const std::string& target,
                         const std::string& body = "");

  // --- Edge-edge model sharing (Sec. II-C) ------------------------------
  /// Fetches a model from a peer edge node's libei (`GET /ei_models/{name}`
  /// on 127.0.0.1:`peer_port`) and deploys it locally under the peer's
  /// scenario/algorithm.  Rides through transient peer faults with the
  /// node's resilient transport (deadline + retries); throws NotFound when
  /// the peer lacks the model and IoError when the peer stays unreachable.
  void fetch_model_from_peer(std::uint16_t peer_port, const std::string& name);

  // --- RESTful API (libei over HTTP) -----------------------------------
  /// Starts serving on 127.0.0.1 (port 0 = ephemeral); returns bound port.
  /// The Options overload configures the server's read deadline and an
  /// optional deterministic fault-injection plan (tests/chaos benchmarks).
  std::uint16_t start_server(std::uint16_t port = 0);
  std::uint16_t start_server(std::uint16_t port, net::HttpServer::Options options);
  void stop_server();
  bool serving() const { return server_ != nullptr; }
  std::uint16_t port() const;
  /// Serving counters of the running HTTP server (requires serving()).
  net::ServerStats server_stats() const;

  /// The node's shared outbound-transport resilience counters (also exposed
  /// by GET /ei_status under "resilience").  Wire this into any
  /// ResilientClient acting on the node's behalf.
  const std::shared_ptr<net::ResilienceMetrics>& resilience_metrics() const {
    return service_.resilience();
  }

  /// The libei service, for direct access to its tracer (GET /ei_trace) and
  /// metric families (GET /ei_metrics) from tests, benches, and dashboards.
  libei::EiService& service() { return service_; }

  const hwsim::DeviceProfile& device() const { return config_.device; }
  const hwsim::PackageSpec& package() const { return config_.package; }

 private:
  EdgeNodeConfig config_;
  runtime::ModelRegistry registry_;
  datastore::SensorStore store_;
  libei::EiService service_;
  std::unique_ptr<net::HttpServer> server_;
};

}  // namespace openei::core
