// fleet::Router — the front door of the sharded edge fleet.
//
// The router consistent-hash-maps request keys onto member nodes (a
// HashRing with configurable replication), forwards each request to the
// key's primary through a per-node net::ResilientClient (deadline + retry
// budget + per-endpoint circuit breaker), and fails over to the key's
// replicas when the primary is unreachable — whether a fault plan, an
// explicit Fleet::kill(), or a crashed process took it down.
//
// Health / ring state machine (per node):
//
//          forward fails (IoError after the
//          client's own retry budget)
//   kUp ────────────────────────────────────▶ kDown
//    ▲   node removed from the ring;              │
//    │   tracked models re-replicated to          │  every probe_every
//    │   the keys' new owner sets                 │  routed requests, the
//    │                                            ▼  router probes it
//    └──────────────────────────────────── probe succeeds
//        failback: node re-added, ring rebalanced back, owners
//        missing tracked models receive them again
//
// Placement and routing use the same key, so a request always lands on
// nodes that hold its models:
//   - /ei_algorithms/{scenario}/{algorithm} → key "scenario/algorithm"
//     (all variants of a pair colocate, keeping the model selector whole);
//   - a `session` query parameter spreads requests across the key's owner
//     set (hash(session) picks which owner is tried first) without ever
//     leaving it;
//   - every other path routes by the raw path.
//
// Deployment through the router (deploy() or POST /ei_models on the front
// door) places the model on all owners of its key — that is the replication
// the node-kill bench leans on: with replication ≥ 2 a mid-run kill loses
// no requests, only a failover hop.
//
// Observability: GET /ei_fleet (per-node health + breaker state + ring
// ownership + replica placement), ei_fleet_* counters on GET /ei_metrics,
// and obs:: spans (fleet.route → fleet.forward per hop, fleet.probe) when
// tracing is enabled.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "fleet/hash_ring.h"
#include "net/http.h"
#include "net/resilient_client.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace openei::fleet {

/// One member node as the router sees it: a stable id and a loopback port.
struct NodeEndpoint {
  std::string id;
  std::uint16_t port = 0;
};

struct RouterOptions {
  /// Owners per key (clamped to the member count).  ≥2 gives every key a
  /// failover target; 1 is sharding without redundancy.
  std::size_t replication = 2;
  std::size_t vnodes_per_node = 64;
  /// Ring/point + session-spread hash seed.
  std::uint64_t seed = 42;
  /// Per-node transport.  Defaults favour fast failure detection: the
  /// replica set is the redundancy, not a deep retry budget.
  net::ResilientClient::Options client{
      /*deadline_s=*/2.0,
      net::RetryPolicy{/*max_attempts=*/2, /*initial_backoff_s=*/0.005,
                       /*backoff_multiplier=*/2.0, /*max_backoff_s=*/0.05,
                       /*jitter_fraction=*/0.2},
      net::CircuitBreakerPolicy{},
      /*retry_server_errors=*/true,
      /*seed=*/42,
      /*metrics=*/nullptr};
  /// Consecutive forward failures that mark a node down (1 = a single
  /// exhausted retry budget is enough — the FailoverClient convention).
  std::size_t node_failure_threshold = 1;
  /// While any node is down, probe the down set every this many routed
  /// requests (count-based, so tests are deterministic).  probe_down_nodes()
  /// probes immediately regardless.
  std::size_t probe_every = 8;
  /// Cheap health-check target for failback probes.
  std::string probe_target = "/ei_status";
  /// Router-level tracing (fleet.route/fleet.forward spans).
  obs::Tracer::Options tracing;
  /// Serving options for the HTTP front door (loop threads, deadlines,
  /// connection caps, fault injection) — the router fronts the whole fleet,
  /// so this is where event-loop serving matters most.
  net::HttpServer::Options front_door;
};

class Router {
 public:
  Router(std::vector<NodeEndpoint> nodes, RouterOptions options = {});
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // --- Serving ----------------------------------------------------------
  /// Routes one request by key: forwards to the key's owners in failover
  /// order.  Returns the first reachable owner's response (including 4xx —
  /// application errors would repeat identically on a replica); answers 503
  /// JSON when every owner is unreachable, or when no node is up.
  net::HttpResponse route(const net::HttpRequest& request);
  /// Convenience: builds the HttpRequest from method/target/body.
  net::HttpResponse route(const std::string& method, const std::string& target,
                          const std::string& body = "");

  /// Deploys a model (as serialized JSON) to every owner of its placement
  /// key "scenario/algorithm" and tracks it for re-replication on
  /// rebalance.  Returns the number of owners that accepted it.
  std::size_t deploy(const std::string& scenario, const std::string& algorithm,
                     const std::string& model_json, double accuracy);

  // --- Health -----------------------------------------------------------
  /// Probes every down node right now; a node that answers is failed back
  /// (re-added to the ring, tracked models re-replicated).  Returns the
  /// number of nodes revived.
  std::size_t probe_down_nodes();
  bool node_up(const std::string& node_id) const;
  /// Member ids currently in the ring (up nodes), sorted.
  std::vector<std::string> up_nodes() const;
  /// Owner set a key resolves to right now (failover order).
  std::vector<std::string> owners_of(const std::string& key) const;
  /// The routing key route() would derive for a path+query.
  static std::string routing_key(const net::HttpRequest& request);

  // --- Observability ----------------------------------------------------
  /// The /ei_fleet document: per-node health, breaker state, ring
  /// ownership, replica placements, router counters.
  common::Json fleet_status() const;
  obs::MetricsRegistry& meter() { return meter_; }
  obs::Tracer& tracer() { return tracer_; }
  /// Shared sink aggregating every per-node client's transport counters
  /// (and their per-endpoint breaker snapshots).
  const std::shared_ptr<net::ResilienceMetrics>& resilience() const {
    return resilience_;
  }

  // --- Front door (HTTP) ------------------------------------------------
  /// Serves the router over HTTP: /ei_fleet and /ei_metrics answered
  /// locally, everything else routed to the fleet.  Port 0 = ephemeral.
  std::uint16_t start_server(std::uint16_t port = 0);
  void stop_server();
  std::uint16_t port() const;

 private:
  struct Member {
    NodeEndpoint endpoint;
    std::unique_ptr<net::ResilientClient> client;
    bool up = true;
    std::size_t consecutive_failures = 0;  // guarded by mutex_
  };
  /// A model tracked for (re-)replication, kept as serialized JSON so a
  /// rebalance can push it without fetching from a (possibly dead) owner.
  struct TrackedModel {
    std::string scenario;
    std::string algorithm;
    std::string model_json;
    double accuracy = 0.0;
  };

  Member* find_member(const std::string& node_id);
  const Member* find_member(const std::string& node_id) const;
  /// DELETE /ei_models/{name}[?rollback=1] fanned out to the model's owner
  /// set (undeploy forgets the tracked model; rollback keeps tracking it).
  net::HttpResponse undeploy(const std::string& name,
                             const net::HttpRequest& request);
  /// Records one forward failure; at the threshold the node leaves the ring
  /// and the re-replication it displaced is returned for execution outside
  /// the lock.
  void note_forward_failure(const std::string& node_id);
  void note_forward_success(const std::string& node_id);
  /// Marks a node down/up and rebalances placement.  Caller must NOT hold
  /// mutex_ (re-replication performs HTTP pushes).
  void mark_down(const std::string& node_id);
  void mark_up(const std::string& node_id);
  /// Pushes every tracked model to owners currently missing it.  Takes and
  /// releases mutex_ internally for snapshots; network I/O runs unlocked.
  void replicate_tracked_models();
  /// Count-gated probe trigger on the route path.
  void maybe_probe();

  RouterOptions options_;
  std::shared_ptr<net::ResilienceMetrics> resilience_ =
      std::make_shared<net::ResilienceMetrics>();
  obs::MetricsRegistry meter_;
  obs::Tracer tracer_;

  mutable std::mutex mutex_;  // ring_, members_ health, tracked_, counters
  HashRing ring_;
  std::vector<Member> members_;
  std::map<std::string, TrackedModel> tracked_;  // by model name
  std::size_t down_count_ = 0;
  std::size_t requests_since_probe_ = 0;
  // Serializes re-replication sweeps (they do HTTP I/O outside mutex_).
  std::mutex replicate_mutex_;

  std::unique_ptr<net::HttpServer> server_;
};

}  // namespace openei::fleet
