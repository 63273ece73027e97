// Resilient HTTP transport: deadlines, a retry budget with exponential
// backoff + deterministic jitter, and a per-endpoint circuit breaker
// (closed -> open -> half-open with probe requests).
//
// This is the client half of the Sec. IV-C availability story: callers get a
// bounded worst-case latency (the deadline), transient faults are absorbed
// (retries), and a persistently failing endpoint is not hammered (the
// breaker fails fast with CircuitOpenError until a probe succeeds).  All
// jitter flows through common::Rng, so a seeded client produces a
// reproducible backoff schedule.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "net/http.h"

namespace openei::net {

/// Retry budget for one logical request.
struct RetryPolicy {
  /// Total tries including the first (1 = no retries).
  std::size_t max_attempts = 3;
  double initial_backoff_s = 0.01;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 0.5;
  /// Backoff is scaled by a deterministic factor in [1-j, 1+j].
  double jitter_fraction = 0.2;
};

/// Consecutive-failure circuit breaker parameters.
struct CircuitBreakerPolicy {
  /// Consecutive failures that trip the breaker open.
  std::size_t failure_threshold = 3;
  /// How long the breaker stays open before allowing a half-open trial.
  double open_duration_s = 0.25;
};

enum class CircuitState { kClosed, kOpen, kHalfOpen };

const char* to_string(CircuitState state);

/// Point-in-time view of one endpoint's circuit breaker — what /ei_status
/// and /ei_fleet report so fleet failover can be debugged instead of
/// guessed at from aggregate counters.
struct BreakerSnapshot {
  std::string endpoint;  // "127.0.0.1:<port>"
  CircuitState state = CircuitState::kClosed;
  std::size_t consecutive_failures = 0;
  /// Wall-clock seconds of the last state transition; 0 until the breaker
  /// first changes state.
  double last_transition_unix_s = 0.0;
};

/// Shared resilience counters.  Several clients (a fleet::Router's per-node
/// clients, a degrading cloud-edge path) can feed one sink, which libei's
/// /ei_status and the router's /ei_fleet report so the fleet can observe how
/// the transport is coping.  failovers/failbacks are counted by the router.
struct ResilienceMetrics {
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> successes{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> transport_errors{0};
  std::atomic<std::uint64_t> server_errors{0};
  std::atomic<std::uint64_t> breaker_opens{0};
  std::atomic<std::uint64_t> breaker_rejections{0};
  std::atomic<std::uint64_t> failovers{0};
  std::atomic<std::uint64_t> failbacks{0};
  std::atomic<std::uint64_t> degraded_serves{0};
  /// Gauge: breakers currently open (or half-open) across attached clients.
  std::atomic<std::int64_t> open_breakers{0};

  /// Per-endpoint breaker visibility: every ResilientClient wired to this
  /// sink registers a snapshot provider on construction and unregisters on
  /// destruction, so to_json() can emit live closed/open/half-open state per
  /// endpoint ("breakers" array) next to the aggregate counters.
  std::uint64_t register_breaker(std::function<BreakerSnapshot()> provider);
  void unregister_breaker(std::uint64_t token);
  std::vector<BreakerSnapshot> breaker_snapshots() const;

  common::Json to_json() const;

 private:
  mutable std::mutex breakers_mutex_;
  std::uint64_t next_breaker_token_ = 1;
  std::map<std::uint64_t, std::function<BreakerSnapshot()>> breakers_;
};

/// HttpClient wrapper adding deadline + retries + circuit breaking for one
/// endpoint (127.0.0.1:port).  Thread-safe.
class ResilientClient {
 public:
  struct Options {
    /// End-to-end budget per logical request, spanning all attempts and
    /// backoff sleeps.  No call blocks longer than this.
    double deadline_s = 2.0;
    RetryPolicy retry{};
    CircuitBreakerPolicy breaker{};
    /// Treat 500/503 responses as failures: they count toward the breaker
    /// and are retried.  Other application statuses (4xx) pass through.
    bool retry_server_errors = true;
    /// Seed for the deterministic backoff jitter.
    std::uint64_t seed = 42;
    /// Optional shared counter sink (e.g. an EdgeNode's resilience metrics).
    std::shared_ptr<ResilienceMetrics> metrics;
  };

  explicit ResilientClient(std::uint16_t port) : ResilientClient(port, Options{}) {}
  ResilientClient(std::uint16_t port, Options options);
  ~ResilientClient();
  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  /// GET/POST with the full resilience pipeline.  Returns the response
  /// (including 4xx/5xx after the retry budget is exhausted); throws
  /// CircuitOpenError when the breaker rejects the call, TimeoutError when
  /// the deadline expires, IoError when every attempt failed in transport.
  HttpResponse get(const std::string& target);
  HttpResponse post(const std::string& target, const std::string& body,
                    const std::string& content_type = "application/json");
  HttpResponse del(const std::string& target);

  /// Single no-retry attempt that bypasses an open breaker (a half-open
  /// trial).  Returns true when the endpoint answered with a non-5xx status;
  /// updates the breaker either way.  Used by fleet::Router to health-probe
  /// a recovered node without waiting out the open window.
  bool probe(const std::string& target);

  CircuitState circuit_state() const;
  /// Full breaker snapshot: state, consecutive failures, last transition.
  BreakerSnapshot breaker_state() const;
  std::uint16_t endpoint_port() const { return port_; }
  const Options& options() const { return options_; }

  /// Per-client counters (the shared sink aggregates across clients).
  struct Stats {
    std::uint64_t attempts = 0;
    std::uint64_t successes = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t failures = 0;
    std::uint64_t breaker_rejections = 0;
  };
  Stats stats() const;

 private:
  HttpResponse request(const std::string& method, const std::string& target,
                       const std::string& body, const std::string& content_type);
  HttpResponse attempt_once(const std::string& method, const std::string& target,
                            const std::string& body,
                            const std::string& content_type, double budget_s);
  /// True when the breaker admits a request right now (may flip open ->
  /// half-open when the open window has elapsed).
  bool breaker_admits();
  void record_success();
  void record_failure();
  double backoff_for(std::size_t attempt);

  std::uint16_t port_;
  Options options_;

  /// Sets state_ and stamps the transition time (caller holds mutex_).
  void transition_to(CircuitState next);

  mutable std::mutex mutex_;
  common::Rng jitter_rng_;
  CircuitState state_ = CircuitState::kClosed;
  std::size_t consecutive_failures_ = 0;
  std::int64_t open_until_ns_ = 0;
  std::int64_t last_transition_ns_ = 0;  // 0 = never transitioned
  Stats stats_;
  std::uint64_t breaker_token_ = 0;  // registration in the shared sink
};

}  // namespace openei::net
