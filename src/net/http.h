// HTTP/1.1 server and client over the TCP substrate.
//
// Scope: what libei's RESTful API needs — GET/POST/DELETE, headers, query
// strings, Content-Length bodies — plus the serving concerns the "millions
// of users" claim needs to be measurable: keep-alive connection reuse,
// pipelined requests, and a non-blocking event-loop engine.  Strict parsing
// with ParseError on malformed input; the server answers 400 instead of
// crashing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/faults.h"
#include "net/socket.h"

namespace openei::net {

struct HttpRequest {
  std::string method;  // "GET", "POST"...
  std::string path;    // decoded path without query ("/ei_data/realtime/cam1")
  std::map<std::string, std::string> query;    // decoded query parameters
  std::map<std::string, std::string> headers;  // lower-cased names
  std::string body;
  std::string version = "HTTP/1.1";  // as sent; drives keep-alive defaults
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;

  static HttpResponse json(int status, const std::string& body) {
    return HttpResponse{status, "application/json", body};
  }
};

/// Parses "GET /path?a=1 HTTP/1.1" request text (headers + body already
/// assembled).  Exposed for tests.
HttpRequest parse_request(const std::string& head, const std::string& body);

/// Splits a raw target into decoded path + query map.  Exposed for routing.
void parse_target(const std::string& target, std::string& path,
                  std::map<std::string, std::string>& query);

/// Monotonic serving counters, snapshotted by HttpServer::stats() (and
/// surfaced as the "serving" block of GET /ei_status when a node wires the
/// server into its libei service).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // over the concurrent-connection cap
  std::uint64_t requests_served = 0;       // responses fully queued/written
  std::uint64_t keepalive_reuses = 0;      // requests beyond a conn's first
  std::uint64_t idle_closed = 0;           // keep-alive conns reaped as idle
  std::uint64_t deadline_closed = 0;       // mid-request read deadline hits
  std::uint64_t parse_errors = 0;          // 400s from framing/parse errors
  std::uint64_t open_connections = 0;      // currently open (gauge)
  std::uint64_t peak_connections = 0;      // high-water mark of the gauge
};

/// HTTP server on an event loop: a small fixed pool of non-blocking
/// event-loop threads multiplexes every connection (epoll on Linux, poll
/// elsewhere).  Keep-alive reuse, pipelined parsing out of per-connection
/// buffers, responses serialized straight into per-connection output
/// buffers with EAGAIN backpressure, idle-timeout reaping, a hard cap on
/// concurrent connections, FaultPlan injection, 400-on-malformed, and a
/// graceful drain on stop().
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    /// Per-request read deadline: once a request's first byte arrives, the
    /// whole request must arrive within this (a slow-dribbling client
    /// cannot pin the connection mid-request past it).
    double read_timeout_s = 10.0;
    /// Keep-alive idle deadline: a connection with no request in flight and
    /// nothing left to write is closed after this (slow-loris reaping).
    double idle_timeout_s = 30.0;
    /// Event-loop pool size; 0 = auto (half the hardware threads, 1..4).
    std::size_t event_loop_threads = 0;
    /// Concurrent-connection cap: connections beyond it are answered 503
    /// and closed at accept time.
    std::size_t max_connections = 4096;
    /// Optional deterministic fault schedule consulted once per request
    /// (after parsing, before the handler).  Shared so tests/benchmarks can
    /// inspect the plan's counters while the server runs.
    std::shared_ptr<FaultPlan> faults;
  };

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving `handler`.
  /// Exceptions from the handler become 500 responses; ParseError becomes 400;
  /// NotFound becomes 404.
  HttpServer(std::uint16_t port, Handler handler);
  HttpServer(std::uint16_t port, Handler handler, Options options);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  std::uint16_t port() const;

  /// Stops accepting, drains in-flight requests (parsed requests finish and
  /// their responses flush; connections idle or mid-request are closed),
  /// and joins every server thread.  Idempotent.
  void stop();

  /// Snapshot of the serving counters (monotonic except open_connections).
  ServerStats stats() const;

  /// Event-loop internals; out-of-line so the header stays free of
  /// epoll/poll details.
  class Core;

 private:
  std::unique_ptr<Core> core_;
};

/// Blocking single-request client with an end-to-end deadline: connect,
/// write, and the whole response read must complete within `deadline_s`, so
/// a dead-but-accepting or slow-dribbling peer cannot hang the caller.
/// Throws TimeoutError past the deadline and IoError on transport failures
/// (connection refused/reset, truncated response).
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port, double deadline_s = 5.0)
      : port_(port), deadline_s_(deadline_s) {}

  /// `target` is a raw path+query, e.g. "/ei_data/realtime/cam1?timestamp=5".
  HttpResponse get(const std::string& target);
  HttpResponse post(const std::string& target, const std::string& body,
                    const std::string& content_type = "application/json");
  HttpResponse del(const std::string& target);

  std::uint16_t port() const { return port_; }
  double deadline_s() const { return deadline_s_; }

 private:
  HttpResponse request(const std::string& method, const std::string& target,
                       const std::string& body, const std::string& content_type);

  std::uint16_t port_;
  double deadline_s_;
};

}  // namespace openei::net
