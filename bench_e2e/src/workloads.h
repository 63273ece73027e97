// The benchmark's three workloads: what they deploy, on which topology, and
// the seeded request pool the load generator draws from — each pooled
// request carrying the answer the program must give (the oracle).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "fleet/router.h"
#include "hwsim/device.h"
#include "net/http.h"
#include "nn/model.h"
#include "selector/selecting_algorithm.h"

namespace openei::bench_e2e {

/// One pooled request and the response it must get.
struct Template {
  std::string method;  // "GET" or "POST"
  std::string target;  // path + query, without the rid parameter
  std::string body;
  int expect_status = 200;
  /// Substrings the response body must contain: for an inference, the
  /// `"model":...` Eq. 1 picks and the `"predictions":[...]` that model
  /// computes in-process; for a hot-swap, the `"deployed":...` name.
  std::vector<std::string> expect;
  bool swap = false;
  std::string model;           // expected pick (reads) or swapped model
  std::string input;           // inference input JSON text (reads)
  std::vector<std::size_t> predictions;  // oracle answer (reads)

  /// The raw HTTP/1.1 request for this template under request id `rid`.
  std::string wire(std::uint64_t rid) const;
  /// The same request as the server sees it after parsing.
  net::HttpRequest parsed(std::uint64_t rid) const;
};

/// A model and where it is deployed.
struct Deployment {
  std::string scenario;
  std::string algorithm;
  std::size_t model = 0;  // index into WorkloadSpec::models
  double accuracy = 0.0;
};

struct WorkloadSpec {
  std::string name;
  /// Fixed open-loop rate (requests/s) and the latency limit a closed-loop
  /// answer must meet to count toward goodput.  Constants: never derived
  /// from a run.
  double rate_rps = 0.0;
  double limit_ms = 0.0;
  std::vector<hwsim::DeviceProfile> devices;  // one EdgeNode per entry
  bool fleet = false;  // fleet::Router front door (replication 2)
  std::size_t budget_bytes = 0;  // SessionCache budget (0 = device default)
  std::vector<nn::Model> models;
  std::vector<Deployment> deployments;
  std::vector<Template> pool;
  /// Draws the next pool index for one connection's request stream.
  std::function<std::size_t(common::Rng&)> pick;
  /// Pool indices of the hot-swap writes sent in bursts between closed-loop
  /// rounds (`pick` may also draw swaps into the request mix).
  std::vector<std::size_t> swaps;
};

/// Builds a workload's models, request pool and oracle from `seed`.  Throws
/// when Eq. 1 does not pick the variants the workload is designed around.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);

/// Span logs of the traced run: `front` holds the router front door's
/// handler spans, `node` every node server's EiService::handle span.
struct Spans {
  SpanLog front{1U << 21};
  SpanLog node{1U << 21};
};

/// Nodes, router and servers of one workload instance.
struct Topology {
  std::vector<std::unique_ptr<core::EdgeNode>> nodes;
  /// Benchmark-owned node servers (traced run only; untraced runs serve
  /// through EdgeNode::start_server).
  std::vector<std::unique_ptr<net::HttpServer>> node_servers;
  std::unique_ptr<fleet::Router> router;
  std::unique_ptr<net::HttpServer> front_server;  // traced fleet runs only
  std::vector<std::uint16_t> node_ports;
  std::uint16_t port = 0;  // where the load generator connects

  ~Topology();
  net::ServerStats node_stats(std::size_t i) const;
};

/// Builds nodes, deploys the models and starts every server.  `spans`
/// non-null selects the traced topology.
std::unique_ptr<Topology> start_topology(const WorkloadSpec& spec, Spans* spans);

/// One blocking request with a fresh connection; true when the answer
/// matches the template.  Used to detect the first warm answer in setup.
bool answered(const Template& request, std::uint16_t port);

/// The selection libei derives from a request's query (the objective and
/// the accuracy floor are the only knobs the workloads use).
selector::SelectionRequest selection_for(
    const std::map<std::string, std::string>& query, const std::string& device);

/// Capability rows of every model deployed under `path`
/// ("/ei_algorithms/{scenario}/{algorithm}"), built the way libei builds
/// them for `device`.
selector::CapabilityDatabase capabilities(const WorkloadSpec& spec,
                                          const std::string& path,
                                          const hwsim::DeviceProfile& device);

/// Whether a response satisfies a template.
bool matches(const Template& request, int status, std::string_view body);

}  // namespace openei::bench_e2e
