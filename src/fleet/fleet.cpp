#include "fleet/fleet.h"

#include <utility>

#include "common/error.h"
#include "hwsim/package.h"
#include "nn/serialize.h"

namespace openei::fleet {

Fleet::Fleet(FleetOptions options) : options_(std::move(options)) {
  OPENEI_CHECK(options_.nodes >= 1, "fleet needs at least one node");
  std::vector<hwsim::DeviceProfile> profiles = options_.profiles;
  if (profiles.empty()) {
    profiles = {hwsim::raspberry_pi_4(), hwsim::jetson_tx2(),
                hwsim::edge_server(), hwsim::mobile_phone()};
  }
  members_.reserve(options_.nodes);
  std::vector<NodeEndpoint> endpoints;
  endpoints.reserve(options_.nodes);
  for (std::size_t i = 0; i < options_.nodes; ++i) {
    Member member;
    member.id = "node" + std::to_string(i);
    core::EdgeNodeConfig config{profiles[i % profiles.size()],
                                hwsim::openei_package(), 4096,
                                options_.service};
    member.node = std::make_unique<core::EdgeNode>(std::move(config));
    member.faults =
        std::make_shared<net::FaultPlan>(options_.fault_seed + i);
    net::HttpServer::Options server;
    server.faults = member.faults;
    member.port = member.node->start_server(0, server);
    member.alive = true;
    endpoints.push_back(NodeEndpoint{member.id, member.port});
    members_.push_back(std::move(member));
  }
  router_ = std::make_unique<Router>(std::move(endpoints), options_.router);
}

Fleet::~Fleet() {
  // Router first: its front-door server may still be forwarding to members.
  router_.reset();
}

core::EdgeNode& Fleet::node(std::size_t i) {
  OPENEI_CHECK(i < members_.size(), "node index ", i, " out of range");
  return *members_[i].node;
}

const std::string& Fleet::node_id(std::size_t i) const {
  OPENEI_CHECK(i < members_.size(), "node index ", i, " out of range");
  return members_[i].id;
}

std::uint16_t Fleet::port(std::size_t i) const {
  OPENEI_CHECK(i < members_.size(), "node index ", i, " out of range");
  return members_[i].port;
}

const std::shared_ptr<net::FaultPlan>& Fleet::faults(std::size_t i) const {
  OPENEI_CHECK(i < members_.size(), "node index ", i, " out of range");
  return members_[i].faults;
}

std::size_t Fleet::index_of(const std::string& node_id) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].id == node_id) return i;
  }
  throw NotFound("no fleet member named '" + node_id + "'");
}

void Fleet::kill(std::size_t i) {
  OPENEI_CHECK(i < members_.size(), "node index ", i, " out of range");
  if (!members_[i].alive) return;
  members_[i].node->stop_server();
  members_[i].alive = false;
}

void Fleet::revive(std::size_t i) {
  OPENEI_CHECK(i < members_.size(), "node index ", i, " out of range");
  if (members_[i].alive) return;
  net::HttpServer::Options server;
  server.faults = members_[i].faults;
  members_[i].node->start_server(members_[i].port, server);
  members_[i].alive = true;
}

bool Fleet::alive(std::size_t i) const {
  OPENEI_CHECK(i < members_.size(), "node index ", i, " out of range");
  return members_[i].alive;
}

std::size_t Fleet::deploy(const std::string& scenario,
                          const std::string& algorithm, const nn::Model& model,
                          double accuracy) {
  return router_
      ->deploy(scenario, algorithm, nn::model_to_json(model).dump(), accuracy)
      .replicas;
}

}  // namespace openei::fleet
