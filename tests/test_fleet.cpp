// Sharded-fleet suite (label: fleet): consistent-hash ring properties
// (determinism, balance, minimal remap), placement-aware routing and
// replication, node-kill failover, probe-driven failback with ring
// rebalancing, replica repair, the /ei_fleet + /ei_metrics surfaces, and a
// kill/revive stress meant to run early on the sanitizer legs.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "fleet/fleet.h"
#include "fleet/hash_ring.h"
#include "fleet/router.h"
#include "net/faults.h"
#include "net/http.h"
#include "nn/serialize.h"
#include "nn/zoo.h"

namespace openei::fleet {
namespace {

using common::Json;
using common::Rng;

constexpr std::size_t kFeatures = 8;
constexpr std::size_t kClasses = 3;
constexpr const char* kInput =
    "?input=[[1,2,3,4,5,6,7,8],[8,7,6,5,4,3,2,1]]";

/// Constant-prediction model (zeroed MLP, one-hot output bias): every
/// request answers `winner`, so tests can read *which* replica/version
/// served straight off the predictions.
nn::Model make_constant_model(const std::string& name, std::size_t winner) {
  Rng rng(7);
  nn::Model model = nn::zoo::make_mlp(name, kFeatures, kClasses, {4}, rng);
  for (nn::Tensor* param : model.parameters()) *param *= 0.0F;
  model.parameters().back()->data()[winner] = 1.0F;
  return model;
}

std::vector<std::size_t> predictions_of(const net::HttpResponse& response) {
  Json doc = Json::parse(response.body);
  std::vector<std::size_t> out;
  for (const Json& p : doc.at("predictions").as_array()) {
    out.push_back(static_cast<std::size_t>(p.as_int()));
  }
  return out;
}

std::vector<std::string> ring_nodes(std::size_t n) {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back("node" + std::to_string(i));
  return ids;
}

std::vector<std::string> sample_keys(std::size_t n) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back("scenario" + std::to_string(i) + "/algo" +
                   std::to_string(i % 7));
  }
  return keys;
}

// --- Ring properties ------------------------------------------------------

TEST(HashRingTest, PlacementIsDeterministicAcrossInstances) {
  HashRing a(64, 42);
  HashRing b(64, 42);
  for (const std::string& id : ring_nodes(5)) {
    a.add_node(id);
    b.add_node(id);
  }
  for (const std::string& key : sample_keys(100)) {
    EXPECT_EQ(a.owners(key, 3), b.owners(key, 3)) << "key " << key;
  }
  // A different seed lays the points elsewhere: at least one key must move.
  HashRing other_seed(64, 43);
  for (const std::string& id : ring_nodes(5)) other_seed.add_node(id);
  bool any_moved = false;
  for (const std::string& key : sample_keys(100)) {
    if (other_seed.primary(key) != a.primary(key)) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(HashRingTest, OwnershipIsBalancedAcrossNodes) {
  HashRing ring(64, 42);
  for (const std::string& id : ring_nodes(8)) ring.add_node(id);
  std::map<std::string, double> shares = ring.ownership();
  ASSERT_EQ(shares.size(), 8U);
  double total = 0.0;
  for (const auto& [id, share] : shares) {
    // 64 vnodes concentrate shares around 1/8; pin a generous band so the
    // test documents "balanced", not the exact hash layout.
    EXPECT_GT(share, 0.125 / 2.5) << id;
    EXPECT_LT(share, 0.125 * 2.5) << id;
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HashRingTest, OwnersAreDistinctAndClampedToMembership) {
  HashRing ring(64, 42);
  for (const std::string& id : ring_nodes(5)) ring.add_node(id);
  for (const std::string& key : sample_keys(50)) {
    std::vector<std::string> owners = ring.owners(key, 3);
    ASSERT_EQ(owners.size(), 3U);
    EXPECT_EQ(std::set<std::string>(owners.begin(), owners.end()).size(), 3U);
    EXPECT_EQ(owners[0], ring.primary(key));
  }
  // Replication beyond the member count clamps instead of repeating nodes.
  std::vector<std::string> all = ring.owners("some/key", 9);
  EXPECT_EQ(all.size(), 5U);
  EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(), 5U);
}

TEST(HashRingTest, RemovingANodeOnlyRemapsItsOwnKeys) {
  HashRing ring(64, 42);
  for (const std::string& id : ring_nodes(6)) ring.add_node(id);
  std::vector<std::string> keys = sample_keys(200);
  std::map<std::string, std::vector<std::string>> before;
  for (const std::string& key : keys) before[key] = ring.owners(key, 2);

  const std::string victim = "node3";
  ASSERT_TRUE(ring.remove_node(victim));
  for (const std::string& key : keys) {
    const std::vector<std::string>& old_owners = before[key];
    bool involved = std::find(old_owners.begin(), old_owners.end(), victim) !=
                    old_owners.end();
    std::vector<std::string> now = ring.owners(key, 2);
    if (!involved) {
      // Consistent hashing's whole point: uninvolved keys keep their exact
      // owner sequence.
      EXPECT_EQ(now, old_owners) << "key " << key;
    } else {
      EXPECT_EQ(std::find(now.begin(), now.end(), victim), now.end());
    }
  }
}

TEST(HashRingTest, RejoiningANodeRestoresPlacementExactly) {
  HashRing ring(64, 42);
  for (const std::string& id : ring_nodes(6)) ring.add_node(id);
  std::vector<std::string> keys = sample_keys(200);
  std::map<std::string, std::vector<std::string>> before;
  for (const std::string& key : keys) before[key] = ring.owners(key, 2);

  ASSERT_TRUE(ring.remove_node("node2"));
  ring.add_node("node2");  // points derive from (seed, id, index): same spots
  for (const std::string& key : keys) {
    EXPECT_EQ(ring.owners(key, 2), before[key]) << "key " << key;
  }
  EXPECT_EQ(ring.vnode_count(), 6U * 64U);
}

// --- Routing keys ---------------------------------------------------------

TEST(RouterKeyTest, AlgorithmVariantsColocateOnOnePlacementKey) {
  auto key_for = [](const std::string& target) {
    net::HttpRequest request;
    request.method = "GET";
    net::parse_target(target, request.path, request.query);
    return Router::routing_key(request);
  };
  EXPECT_EQ(key_for("/ei_algorithms/safety/detection?input=[[1]]"),
            "safety/detection");
  EXPECT_EQ(key_for("/ei_algorithms/safety/detection/variants"),
            "safety/detection");
  // The session parameter spreads load but must never change placement.
  EXPECT_EQ(key_for("/ei_algorithms/safety/detection?session=a"),
            key_for("/ei_algorithms/safety/detection?session=b"));
  EXPECT_EQ(key_for("/ei_status"), "/ei_status");
}

// --- Fleet placement + replication ----------------------------------------

FleetOptions small_fleet(std::size_t nodes, std::size_t replication) {
  FleetOptions options;
  options.nodes = nodes;
  options.router.replication = replication;
  return options;
}

TEST(FleetTest, DeployReplicatesToExactlyTheOwnerSet) {
  Fleet fleet(small_fleet(4, 2));
  std::size_t replicas =
      fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  EXPECT_EQ(replicas, 2U);

  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  ASSERT_EQ(owners.size(), 2U);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    bool is_owner = std::find(owners.begin(), owners.end(),
                              fleet.node_id(i)) != owners.end();
    net::HttpClient direct(fleet.port(i));
    EXPECT_EQ(direct.get("/ei_models/det").status, is_owner ? 200 : 404)
        << fleet.node_id(i);
  }
}

TEST(FleetTest, RoutesInferenceToAnOwnerNode) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 2), 0.9);
  net::HttpResponse response = fleet.router().route(
      "GET", std::string("/ei_algorithms/safety/detection") + kInput);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(predictions_of(response), (std::vector<std::size_t>{2, 2}));
  // The serving node is visible in the forward counters: only owners serve.
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  double ok_forwards = 0.0;
  for (const std::string& id : owners) {
    ok_forwards += fleet.router()
                       .meter()
                       .counter("ei_fleet_forwards_total",
                                {{"node", id}, {"outcome", "ok"}})
                       .value();
  }
  EXPECT_GE(ok_forwards, 1.0);
}

TEST(FleetTest, SessionSpreadingStaysInsideTheOwnerSet) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 0), 0.9);
  const std::string base =
      std::string("/ei_algorithms/safety/detection") + kInput;
  for (int s = 0; s < 32; ++s) {
    net::HttpResponse response = fleet.router().route(
        "GET", base + "&session=user" + std::to_string(s));
    ASSERT_EQ(response.status, 200);
  }
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  double owner_forwards = 0.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string& id = fleet.node_id(i);
    double ok = fleet.router()
                    .meter()
                    .counter("ei_fleet_forwards_total",
                             {{"node", id}, {"outcome", "ok"}})
                    .value();
    bool is_owner =
        std::find(owners.begin(), owners.end(), id) != owners.end();
    if (is_owner) {
      // 32 distinct sessions must spread across both owners, not pile on
      // the primary.
      EXPECT_GE(ok, 1.0) << id;
      owner_forwards += ok;
    } else {
      EXPECT_EQ(ok, 0.0) << id << " served a request it does not own";
    }
  }
  EXPECT_GE(owner_forwards, 32.0);
}

// --- Failover / failback --------------------------------------------------

TEST(FleetTest, FailsOverToReplicaWhenPrimaryIsKilled) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  ASSERT_EQ(owners.size(), 2U);
  fleet.kill(fleet.index_of(owners[0]));

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  net::HttpResponse response = fleet.router().route("GET", target);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(predictions_of(response), (std::vector<std::size_t>{1, 1}));
  EXPECT_FALSE(fleet.router().node_up(owners[0]));
  EXPECT_EQ(fleet.router().up_nodes().size(), 3U);
  EXPECT_GE(
      fleet.router().meter().counter("ei_fleet_failovers_total").value(), 1.0);
  // Follow-up requests route straight to the new primary: no more failover
  // hops accumulate once the ring has rebalanced.
  double failovers =
      fleet.router().meter().counter("ei_fleet_failovers_total").value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(fleet.router().route("GET", target).status, 200);
  }
  EXPECT_EQ(
      fleet.router().meter().counter("ei_fleet_failovers_total").value(),
      failovers);
}

TEST(FleetTest, RepairsReplicationAfterLosingAnOwner) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  fleet.kill(fleet.index_of(owners[0]));
  // One failed request marks the node down and triggers the repair sweep.
  ASSERT_EQ(fleet.router()
                .route("GET",
                       std::string("/ei_algorithms/safety/detection") + kInput)
                .status,
            200);

  std::vector<std::string> new_owners =
      fleet.router().owners_of("safety/detection");
  ASSERT_EQ(new_owners.size(), 2U);
  for (const std::string& id : new_owners) {
    EXPECT_NE(id, owners[0]);
    net::HttpClient direct(fleet.port(fleet.index_of(id)));
    EXPECT_EQ(direct.get("/ei_models/det").status, 200)
        << id << " should have been re-replicated to";
  }
}

TEST(FleetTest, RetriesAReplicaMissOnThePeerOwners) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  ASSERT_EQ(owners.size(), 2U);

  // Simulate replication lag: the first-tried owner is healthy but does not
  // hold the model yet (the state a freshly promoted owner is in while a
  // re-replication sweep is still in flight).
  net::HttpClient primary(fleet.port(fleet.index_of(owners[0])));
  ASSERT_LT(primary.del("/ei_models/det").status, 300);

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  net::HttpResponse response = fleet.router().route("GET", target);
  EXPECT_EQ(response.status, 200);  // peer owner still serves
  EXPECT_GE(fleet.router()
                .meter()
                .counter("ei_fleet_forwards_total",
                         {{"node", owners[0]}, {"outcome", "miss"}})
                .value(),
            1.0);

  // When every owner misses, the 404 is the answer — not a 503.
  net::HttpClient replica(fleet.port(fleet.index_of(owners[1])));
  ASSERT_LT(replica.del("/ei_models/det").status, 300);
  EXPECT_EQ(fleet.router().route("GET", target).status, 404);
}

TEST(FleetTest, ProbeFailsARevivedNodeBackIntoTheRing) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::vector<std::string> before = fleet.router().up_nodes();
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  std::size_t victim = fleet.index_of(owners[0]);

  fleet.kill(victim);
  ASSERT_EQ(fleet.router()
                .route("GET",
                       std::string("/ei_algorithms/safety/detection") + kInput)
                .status,
            200);
  ASSERT_FALSE(fleet.router().node_up(owners[0]));

  // While down, probing revives nothing.
  EXPECT_EQ(fleet.router().probe_down_nodes(), 0U);
  ASSERT_FALSE(fleet.router().node_up(owners[0]));

  fleet.revive(victim);
  EXPECT_EQ(fleet.router().probe_down_nodes(), 1U);
  EXPECT_TRUE(fleet.router().node_up(owners[0]));
  // Failback restores the ring — and with it the exact original placement.
  EXPECT_EQ(fleet.router().up_nodes(), before);
  EXPECT_EQ(fleet.router().owners_of("safety/detection"), owners);
  EXPECT_GE(
      fleet.router().meter().counter("ei_fleet_failbacks_total").value(), 1.0);
  EXPECT_EQ(predictions_of(fleet.router().route(
                "GET",
                std::string("/ei_algorithms/safety/detection") + kInput)),
            (std::vector<std::size_t>{1, 1}));
}

TEST(FleetTest, RoutedTrafficAloneTriggersFailbackProbes) {
  FleetOptions options = small_fleet(3, 2);
  options.router.probe_every = 4;
  Fleet fleet(options);
  fleet.deploy("safety", "detection", make_constant_model("det", 0), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  std::size_t victim = fleet.index_of(owners[0]);
  fleet.kill(victim);

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  ASSERT_EQ(fleet.router().route("GET", target).status, 200);  // marks down
  fleet.revive(victim);
  // No explicit probe call: the count-gated probe on the route path must
  // notice the revived node within probe_every requests.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(fleet.router().route("GET", target).status, 200);
  }
  EXPECT_TRUE(fleet.router().node_up(owners[0]));
  EXPECT_EQ(fleet.router().up_nodes().size(), 3U);
}

TEST(FleetTest, FaultInjectedOutageFailsOverWithZeroFailedRequests) {
  FleetOptions options = small_fleet(3, 2);
  options.router.probe_every = 4;
  Fleet fleet(options);
  fleet.deploy("safety", "detection", make_constant_model("det", 2), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  // The primary refuses its next 6 connections (a deterministic outage
  // window), then recovers on its own — no kill/revive involved.
  fleet.faults(fleet.index_of(owners[0]))
      ->add(net::FaultRule{"", net::FaultKind::kRefuseConnection, 1.0, 0, 6});

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  for (int i = 0; i < 24; ++i) {
    net::HttpResponse response = fleet.router().route("GET", target);
    ASSERT_EQ(response.status, 200) << "request " << i;
    ASSERT_EQ(predictions_of(response), (std::vector<std::size_t>{2, 2}));
  }
  // The outage window has long passed and probes ran: the fleet is whole.
  EXPECT_EQ(fleet.router().up_nodes().size(), 3U);
  EXPECT_GE(
      fleet.router().meter().counter("ei_fleet_failovers_total").value(), 1.0);
}

// --- The replica-failover client contract ---------------------------------
//
// fleet::Router is the only failover client.  These suites pin the contract
// callers relied on from the standalone client it replaced, on a 2-node fleet
// where both nodes own the key: the second is the first's only backup.

TEST(FailoverTest, SurvivesPrimaryDeath) {
  Fleet fleet(small_fleet(2, 2));
  // Trained-looking weights, not a constant model, so identical answers
  // mean both replicas really hold the same parameters.
  Rng rng(1234);
  fleet.deploy("safety", "detection",
               nn::zoo::make_mlp("det", kFeatures, kClasses, {16}, rng), 0.9);
  std::vector<std::string> targets;
  for (int r = 0; r < 4; ++r) {
    std::string row = "[";
    for (std::size_t f = 0; f < kFeatures; ++f) {
      if (f > 0) row += ',';
      row += std::to_string(static_cast<int>((r * 7 + f * 3) % 11) - 5);
    }
    targets.push_back("/ei_algorithms/safety/detection?input=[" + row + "]]");
  }
  std::vector<std::vector<std::size_t>> before;
  for (const std::string& target : targets) {
    net::HttpResponse response = fleet.router().route("GET", target);
    ASSERT_EQ(response.status, 200);
    before.push_back(predictions_of(response));
  }

  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  fleet.kill(fleet.index_of(owners[0]));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    net::HttpResponse response = fleet.router().route("GET", targets[i]);
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(predictions_of(response), before[i]) << targets[i];
  }
  EXPECT_FALSE(fleet.router().node_up(owners[0]));
  EXPECT_EQ(fleet.router().resilience()->failovers.load(), 1U);
}

TEST(FailoverTest, AllReplicasDownThrowsIoError) {
  Fleet fleet(small_fleet(2, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  fleet.kill(0);
  fleet.kill(1);
  // Every replica now fails in transport: a direct call throws IoError.
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    net::HttpClient direct(fleet.port(i));
    EXPECT_THROW(direct.get("/ei_status"), IoError) << fleet.node_id(i);
  }

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  // The router absorbs those IoErrors.  The first request tries both owners
  // and marks them down; the second finds an empty ring.  Neither throws:
  // the caller gets a 503 body.
  for (int i = 0; i < 2; ++i) {
    net::HttpResponse response;
    ASSERT_NO_THROW(response = fleet.router().route("GET", target));
    EXPECT_EQ(response.status, 503) << "request " << i;
    EXPECT_EQ(Json::parse(response.body).at("error").as_string(),
              "fleet_unavailable");
  }
  EXPECT_TRUE(fleet.router().up_nodes().empty());

  fleet.revive(0);
  fleet.revive(1);
  EXPECT_EQ(fleet.router().probe_down_nodes(), 2U);
  net::HttpResponse recovered = fleet.router().route("GET", target);
  ASSERT_EQ(recovered.status, 200);
  EXPECT_EQ(predictions_of(recovered), (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(fleet.router().resilience()->failbacks.load(), 2U);
}

TEST(FailoverTest, ApplicationErrorsDoNotTriggerFailover) {
  Fleet fleet(small_fleet(2, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 0), 0.9);
  // Every owner of "ghost/none" is healthy and answers 404: an application
  // error that would repeat on any replica, not a transport failure.
  net::HttpResponse missing =
      fleet.router().route("GET", "/ei_algorithms/ghost/none?input=[[1]]");
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(fleet.router().up_nodes().size(), 2U);
  EXPECT_EQ(
      fleet.router().meter().counter("ei_fleet_failovers_total").value(), 0.0);
  EXPECT_EQ(
      fleet.router().meter().counter("ei_fleet_node_down_total").value(), 0.0);
  EXPECT_EQ(fleet.router().resilience()->failovers.load(), 0U);
}

TEST(FailoverTest, NeedsAtLeastOneReplica) {
  EXPECT_THROW(Router(std::vector<NodeEndpoint>{}), InvalidArgument);
}

// Acceptance scenario: the preferred replica is down for a window, the
// backup serves every request, and once the preferred replica is back the
// router fails back to it within two probe intervals of routed traffic.
// The whole story is visible in the fleet status' resilience counters.
TEST(FailbackTest, ReturnsToPreferredReplicaAfterRecovery) {
  FleetOptions options = small_fleet(2, 2);
  options.router.probe_every = 2;
  Fleet fleet(options);
  fleet.deploy("safety", "detection", make_constant_model("det", 2), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  ASSERT_EQ(owners.size(), 2U);
  const std::string& preferred = owners[0];
  auto served_by_preferred = [&] {
    return fleet.router()
        .meter()
        .counter("ei_fleet_forwards_total",
                 {{"node", preferred}, {"outcome", "ok"}})
        .value();
  };

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  net::HttpResponse first = fleet.router().route("GET", target);
  ASSERT_EQ(first.status, 200);
  EXPECT_EQ(served_by_preferred(), 1.0);

  // The preferred replica goes down for a window: the backup serves.
  fleet.kill(fleet.index_of(preferred));
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(fleet.router().route("GET", target).status, 200) << i;
  }
  EXPECT_FALSE(fleet.router().node_up(preferred));
  EXPECT_EQ(served_by_preferred(), 1.0);
  EXPECT_EQ(fleet.router().resilience()->failovers.load(), 1U);
  EXPECT_EQ(fleet.router().resilience()->failbacks.load(), 0U);

  // It recovers on the same port; routed traffic alone probes it back.
  fleet.revive(fleet.index_of(preferred));
  std::size_t requests_until_failback = 0;
  while (!fleet.router().node_up(preferred)) {
    ASSERT_LT(requests_until_failback, 2 * options.router.probe_every)
        << "failback did not happen within two probe intervals";
    EXPECT_EQ(fleet.router().route("GET", target).status, 200);
    ++requests_until_failback;
  }
  EXPECT_EQ(fleet.router().resilience()->failbacks.load(), 1U);
  EXPECT_EQ(fleet.router().owners_of("safety/detection"), owners);

  // The next request goes to the preferred replica again, with the same
  // answer as before the outage.
  double before_failback = served_by_preferred();
  net::HttpResponse after = fleet.router().route("GET", target);
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(served_by_preferred(), before_failback + 1.0);
  EXPECT_EQ(predictions_of(after), predictions_of(first));

  Json resilience = fleet.router().fleet_status().at("resilience");
  EXPECT_EQ(resilience.at("failovers").as_number(), 1.0);
  EXPECT_EQ(resilience.at("failbacks").as_number(), 1.0);
  EXPECT_GE(resilience.at("transport_errors").as_number(), 1.0);
  EXPECT_GE(resilience.at("attempts").as_number(), 8.0);
}

TEST(FailbackTest, KeepsLegacyFailoverSemantics) {
  // The contract callers relied on before the router replaced the
  // standalone failover client: application errors do not fail over, an
  // empty replica set is rejected, and every replica dead is reported to
  // the caller.  The one deliberate change: all-dead is a 503 answer now,
  // not a thrown IoError.
  Fleet fleet(small_fleet(2, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 0), 0.9);

  EXPECT_EQ(
      fleet.router().route("GET", "/ei_algorithms/ghost/none?input=[1]").status,
      404);
  EXPECT_EQ(fleet.router().resilience()->failovers.load(), 0U);

  fleet.kill(0);
  fleet.kill(1);
  net::HttpResponse dead;
  ASSERT_NO_THROW(dead = fleet.router().route("GET", "/ei_status"));
  EXPECT_EQ(dead.status, 503);
  EXPECT_THROW(Router(std::vector<NodeEndpoint>{}), InvalidArgument);
}

// --- Observability surfaces ------------------------------------------------

TEST(FleetTest, FrontDoorServesFleetStatusAndMetrics) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::uint16_t port = fleet.router().start_server();
  net::HttpClient client(port);

  // Inference through the front door: a plain HTTP caller needs no
  // knowledge of the fleet behind the router.
  net::HttpResponse response =
      client.get(std::string("/ei_algorithms/safety/detection") + kInput);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(predictions_of(response), (std::vector<std::size_t>{1, 1}));

  net::HttpResponse status = client.get("/ei_fleet");
  ASSERT_EQ(status.status, 200);
  Json doc = Json::parse(status.body);
  EXPECT_EQ(doc.at("replication").as_int(), 2);
  EXPECT_EQ(doc.at("up_nodes").as_int(), 4);
  EXPECT_EQ(doc.at("total_nodes").as_int(), 4);
  double total_share = 0.0;
  for (const Json& node : doc.at("nodes").as_array()) {
    EXPECT_TRUE(node.at("up").as_bool());
    EXPECT_EQ(node.at("breaker").at("state").as_string(), "closed");
    total_share += node.at("ring_fraction").as_number();
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);
  ASSERT_EQ(doc.at("placements").as_array().size(), 1U);
  const Json& placement = doc.at("placements").as_array()[0];
  EXPECT_EQ(placement.at("model").as_string(), "det");
  EXPECT_EQ(placement.at("key").as_string(), "safety/detection");
  EXPECT_EQ(placement.at("owners").as_array().size(), 2U);
  EXPECT_TRUE(doc.at("resilience").contains("breakers"));

  net::HttpResponse metrics = client.get("/ei_metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("ei_fleet_requests_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("ei_fleet_forwards_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("ei_fleet_up_nodes 4"), std::string::npos);
  EXPECT_NE(metrics.body.find("ei_fleet_route_latency_seconds_bucket"),
            std::string::npos);
}

TEST(FleetTest, FleetStatusReportsDownNodeAndOpenBreaker) {
  Fleet fleet(small_fleet(3, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 0), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  fleet.kill(fleet.index_of(owners[0]));
  ASSERT_EQ(fleet.router()
                .route("GET",
                       std::string("/ei_algorithms/safety/detection") + kInput)
                .status,
            200);

  Json doc = fleet.router().fleet_status();
  EXPECT_EQ(doc.at("up_nodes").as_int(), 2);
  bool saw_down = false;
  for (const Json& node : doc.at("nodes").as_array()) {
    if (node.at("id").as_string() != owners[0]) continue;
    saw_down = true;
    EXPECT_FALSE(node.at("up").as_bool());
    EXPECT_EQ(node.at("ring_fraction").as_number(), 0.0);
    // The dead node's endpoint accumulated transport failures; once they
    // cross the breaker threshold its state leaves "closed" and the
    // transition is timestamped.
    EXPECT_GE(node.at("breaker").at("consecutive_failures").as_number(), 1.0);
  }
  EXPECT_TRUE(saw_down);
}

// --- Model management through the router ----------------------------------

TEST(FleetTest, FrontDoorDeployAndUndeployManageTheOwnerSet) {
  Fleet fleet(small_fleet(4, 2));
  std::uint16_t port = fleet.router().start_server();
  net::HttpClient client(port);

  std::string body = nn::model_to_json(make_constant_model("det", 1)).dump();
  net::HttpResponse deployed = client.post(
      "/ei_models?scenario=safety&algorithm=detection&accuracy=0.9", body);
  ASSERT_EQ(deployed.status, 201);
  EXPECT_EQ(Json::parse(deployed.body).at("replicas").as_int(), 2);

  // Addressed model reads route to the placement, not the raw path hash.
  EXPECT_EQ(client.get("/ei_models/det").status, 200);

  net::HttpResponse missing_key = client.post("/ei_models", body);
  EXPECT_EQ(missing_key.status, 400);

  net::HttpResponse undeployed = client.del("/ei_models/det");
  ASSERT_LT(undeployed.status, 300);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    net::HttpClient direct(fleet.port(i));
    EXPECT_EQ(direct.get("/ei_models/det").status, 404) << fleet.node_id(i);
  }
  EXPECT_EQ(client.del("/ei_models/det").status, 404);  // no longer tracked
}

TEST(FleetTest, FrontDoorHotSwapReachesEveryOwner) {
  Fleet fleet(small_fleet(4, 2));
  std::uint16_t port = fleet.router().start_server();
  net::HttpClient client(port);
  const std::string target =
      "/ei_models?scenario=safety&algorithm=detection&accuracy=0.9";

  std::string original = nn::model_to_json(make_constant_model("det", 1)).dump();
  ASSERT_EQ(client.post(target, original).status, 201);
  // New weights under the same name: every owner must swap, not only the
  // router's tracked copy.
  Json swapped = nn::model_to_json(make_constant_model("det", 2));
  net::HttpResponse deployed = client.post(target, swapped.dump());
  ASSERT_EQ(deployed.status, 201);
  EXPECT_EQ(Json::parse(deployed.body).at("deployed").as_string(), "det");
  EXPECT_EQ(Json::parse(deployed.body).at("replicas").as_int(), 2);

  std::vector<std::string> owners = fleet.router().owners_of("safety/detection");
  ASSERT_EQ(owners.size(), 2U);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (std::find(owners.begin(), owners.end(), fleet.node_id(i)) == owners.end()) {
      continue;
    }
    net::HttpClient direct(fleet.port(i));
    net::HttpResponse model = direct.get("/ei_models/det");
    ASSERT_EQ(model.status, 200) << fleet.node_id(i);
    EXPECT_EQ(Json::parse(model.body).at("model"), swapped) << fleet.node_id(i);
    net::HttpResponse answer =
        direct.get(std::string("/ei_algorithms/safety/detection") + kInput);
    ASSERT_EQ(answer.status, 200) << fleet.node_id(i);
    EXPECT_EQ(predictions_of(answer), (std::vector<std::size_t>{2, 2}))
        << fleet.node_id(i);
  }
  net::HttpResponse routed =
      client.get(std::string("/ei_algorithms/safety/detection") + kInput);
  ASSERT_EQ(routed.status, 200);
  EXPECT_EQ(predictions_of(routed), (std::vector<std::size_t>{2, 2}));
}

// --- Concurrency ----------------------------------------------------------

TEST(FleetTest, ServesEveryRequestThroughAKillReviveCycleUnderLoad) {
  FleetOptions options = small_fleet(4, 2);
  options.router.probe_every = 4;
  Fleet fleet(options);
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  std::size_t victim = fleet.index_of(owners[0]);

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> served{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 40 && !stop.load(); ++i) {
        net::HttpResponse response = fleet.router().route(
            "GET", target + "&session=w" + std::to_string(t));
        if (response.status == 200) {
          ++served;
        } else {
          ++failed;
        }
      }
    });
  }
  // One full outage + recovery while the workers hammer the fleet.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  fleet.kill(victim);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  fleet.revive(victim);
  for (std::thread& worker : workers) worker.join();

  // Replication 2 means the kill costs failover hops, never failures.
  EXPECT_EQ(failed.load(), 0U);
  EXPECT_GE(served.load(), 160U);
  // Drive the probe path to convergence: the fleet ends whole.
  for (int i = 0; i < 8; ++i) fleet.router().route("GET", target);
  fleet.router().probe_down_nodes();
  EXPECT_EQ(fleet.router().up_nodes().size(), 4U);
}

}  // namespace
}  // namespace openei::fleet
