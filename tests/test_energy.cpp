// Energy-conformance suite (label `energy`): the hwsim power-state ladder,
// the cumulative joule ledger's conservation laws, the frequency governor's
// state machine, the energy-governed scheduler's determinism, and the
// service-level surface (degrade/503, /ei_status energy block, metrics).
//
// Everything runs on injected clocks, so every expectation is exact — the
// same discipline as the FrameQueue/StreamProperty suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "hwsim/power.h"
#include "nn/zoo.h"
#include "runtime/energy_governor.h"
#include "selector/capability_db.h"
#include "selector/energy_schedule.h"

namespace openei {
namespace {

using common::Json;
using hwsim::EnergyLedger;
using hwsim::PowerState;
using runtime::EnergyGovernor;

hwsim::DeviceProfile test_device() { return hwsim::raspberry_pi_4(); }

// ---------------------------------------------------------------------------
// Ledger conservation laws.
// ---------------------------------------------------------------------------

TEST(EnergyLedgerTest, AccruesIdlePowerOverTime) {
  std::int64_t now_ns = 0;
  EnergyLedger ledger(test_device(), [&now_ns] { return now_ns; });
  now_ns = 2'000'000'000;  // 2 s
  EnergyLedger::Snapshot snap = ledger.snapshot();
  EXPECT_DOUBLE_EQ(snap.state_j[0], test_device().idle_power_w * 2.0);
  EXPECT_DOUBLE_EQ(snap.total_j, snap.state_j[0]);
  EXPECT_DOUBLE_EQ(snap.state_seconds[0], 2.0);
  EXPECT_EQ(snap.state, PowerState::kIdle);
}

TEST(EnergyLedgerTest, TotalIsAlwaysSumOfPerStateJoules) {
  hwsim::DeviceProfile device = test_device();
  std::int64_t now_ns = 0;
  EnergyLedger ledger(device, [&now_ns] { return now_ns; });
  now_ns += 1'000'000'000;
  ledger.set_state(PowerState::kActive);
  now_ns += 500'000'000;
  ledger.charge_busy(0.25);
  ledger.set_state(PowerState::kBoost);
  now_ns += 250'000'000;
  ledger.charge_busy(0.1);
  EnergyLedger::Snapshot snap = ledger.snapshot();
  EXPECT_DOUBLE_EQ(snap.total_j,
                   snap.state_j[0] + snap.state_j[1] + snap.state_j[2]);
  // Each state accrued something: idle time, active time + charge, boost
  // time + charge.
  EXPECT_GT(snap.state_j[0], 0.0);
  EXPECT_GT(snap.state_j[1], 0.0);
  EXPECT_GT(snap.state_j[2], 0.0);
  EXPECT_EQ(snap.charges, 2U);
}

TEST(EnergyLedgerTest, ChargeBusyFollowsTheCubeLawPerRung) {
  hwsim::DeviceProfile device = test_device();
  std::int64_t now_ns = 0;
  EnergyLedger ledger(device, [&now_ns] { return now_ns; });
  ledger.set_state(PowerState::kActive);
  double dynamic_w = device.active_power_w - device.idle_power_w;

  // Nominal rung (f = 1): joules = (active - idle) * t.
  EXPECT_DOUBLE_EQ(ledger.charge_busy(0.1), dynamic_w * 0.1);

  // Half clock: dynamic power scales f^3, time stretches 1/f, so energy per
  // unit of nominal busy time scales f^2 — slower is cheaper.
  ledger.set_freq_level(0);
  double f = device.freq_levels[0];
  EXPECT_DOUBLE_EQ(ledger.charge_busy(0.1), dynamic_w * f * f * 0.1);

  // Boost rung: more joules per op than nominal (f > 1).
  ledger.set_freq_level(device.freq_levels.size() - 1);
  ledger.set_state(PowerState::kBoost);
  double boost_joules = ledger.charge_busy(0.1);
  EXPECT_GT(boost_joules, dynamic_w * 0.1);
  double s = device.boost_freq_scale;
  EXPECT_DOUBLE_EQ(boost_joules,
                   (device.boost_power() - device.idle_power_w) * 0.1 / s);
}

TEST(EnergyLedgerTest, MonotoneEvenWhenTheClockStepsBackward) {
  std::int64_t now_ns = 0;
  EnergyLedger ledger(test_device(), [&now_ns] { return now_ns; });
  now_ns = 1'000'000'000;
  double before = ledger.snapshot().total_j;
  now_ns = 500'000'000;  // non-monotone injected clock
  EnergyLedger::Snapshot snap = ledger.snapshot();
  EXPECT_GE(snap.total_j, before);
  now_ns = 3'000'000'000;
  EXPECT_GE(ledger.snapshot().total_j, snap.total_j);
}

TEST(EnergyLedgerTest, IdleFloorHoldsAcrossAnySchedule) {
  hwsim::DeviceProfile device = test_device();
  std::int64_t now_ns = 0;
  EnergyLedger ledger(device, [&now_ns] { return now_ns; });
  now_ns += 700'000'000;
  ledger.set_state(PowerState::kActive);
  ledger.set_freq_level(0);  // cheapest rung
  now_ns += 1'300'000'000;
  ledger.set_state(PowerState::kIdle);
  now_ns += 500'000'000;
  EnergyLedger::Snapshot snap = ledger.snapshot();
  // No state draws less than idle, so the ledger can never undercut the
  // idle-power floor for the elapsed time.
  EXPECT_GE(snap.total_j, device.idle_power_w * snap.elapsed_seconds - 1e-9);
  EXPECT_DOUBLE_EQ(snap.elapsed_seconds, 2.5);
}

// ---------------------------------------------------------------------------
// State-machine legality.
// ---------------------------------------------------------------------------

TEST(EnergyLedgerTest, StateLadderRejectsSkips) {
  EnergyLedger ledger(test_device());
  EXPECT_THROW(ledger.set_state(PowerState::kBoost), InvalidArgument);
  ledger.set_state(PowerState::kActive);
  ledger.set_state(PowerState::kBoost);
  EXPECT_THROW(ledger.set_state(PowerState::kIdle), InvalidArgument);
  ledger.set_state(PowerState::kActive);
  ledger.set_state(PowerState::kIdle);
  EXPECT_EQ(ledger.snapshot().transitions, 4U);
}

TEST(EnergyLedgerTest, SameStateSetIsANoOp) {
  EnergyLedger ledger(test_device());
  ledger.set_state(PowerState::kIdle);
  EXPECT_EQ(ledger.snapshot().transitions, 0U);
}

TEST(EnergyLedgerTest, ChargingWhileIdleIsIllegal) {
  EnergyLedger ledger(test_device());
  EXPECT_THROW(ledger.charge_busy(0.1), InvalidArgument);
}

TEST(EnergyGovernorTest, ZeroLoadNeverReachesBoost) {
  EnergyGovernor governor(test_device());
  governor.on_queue_depth(0);  // zero load: no transition at all
  EXPECT_EQ(governor.snapshot().ledger.state, PowerState::kIdle);
  governor.on_queue_depth(1);  // wake to active, never straight to boost
  EXPECT_EQ(governor.snapshot().ledger.state, PowerState::kActive);
}

TEST(EnergyGovernorTest, BacklogClimbsToBoostAndDrainReturnsToIdle) {
  EnergyGovernor::Options options;
  options.boost_queue_depth = 8;
  EnergyGovernor governor(test_device(), options);
  governor.on_queue_depth(4);
  EXPECT_EQ(governor.snapshot().ledger.state, PowerState::kActive);
  governor.on_queue_depth(4);  // below the boost threshold: stays active
  EXPECT_EQ(governor.snapshot().ledger.state, PowerState::kActive);
  governor.on_queue_depth(9);
  EXPECT_EQ(governor.snapshot().ledger.state, PowerState::kBoost);
  EXPECT_EQ(governor.snapshot().boost_entries, 1U);
  governor.on_drained();
  EXPECT_EQ(governor.snapshot().ledger.state, PowerState::kActive);
  governor.on_drained();
  EXPECT_EQ(governor.snapshot().ledger.state, PowerState::kIdle);
  governor.on_drained();  // already at the bottom: no-op
  EXPECT_EQ(governor.snapshot().ledger.state, PowerState::kIdle);
}

TEST(EnergyGovernorTest, ChargeWakesAnIdleDevice) {
  EnergyGovernor governor(test_device());
  double joules = governor.charge(0.1);
  EXPECT_GT(joules, 0.0);
  EnergyGovernor::Snapshot snap = governor.snapshot();
  EXPECT_EQ(snap.ledger.state, PowerState::kActive);
  EXPECT_DOUBLE_EQ(snap.ledger.busy_j, joules);
}

// ---------------------------------------------------------------------------
// Rolling-watts admission.
// ---------------------------------------------------------------------------

TEST(EnergyGovernorTest, NoCapMeansEveryRequestAdmits) {
  EnergyGovernor governor(test_device());
  governor.charge(100.0);  // enormous draw, but no envelope configured
  EXPECT_EQ(governor.admit(), EnergyGovernor::Admission::kOk);
  EXPECT_EQ(governor.snapshot().degrades, 0U);
}

TEST(EnergyGovernorTest, RollingWattsDriveDegradeThenRejectThenRecover) {
  hwsim::DeviceProfile device = test_device();  // idle 2.7 W, active 6.4 W
  std::int64_t now_ns = 0;
  EnergyGovernor::Options options;
  options.power_cap_w = 7.0;
  options.reject_factor = 1.2;  // reject past 8.4 W
  options.rolling_window_s = 1.0;
  options.now = [&now_ns] { return now_ns; };
  EnergyGovernor governor(device, options);

  // Idle baseline (2.7 W) sits inside the envelope.
  EXPECT_EQ(governor.admit(), EnergyGovernor::Admission::kOk);

  // 0.2 s of busy compute: baseline jumps to active (6.4 W) and the window
  // holds 0.74 J -> 7.14 W: above the cap, below the reject line.
  governor.charge(0.2);
  EXPECT_NEAR(governor.rolling_watts(), 7.14, 1e-9);
  EXPECT_EQ(governor.admit(), EnergyGovernor::Admission::kDegrade);

  // Another 0.4 s: 2.22 J in the window -> 8.62 W: past the reject line.
  governor.charge(0.4);
  EXPECT_EQ(governor.admit(), EnergyGovernor::Admission::kReject);

  // The window slides: two seconds later the busy joules have pruned out
  // and only the active baseline (6.4 W) remains -> admitted again.
  now_ns += 2'000'000'000;
  EXPECT_EQ(governor.admit(), EnergyGovernor::Admission::kOk);
  EnergyGovernor::Snapshot snap = governor.snapshot();
  EXPECT_EQ(snap.degrades, 1U);
  EXPECT_EQ(snap.rejects, 1U);
}

// ---------------------------------------------------------------------------
// Energy-governed scheduling: determinism under a seeded load trace.
// ---------------------------------------------------------------------------

selector::CapabilityDatabase schedule_db(const hwsim::DeviceProfile& device) {
  selector::CapabilityDatabase db;
  selector::CapabilityEntry heavy;
  heavy.model_name = "detector-xl";
  heavy.package_name = "openei";
  heavy.device_name = device.name;
  heavy.alem = {0.95, 0.020,
                (device.active_power_w - device.idle_power_w) * 0.020,
                8UL << 20};
  db.add(heavy);
  selector::CapabilityEntry light;
  light.model_name = "detector-lite";
  light.package_name = "openei";
  light.device_name = device.name;
  light.alem = {0.80, 0.004,
                (device.active_power_w - device.idle_power_w) * 0.004,
                1UL << 20};
  db.add(light);
  return db;
}

std::vector<selector::EnergyScheduleChoice> plan_trace(std::uint64_t seed) {
  hwsim::DeviceProfile device = test_device();
  selector::CapabilityDatabase db = schedule_db(device);
  common::Rng rng(seed);
  double arrival_hz = 20.0;
  std::vector<selector::EnergyScheduleChoice> choices;
  for (int epoch = 0; epoch < 60; ++epoch) {
    // Drifting load: multiplicative random walk, clamped to a sane band.
    arrival_hz *= rng.uniform(0.7, 1.4);
    arrival_hz = std::min(std::max(arrival_hz, 1.0), 400.0);
    selector::EnergyScheduleRequest request;
    request.arrival_rate_hz = arrival_hz;
    request.requirements.min_accuracy = 0.75;
    request.requirements.max_latency_s = 0.25;
    choices.push_back(selector::plan_energy_schedule(db, device, request));
  }
  return choices;
}

TEST(EnergyScheduleTest, SeededLoadTraceProducesIdenticalChoices) {
  for (std::uint64_t seed : {7ULL, 42ULL, 2026ULL}) {
    auto first = plan_trace(seed);
    auto second = plan_trace(seed);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].model_name, second[i].model_name) << "epoch " << i;
      EXPECT_EQ(first[i].batch_rows, second[i].batch_rows) << "epoch " << i;
      EXPECT_EQ(first[i].freq_level, second[i].freq_level) << "epoch " << i;
      EXPECT_EQ(first[i].boost, second[i].boost) << "epoch " << i;
      EXPECT_DOUBLE_EQ(first[i].predicted_energy_per_req_j,
                       second[i].predicted_energy_per_req_j)
          << "epoch " << i;
    }
  }
}

TEST(EnergyScheduleTest, FeasibleChoicesMeetEveryConstraint) {
  for (const auto& choice : plan_trace(99)) {
    if (!choice.feasible) continue;
    EXPECT_LE(choice.predicted_latency_s, 0.25);
    EXPECT_GT(choice.capacity_hz, 0.0);
  }
}

TEST(EnergyScheduleTest, LowLoadPicksTheLowRungHighLoadClimbs) {
  hwsim::DeviceProfile device = test_device();
  selector::CapabilityDatabase db = schedule_db(device);

  selector::EnergyScheduleRequest lazy;
  lazy.arrival_rate_hz = 5.0;
  lazy.requirements.min_accuracy = 0.75;
  lazy.requirements.max_latency_s = 1.0;
  auto low = selector::plan_energy_schedule(db, device, lazy);
  ASSERT_TRUE(low.feasible);
  // Plenty of headroom: the cheapest plan sits on the lowest DVFS rung with
  // the low-energy variant (energy scales f^2).
  EXPECT_EQ(low.freq_level, 0U);
  EXPECT_FALSE(low.boost);
  EXPECT_EQ(low.model_name, "detector-lite");
  EXPECT_DOUBLE_EQ(
      low.predicted_energy_per_req_j,
      (device.active_power_w - device.idle_power_w) * 0.004 *
          device.freq_levels[0] * device.freq_levels[0]);

  selector::EnergyScheduleRequest rushed = lazy;
  // Beyond the lite model's nominal capacity (250 Hz at f=1): only boost
  // clears the load, at higher energy per request.
  rushed.arrival_rate_hz = 280.0;
  auto high = selector::plan_energy_schedule(db, device, rushed);
  ASSERT_TRUE(high.feasible);
  EXPECT_TRUE(high.boost);
  EXPECT_GT(high.predicted_energy_per_req_j, low.predicted_energy_per_req_j);
  EXPECT_GE(high.capacity_hz, 280.0);

  rushed.arrival_rate_hz = 400.0;  // beyond even boost: best-effort fallback
  auto hopeless = selector::plan_energy_schedule(db, device, rushed);
  EXPECT_FALSE(hopeless.feasible);
  EXPECT_TRUE(hopeless.boost);  // drains backlog as fast as possible
}

// ---------------------------------------------------------------------------
// Service surface: /ei_status energy block, degrade, 503, metrics.
// ---------------------------------------------------------------------------

std::unique_ptr<core::EdgeNode> make_energy_node(double power_cap_w,
                                                 double reject_factor) {
  core::EdgeNodeConfig config{test_device(), hwsim::openei_package(), 64, {}};
  config.service.tracing.enabled = true;
  config.service.tracing.seed = 2026;
  // The batcher's flush thread charges the ledger and reports the drained
  // queue before it completes the request's future, so the ledger
  // expectations below are exact, not racy against that thread.
  config.service.energy.power_cap_w = power_cap_w;
  config.service.energy.reject_factor = reject_factor;
  auto node = std::make_unique<core::EdgeNode>(std::move(config));
  common::Rng rng(99);
  node->deploy_model("safety", "detection",
                     nn::zoo::make_mlp("detector", 8, 3, {16}, rng), 0.9);
  node->deploy_model("safety", "detection",
                     nn::zoo::make_mlp("detector-lite", 8, 3, {4}, rng), 0.7);
  return node;
}

TEST(EnergyServiceTest, StatusExposesTheLedgerAndGovernor) {
  auto node = make_energy_node(0.0, 1.5);
  auto ok = node->call("GET",
                       "/ei_algorithms/safety/detection?input=[[1,2,3,4,5,6,"
                       "7,8]]");
  ASSERT_EQ(ok.status, 200);
  Json body = Json::parse(ok.body);
  EXPECT_GT(body.at("ledger_energy_j").as_number(), 0.0);
  EXPECT_EQ(body.find("energy_degraded"), nullptr);

  Json status = Json::parse(node->call("GET", "/ei_status").body);
  const Json& energy = status.at("energy");
  EXPECT_GE(energy.at("total_joules").as_number(), 0.0);
  EXPECT_GT(energy.at("busy_joules").as_number(), 0.0);
  EXPECT_GE(energy.at("charges").as_number(), 1.0);
  EXPECT_GE(energy.at("transitions").as_number(), 2.0);
  EXPECT_EQ(energy.at("power_cap_w").as_number(), 0.0);
  EXPECT_EQ(energy.at("degrades").as_number(), 0.0);
  EXPECT_EQ(energy.at("rejects").as_number(), 0.0);
  // Conservation in the exported block too.
  const Json& states = energy.at("states");
  double sum = states.at("idle").at("joules").as_number() +
               states.at("active").at("joules").as_number() +
               states.at("boost").at("joules").as_number();
  EXPECT_NEAR(energy.at("total_joules").as_number(), sum, 1e-9);
}

TEST(EnergyServiceTest, OverCapDegradesToTheMinEnergyVariant) {
  // Cap below the idle draw: every request is over budget, but the wide
  // reject factor keeps them serviceable — each one must fall back to the
  // cheapest variant and say so.
  auto node = make_energy_node(0.5, 100.0);
  auto degraded = node->call(
      "GET", "/ei_algorithms/safety/detection?input=[[1,2,3,4,5,6,7,8]]");
  ASSERT_EQ(degraded.status, 200);
  Json body = Json::parse(degraded.body);
  EXPECT_EQ(body.at("model").as_string(), "detector-lite");
  EXPECT_TRUE(body.at("energy_degraded").as_bool());

  Json status = Json::parse(node->call("GET", "/ei_status").body);
  EXPECT_GE(status.at("energy").at("degrades").as_number(), 1.0);
}

TEST(EnergyServiceTest, FarOverCapAnswers503EnergyBudget) {
  auto node = make_energy_node(0.5, 1.01);  // reject line at 0.505 W
  auto rejected = node->call(
      "GET", "/ei_algorithms/safety/detection?input=[[1,2,3,4,5,6,7,8]]");
  ASSERT_EQ(rejected.status, 503);
  Json body = Json::parse(rejected.body);
  EXPECT_EQ(body.at("error").as_string(), "energy_budget");
  EXPECT_GT(body.at("rolling_watts").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(body.at("power_cap_w").as_number(), 0.5);

  Json status = Json::parse(node->call("GET", "/ei_status").body);
  EXPECT_GE(status.at("energy").at("rejects").as_number(), 1.0);
}

TEST(EnergyServiceTest, MetricsExposeLedgerGauges) {
  auto node = make_energy_node(0.0, 1.5);
  node->call("GET", "/ei_algorithms/safety/detection?input=[[1,2,3,4,5,6,7,8]]");
  auto metrics = node->call("GET", "/ei_metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("ei_energy_joules_total{state=\"idle\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ei_energy_joules_total{state=\"active\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ei_energy_joules_total{state=\"boost\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ei_power_watts"), std::string::npos);
  EXPECT_NE(metrics.body.find("ei_freq_level"), std::string::npos);
}

TEST(EnergyServiceTest, StreamedFramesChargeTheSameLedger) {
  auto node = make_energy_node(0.0, 1.5);
  auto opened = node->call(
      "POST", "/ei_stream?scenario=safety&algorithm=detection&policy=block");
  ASSERT_EQ(opened.status, 201);
  std::string id = Json::parse(opened.body).at("stream").as_string();
  auto submitted = node->call("POST", "/ei_stream/" + id + "/frames",
                              "[[1,2,3,4,5,6,7,8]]");
  ASSERT_EQ(submitted.status, 200);
  node->call("DELETE", "/ei_stream/" + id);  // drains the worker

  Json status = Json::parse(node->call("GET", "/ei_status").body);
  const Json& energy = status.at("energy");
  EXPECT_GE(energy.at("charges").as_number(), 1.0);
  EXPECT_GT(energy.at("busy_joules").as_number(), 0.0);
}

}  // namespace
}  // namespace openei
