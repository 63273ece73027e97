// Cross-module property tests: randomized invariants checked over
// parameterized seeds — the behaviours that must hold for *any* input, not
// just the curated cases in the per-module suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "stream/frame_queue.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "data/synthetic.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "hwsim/power.h"
#include "net/request_parser.h"
#include "runtime/energy_governor.h"
#include "nn/serialize.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "runtime/model_registry.h"
#include "runtime/session_cache.h"
#include "runtime/realtime.h"
#include "selector/capability_db.h"
#include "selector/rl_selector.h"
#include "selector/selecting_algorithm.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"

namespace openei {
namespace {

using common::Rng;

// ---------------------------------------------------------------------------
// Scheduler invariants under random task sets.
// ---------------------------------------------------------------------------

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<runtime::MlTask> random_tasks(Rng& rng, std::size_t count) {
  std::vector<runtime::MlTask> tasks;
  for (std::size_t i = 0; i < count; ++i) {
    tasks.push_back({"t" + std::to_string(i), rng.uniform(0.0, 5.0),
                     rng.uniform(0.01, 0.5),
                     rng.flip(0.25) ? runtime::TaskPriority::kUrgent
                                    : runtime::TaskPriority::kBestEffort});
  }
  return tasks;
}

TEST_P(SchedulerProperty, WorkConservationAndCompleteness) {
  Rng rng(GetParam());
  auto tasks = random_tasks(rng, 30);
  double total_work = 0.0;
  double latest_arrival = 0.0;
  for (const auto& task : tasks) {
    total_work += task.duration_s;
    latest_arrival = std::max(latest_arrival, task.arrival_s);
  }

  for (auto policy : {runtime::SchedulingPolicy::kFifo,
                      runtime::SchedulingPolicy::kPriorityPreemptive}) {
    auto done = runtime::simulate_schedule(tasks, policy);
    // Completeness: every task finishes exactly once.
    ASSERT_EQ(done.size(), tasks.size());
    // No task finishes before its arrival + duration.
    for (const auto& completed : done) {
      EXPECT_GE(completed.finish_s + 1e-9,
                completed.task.arrival_s + completed.task.duration_s);
      EXPECT_GE(completed.start_s + 1e-9, completed.task.arrival_s);
    }
    // Work conservation: the single worker cannot finish earlier than
    // total work, nor later than latest arrival + total work.
    double makespan = done.back().finish_s;
    EXPECT_GE(makespan + 1e-9, total_work);
    EXPECT_LE(makespan, latest_arrival + total_work + 1e-9);
  }
}

TEST_P(SchedulerProperty, PreemptionNeverHurtsUrgentTasks) {
  Rng rng(GetParam() + 1000);
  auto tasks = random_tasks(rng, 25);
  // Make sure both classes exist.
  tasks.push_back({"u", 0.5, 0.1, runtime::TaskPriority::kUrgent});
  tasks.push_back({"b", 0.5, 0.1, runtime::TaskPriority::kBestEffort});

  auto fifo = runtime::simulate_schedule(tasks, runtime::SchedulingPolicy::kFifo);
  auto preemptive = runtime::simulate_schedule(
      tasks, runtime::SchedulingPolicy::kPriorityPreemptive);
  double fifo_mean = runtime::response_percentile(
      fifo, 50, runtime::TaskPriority::kUrgent);
  double rt_mean = runtime::response_percentile(
      preemptive, 50, runtime::TaskPriority::kUrgent);
  EXPECT_LE(rt_mean, fifo_mean + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Selector invariants.
// ---------------------------------------------------------------------------

selector::CapabilityDatabase random_db(Rng& rng, std::size_t entries) {
  selector::CapabilityDatabase db;
  const char* devices[] = {"dev-a", "dev-b"};
  for (std::size_t i = 0; i < entries; ++i) {
    selector::CapabilityEntry entry;
    entry.model_name = "m" + std::to_string(i);
    entry.package_name = "p" + std::to_string(i % 3);
    entry.device_name = devices[i % 2];
    entry.alem.accuracy = rng.uniform(0.3, 1.0);
    entry.alem.latency_s = rng.uniform(1e-5, 1e-1);
    entry.alem.energy_j = rng.uniform(1e-6, 1e-2);
    entry.alem.memory_bytes = static_cast<std::size_t>(rng.uniform_int(1000, 1000000));
    entry.deployable = rng.flip(0.85);
    db.add(std::move(entry));
  }
  return db;
}

class SelectorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectorProperty, SelectEqualsRankFront) {
  Rng rng(GetParam());
  auto db = random_db(rng, 40);
  for (auto objective :
       {selector::Objective::kMinLatency, selector::Objective::kMaxAccuracy,
        selector::Objective::kMinEnergy, selector::Objective::kMinMemory}) {
    selector::SelectionRequest request;
    request.objective = objective;
    request.device_name = "dev-a";
    request.requirements.min_accuracy = rng.uniform(0.0, 0.9);
    request.requirements.max_energy_j = rng.uniform(1e-4, 1e-2);

    auto picked = selector::select(db, request);
    auto ranked = selector::rank(db, request);
    if (ranked.empty()) {
      EXPECT_FALSE(picked.has_value());
    } else {
      ASSERT_TRUE(picked.has_value());
      // The pick is exactly as good as the rank front on the objective.
      EXPECT_FALSE(selector::better(ranked.front().alem, picked->alem, objective));
      EXPECT_FALSE(selector::better(picked->alem, ranked.front().alem, objective));
    }
  }
}

TEST_P(SelectorProperty, FrontierMembersAreMutuallyNonDominating) {
  Rng rng(GetParam() + 77);
  auto db = random_db(rng, 30);
  auto frontier = selector::pareto_frontier(db, "");
  for (const auto& a : frontier) {
    for (const auto& b : frontier) {
      if (&a == &b) continue;
      EXPECT_FALSE(selector::dominates(a.alem, b.alem));
    }
  }
}

TEST_P(SelectorProperty, DatabaseJsonRoundTrip) {
  Rng rng(GetParam() + 1234);
  auto db = random_db(rng, 20);
  auto rebuilt = selector::CapabilityDatabase::from_json(
      common::Json::parse(db.to_json().dump()));
  ASSERT_EQ(rebuilt.entries().size(), db.entries().size());
  for (std::size_t i = 0; i < db.entries().size(); ++i) {
    const auto& a = db.entries()[i];
    const auto& b = rebuilt.entries()[i];
    EXPECT_EQ(a.model_name, b.model_name);
    EXPECT_EQ(a.package_name, b.package_name);
    EXPECT_EQ(a.device_name, b.device_name);
    EXPECT_EQ(a.deployable, b.deployable);
    EXPECT_DOUBLE_EQ(a.alem.accuracy, b.alem.accuracy);
    EXPECT_DOUBLE_EQ(a.alem.latency_s, b.alem.latency_s);
    EXPECT_DOUBLE_EQ(a.alem.energy_j, b.alem.energy_j);
    EXPECT_EQ(a.alem.memory_bytes, b.alem.memory_bytes);
  }
  // Semantics preserved: same selection results.
  selector::SelectionRequest request;
  request.device_name = "dev-a";
  auto original = selector::select(db, request);
  auto from_copy = selector::select(rebuilt, request);
  ASSERT_EQ(original.has_value(), from_copy.has_value());
  if (original) {
    EXPECT_EQ(original->model_name, from_copy->model_name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Model registry under concurrent access.
// ---------------------------------------------------------------------------

TEST(RegistryConcurrency, ParallelPutGetFindNeverCorrupts) {
  runtime::ModelRegistry registry;
  Rng seed_rng(99);
  std::atomic<bool> failed{false};

  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&registry, &failed, w] {
      Rng rng(static_cast<std::uint64_t>(w) + 1);
      try {
        for (int i = 0; i < 50; ++i) {
          std::string name = "model_" + std::to_string(w) + "_" +
                             std::to_string(i % 5);
          registry.put({"scenario", "algo",
                        nn::zoo::make_mlp(name, 4, 2, {4}, rng), 0.5});
          auto entry = registry.get(name);
          if (entry->scenario != "scenario") failed = true;
          registry.find("scenario", "algo");
          registry.names();
          if (i % 7 == 0) registry.erase(name);
        }
      } catch (const openei::NotFound&) {
        // A concurrent erase raced a get — acceptable; corruption is not.
      } catch (...) {
        failed = true;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_FALSE(failed.load());
  // Registry still consistent: every listed name is fetchable.
  for (const auto& name : registry.names()) {
    EXPECT_NO_THROW(registry.get(name));
  }
}

// ---------------------------------------------------------------------------
// Session-cache LRU invariants under random operation sequences.
// ---------------------------------------------------------------------------

class LifecycleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LifecycleProperty, LruInvariantsHoldUnderRandomOps) {
  Rng rng(GetParam());
  hwsim::DeviceProfile device = hwsim::raspberry_pi_4();
  hwsim::PackageSpec package = hwsim::openei_package();
  const std::vector<std::string> names{"m0", "m1", "m2", "m3"};

  runtime::ModelRegistry registry;
  for (const std::string& name : names) {
    registry.put({"s", "a", nn::zoo::make_mlp(name, 4, 2, {4}, rng), 0.5});
  }
  // Identical architectures -> identical session footprints; a budget of
  // 2.5 sessions means exactly two can be resident.
  std::size_t session_bytes =
      hwsim::estimate_inference(registry.get("m0")->model, package, device)
          .memory_bytes;
  constexpr std::size_t kCapacity = 2;
  runtime::SessionCache::Options options;
  options.budget_bytes = kCapacity * session_bytes + session_bytes / 2;
  runtime::SessionCache cache(registry, package, device, options);

  // Reference model: MRU-at-back list of (name, stale) mirroring the cache's
  // contract — hit moves to MRU, swap marks stale (retired on next acquire),
  // miss evicts from the cold end until the newcomer fits.
  std::vector<std::pair<std::string, bool>> mirror;
  std::uint64_t hits = 0, misses = 0, evictions = 0, invalidations = 0;
  auto in_mirror = [&](const std::string& name) {
    return std::find_if(mirror.begin(), mirror.end(), [&](const auto& slot) {
             return slot.first == name;
           });
  };

  for (int op = 0; op < 200; ++op) {
    const std::string& name =
        names[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    double dice = rng.uniform();
    if (dice < 0.15) {  // hot-swap: the resident session (if any) goes stale
      registry.put({"s", "a", nn::zoo::make_mlp(name, 4, 2, {4}, rng), 0.5});
      if (auto it = in_mirror(name); it != mirror.end()) it->second = true;
    } else if (dice < 0.18) {  // wholesale clear
      cache.clear();
      mirror.clear();
    } else {  // acquire
      auto it = in_mirror(name);
      if (it != mirror.end() && !it->second) {
        ++hits;
        std::pair<std::string, bool> slot = *it;
        mirror.erase(it);
        mirror.push_back(std::move(slot));  // hit -> MRU
      } else {
        if (it != mirror.end()) {  // stale resident retires first
          ++invalidations;
          mirror.erase(it);
        }
        ++misses;
        while (mirror.size() >= kCapacity) {  // evict coldest first
          ++evictions;
          mirror.erase(mirror.begin());
        }
        mirror.push_back({name, false});
      }
      runtime::SessionCache::Lease lease = cache.acquire(name);
      ASSERT_EQ(lease.entry.get(), registry.get(name).get());
    }

    runtime::SessionCache::Stats stats = cache.stats();
    // Invariant 1: resident bytes never exceed the budget.
    ASSERT_LE(stats.resident_bytes, stats.budget_bytes);
    ASSERT_EQ(stats.resident_bytes, stats.resident_sessions * session_bytes);
    // Invariant 2+3: residency set and eviction (recency) order match the
    // reference LRU exactly — the MRU is never evicted while colder
    // residents exist, and evictions happen strictly coldest-first.
    std::vector<std::string> expected;
    for (const auto& [slot_name, stale] : mirror) expected.push_back(slot_name);
    ASSERT_EQ(cache.resident_by_recency(), expected) << "op " << op;
    // Invariant 4: counters replay the reference history.
    ASSERT_EQ(stats.hits, hits);
    ASSERT_EQ(stats.misses, misses);
    ASSERT_EQ(stats.evictions, evictions);
    ASSERT_EQ(stats.invalidations, invalidations);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LifecycleProperty,
                         ::testing::Values(5, 17, 23, 61, 97));

// ---------------------------------------------------------------------------
// NN training/serialization properties over seeds.
// ---------------------------------------------------------------------------

class TrainingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrainingProperty, TrainingIsSeedDeterministic) {
  auto build_and_train = [&] {
    Rng rng(GetParam());
    auto dataset = data::make_blobs(120, 6, 2, rng);
    nn::Model model = nn::zoo::make_mlp("m", 6, 2, {8}, rng);
    nn::TrainOptions options;
    options.epochs = 5;
    options.shuffle_seed = GetParam();
    nn::fit(model, dataset, options);
    return nn::save_model(model);
  };
  EXPECT_EQ(build_and_train(), build_and_train());
}

TEST_P(TrainingProperty, SerializationPreservesEveryZooModelExactly) {
  Rng rng(GetParam());
  nn::zoo::ImageSpec spec;
  spec.channels = 2;
  spec.size = 8;
  spec.classes = 3;
  for (const auto& entry : nn::zoo::image_catalog()) {
    nn::Model model = entry.build(spec, rng);
    nn::Model reloaded = nn::load_model(nn::save_model(model));
    nn::Tensor probe =
        nn::Tensor::random_uniform(tensor::Shape{2, 2, 8, 8}, rng);
    EXPECT_TRUE(reloaded.forward(probe, false)
                    .all_close(model.forward(probe, false), 1e-4F))
        << entry.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainingProperty, ::testing::Values(3, 7, 42));

// ---------------------------------------------------------------------------
// Cost-model monotonicity over the fleet.
// ---------------------------------------------------------------------------

TEST(CostModelProperty, LatencyMonotoneInModelSizeAcrossFleet) {
  Rng rng(5);
  nn::Model small = nn::zoo::make_mlp("s", 16, 3, {8}, rng);
  nn::Model medium = nn::zoo::make_mlp("m", 16, 3, {64}, rng);
  nn::Model large = nn::zoo::make_mlp("l", 16, 3, {256, 128}, rng);
  for (const auto& device : hwsim::edge_fleet()) {
    for (const auto& package : hwsim::default_packages()) {
      double s = hwsim::estimate_inference(small, package, device).latency_s;
      double m = hwsim::estimate_inference(medium, package, device).latency_s;
      double l = hwsim::estimate_inference(large, package, device).latency_s;
      EXPECT_LE(s, m) << device.name << "/" << package.name;
      EXPECT_LE(m, l) << device.name << "/" << package.name;
    }
  }
}

// ---------------------------------------------------------------------------
// JSON round-trip over randomized documents (the wire format under every
// libei route, including the new /ei_trace and /ei_status payloads).
// ---------------------------------------------------------------------------

std::string random_string(Rng& rng) {
  // A palette that stresses the writer's escaping and the parser's UTF-8
  // pass-through: quotes, backslashes, control characters, multi-byte
  // code points, and \u-escapable BMP characters.
  static const std::vector<std::string> atoms = {
      "a", "Z", "0", " ", "\"", "\\", "\n", "\t", "\r", "\x01", "\x1f",
      "/", "{", "}", "[", "]", ":", ",", "é", "λ", "☃", "日本", "ÿ"};
  std::string out;
  std::size_t length = static_cast<std::size_t>(rng.uniform_int(0, 12));
  for (std::size_t i = 0; i < length; ++i) {
    out += atoms[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(atoms.size()) - 1))];
  }
  return out;
}

double random_number(Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return 0.0;
    case 1: return static_cast<double>(rng.uniform_int(-1000000, 1000000));
    case 2: return rng.uniform(-1.0, 1.0);
    case 3: return rng.uniform(0.0, 1.0) * 1e300;   // huge magnitude
    case 4: return rng.uniform(0.0, 1.0) * 1e-300;  // tiny magnitude
    default: return 9007199254740991.0;             // 2^53 - 1, max exact int
  }
}

common::Json random_json(Rng& rng, int depth) {
  // Leaves dominate as depth grows; depth 0 forces a leaf.
  int kind = depth <= 0 ? rng.uniform_int(0, 3) : rng.uniform_int(0, 5);
  switch (kind) {
    case 0: return common::Json();  // null
    case 1: return common::Json(rng.flip(0.5));
    case 2: return common::Json(random_number(rng));
    case 3: return common::Json(random_string(rng));
    case 4: {
      common::JsonArray array;
      std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 4));
      for (std::size_t i = 0; i < n; ++i) {
        array.push_back(random_json(rng, depth - 1));
      }
      return common::Json(std::move(array));
    }
    default: {
      common::Json object{common::JsonObject{}};
      std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 4));
      for (std::size_t i = 0; i < n; ++i) {
        // Unique keys (set() replaces duplicates, which would change size).
        object.set(std::to_string(i) + random_string(rng),
                   random_json(rng, depth - 1));
      }
      return object;
    }
  }
}

class JsonProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonProperty, RandomDocumentsSurviveRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    common::Json document = random_json(rng, 5);
    std::string text = document.dump();
    common::Json reparsed = common::Json::parse(text);
    EXPECT_EQ(reparsed, document) << text;
    // Serialization is a fixed point: dump(parse(dump(x))) == dump(x).
    EXPECT_EQ(reparsed.dump(), text);
    // pretty() renders the same value.
    EXPECT_EQ(common::Json::parse(document.pretty()), document);
  }
}

TEST_P(JsonProperty, DeeplyNestedDocumentsRoundTrip) {
  Rng rng(GetParam() + 31);
  common::Json document(random_string(rng));
  for (int level = 0; level < 64; ++level) {
    if (rng.flip(0.5)) {
      common::JsonArray wrap;
      wrap.push_back(std::move(document));
      document = common::Json(std::move(wrap));
    } else {
      common::Json wrap{common::JsonObject{}};
      wrap.set("k", std::move(document));
      document = std::move(wrap);
    }
  }
  EXPECT_EQ(common::Json::parse(document.dump()), document);
}

TEST_P(JsonProperty, TracePayloadsSurviveRoundTrip) {
  // The /ei_trace/{id} JSON: build a real trace with randomized span names
  // and attribute values, serialize, reparse, and re-check the tree.
  Rng rng(GetParam() + 62);
  obs::Tracer::Options options;
  options.enabled = true;
  options.seed = GetParam();
  obs::Tracer tracer(options);
  std::uint64_t trace_id = 0;
  std::size_t span_count = 1;
  {
    obs::Span root = tracer.begin_trace("root" + random_string(rng));
    trace_id = root.trace_id();
    std::size_t children = static_cast<std::size_t>(rng.uniform_int(1, 5));
    for (std::size_t c = 0; c < children; ++c) {
      obs::Span child = root.child("c" + std::to_string(c));
      ++span_count;
      child.set_attribute("text" + random_string(rng), random_string(rng));
      child.set_attribute("num", random_number(rng));
    }
  }
  auto record = tracer.find(trace_id);
  ASSERT_TRUE(record.has_value());
  common::Json document = record->to_json();
  common::Json reparsed = common::Json::parse(document.dump());
  EXPECT_EQ(reparsed, document);
  EXPECT_EQ(reparsed.at("trace_id").as_string(), std::to_string(trace_id));
  EXPECT_EQ(reparsed.at("span_count").as_number(),
            static_cast<double>(span_count));
  EXPECT_EQ(reparsed.at("root").at("children").as_array().size(),
            span_count - 1);
}

TEST_P(JsonProperty, MetricsJsonMatchesRecordedSeries) {
  Rng rng(GetParam() + 93);
  obs::MetricsRegistry registry;
  double total = 0.0;
  int samples = rng.uniform_int(1, 200);
  auto& histogram = registry.histogram("lat", {{"model", random_string(rng)}});
  for (int i = 0; i < samples; ++i) {
    double v = rng.uniform(0.0, 10.0);
    total += v;
    histogram.record(v);
  }
  registry.counter("events_total").add(total);
  common::Json document = registry.to_json();
  common::Json reparsed = common::Json::parse(document.dump());
  EXPECT_EQ(reparsed, document);
  // And the Prometheus text stays parseable line-wise: every non-comment
  // line is "<name_or_labels> <value>".
  std::string text = registry.render_prometheus();
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
    }
    start = end + 1;
  }
}

/// Writes a random array to `text` and returns the tree it should parse to,
/// each number converted on its own by strtod.  Mixed arrays interleave
/// strings, literals and nested arrays with the numbers.
common::Json random_array_text(Rng& rng, int depth, std::string& text) {
  common::JsonArray expected;
  bool mixed = rng.flip(0.5);
  text += rng.flip(0.2) ? "[ " : "[";
  std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 12));
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) text += rng.flip(0.2) ? " ,\n" : ",";
    int kind = mixed ? rng.uniform_int(0, 3) : 0;
    if (kind == 3 && depth <= 0) kind = 0;
    char token[48];
    switch (kind) {
      case 0:
        // %.17g as the model writer emits, exponent and fixed forms, a
        // leading minus (-0 included) and plain integers.
        switch (rng.uniform_int(0, 4)) {
          case 0: std::snprintf(token, sizeof(token), "%.17g", random_number(rng)); break;
          case 1: std::snprintf(token, sizeof(token), "%.6E", random_number(rng)); break;
          case 2: std::snprintf(token, sizeof(token), "%.5f", rng.uniform(-10.0, 10.0)); break;
          case 3:
            std::snprintf(token, sizeof(token), "-%.17g", std::fabs(random_number(rng)));
            break;
          default:
            std::snprintf(token, sizeof(token), "%lld",
                          static_cast<long long>(rng.uniform_int(-99999, 99999)));
            break;
        }
        text += token;
        expected.emplace_back(std::strtod(token, nullptr));
        break;
      case 1: text += "\"x\""; expected.emplace_back("x"); break;
      case 2: text += "null"; expected.emplace_back(nullptr); break;
      default: expected.push_back(random_array_text(rng, depth - 1, text)); break;
    }
  }
  text += rng.flip(0.2) ? " ]" : "]";
  return common::Json(std::move(expected));
}

/// Tree equality with numbers compared bit for bit (so -0 differs from 0).
bool same_bits(const common::Json& a, const common::Json& b) {
  if (a.type() != b.type()) return false;
  if (a.is_number()) {
    double x = a.as_number();
    double y = b.as_number();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  if (!a.is_array()) return a == b;
  if (a.as_array().size() != b.as_array().size()) return false;
  for (std::size_t i = 0; i < a.as_array().size(); ++i) {
    if (!same_bits(a.at(i), b.at(i))) return false;
  }
  return true;
}

TEST_P(JsonProperty, NumericArraysMatchElementwiseParse) {
  using common::Json;
  using common::JsonArray;
  EXPECT_TRUE(same_bits(Json::parse(R"([1,2,"x",3])"),
                        Json(JsonArray{Json(1.0), Json(2.0), Json("x"), Json(3.0)})));
  EXPECT_TRUE(same_bits(Json::parse("[[1],[2,3]]"),
                        Json(JsonArray{Json(JsonArray{Json(1.0)}),
                                       Json(JsonArray{Json(2.0), Json(3.0)})})));
  EXPECT_TRUE(same_bits(Json::parse("[]"), Json(JsonArray{})));

  Rng rng(GetParam() + 124);
  for (int i = 0; i < 100; ++i) {
    std::string text;
    Json expected = random_array_text(rng, 3, text);
    Json parsed = Json::parse(text);
    EXPECT_TRUE(same_bits(parsed, expected)) << text;
    EXPECT_EQ(parsed.dump(), expected.dump()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------------
// Histogram invariants over random inputs.
// ---------------------------------------------------------------------------

class HistogramProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramProperty, CountsPartitionAndQuantilesAreMonotone) {
  Rng rng(GetParam());
  obs::Histogram histogram(1e-6, rng.uniform(1.5, 4.0),
                           static_cast<std::size_t>(rng.uniform_int(4, 40)));
  std::size_t samples = static_cast<std::size_t>(rng.uniform_int(1, 3000));
  double sum = 0.0;
  double max_value = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    // Log-uniform spread so every bucket regime (underflow, middle,
    // overflow) gets traffic across seeds.
    double v = std::pow(10.0, rng.uniform(-8.0, 3.0));
    sum += v;
    max_value = std::max(max_value, v);
    histogram.record(v);
  }
  auto snapshot = histogram.snapshot();

  // Bucket counts partition the observations.
  std::uint64_t partition = 0;
  for (std::uint64_t c : snapshot.counts) partition += c;
  EXPECT_EQ(partition, samples);
  EXPECT_EQ(snapshot.count, samples);
  EXPECT_NEAR(snapshot.sum, sum, 1e-9 * std::max(1.0, sum));

  // Quantiles are monotone in q and never exceed the data's reachable range.
  double previous = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    double value = snapshot.quantile(q);
    EXPECT_GE(value + 1e-12, previous) << "q=" << q;
    previous = value;
  }
  // p0..p100 all land within [0, max bucket bound hit by the data].
  EXPECT_GE(snapshot.quantile(0.0), 0.0);
}

TEST_P(HistogramProperty, MergeIsAdditive) {
  Rng rng(GetParam() + 17);
  double growth = rng.uniform(1.5, 3.0);
  std::size_t buckets = static_cast<std::size_t>(rng.uniform_int(5, 30));
  obs::Histogram a(1e-6, growth, buckets);
  obs::Histogram b(1e-6, growth, buckets);
  obs::Histogram reference(1e-6, growth, buckets);
  int samples = rng.uniform_int(10, 500);
  for (int i = 0; i < samples; ++i) {
    double v = std::pow(10.0, rng.uniform(-7.0, 2.0));
    (rng.flip(0.5) ? a : b).record(v);
    reference.record(v);
  }
  a.merge_from(b);
  auto merged = a.snapshot();
  auto expected = reference.snapshot();
  EXPECT_EQ(merged.counts, expected.counts);
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_NEAR(merged.sum, expected.sum, 1e-9 * std::max(1.0, expected.sum));
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), expected.quantile(q));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Values(9, 18, 27, 36, 45, 54, 63));

// ---------------------------------------------------------------------------
// int8 quantization invariants: reconstruction error bounds, the int8 GEMM's
// analytic error envelope vs float GEMM, per-channel vs per-tensor fidelity.
// ---------------------------------------------------------------------------

class QuantProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantProperty, QuantizeDequantizeErrorBoundedByHalfStep) {
  Rng rng(GetParam());
  float lo = rng.uniform_float(-50.0F, 0.0F);
  float hi = rng.uniform_float(0.0F, 50.0F);
  tensor::Tensor t =
      tensor::Tensor::random_uniform(tensor::Shape{7, 13}, rng, lo, hi);
  tensor::QuantizedTensor q = tensor::QuantizedTensor::quantize(t);
  tensor::Tensor back = q.dequantize();
  // Half a quantization step, plus a whisker for the float divide/round.
  float bound = tensor::quantization_step_error(q.params()) * 1.001F + 1e-6F;
  for (std::size_t i = 0; i < t.elements(); ++i) {
    EXPECT_LE(std::abs(back.data()[i] - t.data()[i]), bound) << i;
  }
}

TEST_P(QuantProperty, QgemmWithinAnalyticBoundOfFloatGemm) {
  Rng rng(GetParam() * 31 + 5);
  std::size_t m = 3 + GetParam() % 5;
  std::size_t k = 8 + GetParam() % 57;
  std::size_t rows = 4 + GetParam() % 13;
  tensor::Tensor a =
      tensor::Tensor::random_uniform(tensor::Shape{m, k}, rng, -2.0F, 2.0F);
  tensor::Tensor w =
      tensor::Tensor::random_uniform(tensor::Shape{rows, k}, rng, -1.0F, 1.0F);

  tensor::QuantParams a_params = tensor::QuantParams::choose(a.min(), a.max());
  std::vector<std::int8_t> qa(m * k);
  tensor::quantize_to_int8(a.data().data(), qa.size(), a_params, qa.data());
  tensor::PackedQuantMatrix packed =
      tensor::PackedQuantMatrix::pack_rows(w, /*per_channel=*/true);

  // The biased rows qgemm takes, row stride qgemm_row_bytes(k).
  const std::size_t lda = tensor::qgemm_row_bytes(k);
  std::vector<std::uint8_t> rows_q(m * lda, tensor::biased(0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      rows_q[i * lda + p] = tensor::biased(qa[i * k + p]);
    }
  }
  std::vector<float> out(m * rows);
  tensor::qgemm(rows_q.data(), m, k, a_params, packed, nullptr,
                /*fuse_relu=*/false, out.data());

  float a_step = tensor::quantization_step_error(a_params);
  float a_max = std::max(std::abs(a.min()), std::abs(a.max()));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t r = 0; r < rows; ++r) {
      double exact = 0.0;
      float w_max = 0.0F;
      for (std::size_t p = 0; p < k; ++p) {
        exact += static_cast<double>(a.data()[i * k + p]) *
                 static_cast<double>(w.data()[r * k + p]);
        w_max = std::max(w_max, std::abs(w.data()[r * k + p]));
      }
      // Per product term: |da*w| + |dw*a| + |da*dw| with da <= a_step and
      // dw <= half the row's weight step; accumulate over k terms.
      float w_step = packed.scales()[r] * 0.5F;
      double bound = static_cast<double>(k) *
                         (a_step * w_max + w_step * a_max + a_step * w_step) *
                         1.05 +
                     1e-4;
      EXPECT_NEAR(out[i * rows + r], exact, bound)
          << "m=" << m << " k=" << k << " i=" << i << " r=" << r;
    }
  }
}

TEST_P(QuantProperty, PerChannelReconstructionBeatsPerTensor) {
  Rng rng(GetParam() * 17 + 3);
  // Rows with deliberately spread magnitudes — the regime per-channel
  // quantization exists for (a shared scale wastes range on small rows).
  std::size_t rows = 6;
  std::size_t cols = 32;
  tensor::Tensor w(tensor::Shape{rows, cols});
  auto d = w.data();
  for (std::size_t r = 0; r < rows; ++r) {
    float magnitude = std::pow(3.0F, static_cast<float>(r));
    for (std::size_t c = 0; c < cols; ++c) {
      d[r * cols + c] = rng.uniform_float(-1.0F, 1.0F) * magnitude;
    }
  }
  auto squared_error = [&](const tensor::PackedQuantMatrix& packed) {
    tensor::Tensor back = packed.dequantize();
    double total = 0.0;
    for (std::size_t i = 0; i < w.elements(); ++i) {
      double e = static_cast<double>(back.data()[i]) - w.data()[i];
      total += e * e;
    }
    return total;
  };
  double per_channel =
      squared_error(tensor::PackedQuantMatrix::pack_rows(w, true));
  double per_tensor =
      squared_error(tensor::PackedQuantMatrix::pack_rows(w, false));
  EXPECT_LE(per_channel, per_tensor);
  // And not marginally: spread rows should reconstruct much better.
  EXPECT_LT(per_channel, per_tensor * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantProperty,
                         ::testing::Values(2, 11, 23, 47, 92));

// ---------------------------------------------------------------------------
// Incremental HTTP parsing: fragmentation independence.
// ---------------------------------------------------------------------------

class RequestParserProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Whatever way TCP fragments or coalesces the byte stream, the incremental
// parser must produce exactly the requests the whole-buffer path produces —
// same count, same fields, same bodies, in order.
TEST_P(RequestParserProperty, FragmentationNeverChangesParsedRequests) {
  Rng rng(GetParam());

  // A random pipelined request stream with bodies, query strings, and
  // header-case noise.
  struct Expected {
    std::string head;
    std::string body;
  };
  std::vector<Expected> expected;
  std::string wire;
  std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 8));
  for (std::size_t i = 0; i < count; ++i) {
    std::string body;
    if (rng.flip(0.5)) {
      std::size_t body_len = static_cast<std::size_t>(rng.uniform_int(1, 2000));
      for (std::size_t b = 0; b < body_len; ++b) {
        body.push_back(static_cast<char>(rng.uniform_int(32, 126)));
      }
    }
    std::string head = (body.empty() ? "GET" : "POST") +
                       std::string(" /r" + std::to_string(i)) +
                       (rng.flip() ? "?k=v&n=" + std::to_string(i) : "") +
                       " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
                       (rng.flip() ? "X-Noise: " + std::to_string(i) + "\r\n"
                                   : "");
    if (!body.empty()) {
      head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    expected.push_back({head, body});
    wire += head + "\r\n" + body;
  }

  // Reference: the whole stream fed as one buffer.
  net::RequestParser whole;
  std::vector<net::HttpRequest> reference;
  whole.feed(wire.data(), wire.size(), reference);
  EXPECT_EQ(reference.size(), expected.size());

  // Property: random fragmentation (1-byte dribbles through large
  // coalesced chunks) yields identical results.
  net::RequestParser fragmented;
  std::vector<net::HttpRequest> parsed;
  std::size_t offset = 0;
  while (offset < wire.size()) {
    std::size_t chunk = rng.flip(0.3)
                            ? 1
                            : static_cast<std::size_t>(rng.uniform_int(
                                  1, static_cast<std::int64_t>(
                                         std::min<std::size_t>(
                                             wire.size() - offset, 700))));
    fragmented.feed(wire.data() + offset, chunk, parsed);
    offset += chunk;
  }
  EXPECT_FALSE(fragmented.mid_request());

  ASSERT_EQ(parsed.size(), reference.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].method, reference[i].method) << "request " << i;
    EXPECT_EQ(parsed[i].path, reference[i].path) << "request " << i;
    EXPECT_EQ(parsed[i].version, reference[i].version) << "request " << i;
    EXPECT_EQ(parsed[i].query, reference[i].query) << "request " << i;
    EXPECT_EQ(parsed[i].headers, reference[i].headers) << "request " << i;
    EXPECT_EQ(parsed[i].body, reference[i].body) << "request " << i;
    EXPECT_EQ(parsed[i].body, expected[i].body) << "request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestParserProperty,
                         ::testing::Values(1, 5, 13, 29, 61, 97));

// ---------------------------------------------------------------------------
// FrameQueue invariants: randomized push/pop/clock schedules checked against
// an exact reference model of the admission policies.  Single-threaded on a
// fake clock, so every drop decision is deterministic and the comparison is
// exact — not statistical.
// ---------------------------------------------------------------------------

/// Mirrors FrameQueue exactly: same admission, same settle order (latest-wins
/// supersede is classified before deadline expiry), same counters.
struct ReferenceQueue {
  struct Slot {
    std::uint64_t seq = 0;
    std::int64_t deadline_ns = 0;
  };
  stream::FrameQueue::Options options;
  const std::int64_t* now = nullptr;
  std::deque<Slot> slots;
  std::uint64_t next_seq = 0;
  stream::QueueCounters counters;
  bool closed = false;

  void drop_front(std::uint64_t& counter) {
    ++counter;
    slots.pop_front();
  }

  stream::PushOutcome push(std::int64_t own_deadline_ns) {
    ++counters.produced;
    if (closed) {
      ++counters.rejected_closed;
      return stream::PushOutcome::kRejectedClosed;
    }
    if (options.policy == stream::AdmitPolicy::kBlock) {
      // The schedule always pushes with max_wait 0: a full queue rejects
      // immediately (counted as a blocked push that found no space).
      if (slots.size() >= options.capacity) {
        ++counters.blocked_pushes;
        ++counters.rejected_backpressure;
        return stream::PushOutcome::kRejectedBackpressure;
      }
    } else {
      while (slots.size() >= options.capacity) {
        drop_front(counters.dropped_policy);
      }
    }
    Slot slot;
    slot.seq = ++next_seq;
    slot.deadline_ns = own_deadline_ns;
    if (options.deadline_s > 0.0) {
      std::int64_t queue_deadline =
          *now + static_cast<std::int64_t>(options.deadline_s * 1e9);
      if (slot.deadline_ns == 0 || queue_deadline < slot.deadline_ns) {
        slot.deadline_ns = queue_deadline;
      }
    }
    ++counters.admitted;
    slots.push_back(slot);
    return stream::PushOutcome::kAdmitted;
  }

  void settle() {
    while (!slots.empty()) {
      if (options.policy == stream::AdmitPolicy::kLatestWins &&
          slots.size() > 1) {
        drop_front(counters.dropped_policy);  // superseded before expired
        continue;
      }
      const Slot& head = slots.front();
      if (head.deadline_ns != 0 && *now >= head.deadline_ns) {
        drop_front(counters.dropped_deadline);
        continue;
      }
      break;
    }
  }

  std::optional<std::uint64_t> try_pop() {
    settle();
    if (slots.empty()) return std::nullopt;
    std::uint64_t seq = slots.front().seq;
    slots.pop_front();
    ++counters.delivered;
    return seq;
  }

  stream::QueueCounters snapshot() const {
    stream::QueueCounters out = counters;
    out.depth = slots.size();
    return out;
  }
};

void expect_counters_equal(const stream::QueueCounters& real,
                           const stream::QueueCounters& expected,
                           int op) {
  ASSERT_EQ(real.produced, expected.produced) << "op " << op;
  ASSERT_EQ(real.admitted, expected.admitted) << "op " << op;
  ASSERT_EQ(real.delivered, expected.delivered) << "op " << op;
  ASSERT_EQ(real.dropped_deadline, expected.dropped_deadline) << "op " << op;
  ASSERT_EQ(real.dropped_policy, expected.dropped_policy) << "op " << op;
  ASSERT_EQ(real.dropped_closed, expected.dropped_closed) << "op " << op;
  ASSERT_EQ(real.rejected_backpressure, expected.rejected_backpressure)
      << "op " << op;
  ASSERT_EQ(real.rejected_closed, expected.rejected_closed) << "op " << op;
  ASSERT_EQ(real.blocked_pushes, expected.blocked_pushes) << "op " << op;
  ASSERT_EQ(real.depth, expected.depth) << "op " << op;
}

class StreamProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamProperty, QueueMatchesReferenceModelUnderRandomSchedule) {
  Rng rng(GetParam());
  const stream::AdmitPolicy policies[] = {stream::AdmitPolicy::kBlock,
                                          stream::AdmitPolicy::kLatestWins,
                                          stream::AdmitPolicy::kDropOldest};
  for (stream::AdmitPolicy policy : policies) {
    std::int64_t now_ns = 0;
    stream::FrameQueue::Options options;
    options.capacity =
        static_cast<std::size_t>(rng.uniform_int(1, 5));
    options.policy = policy;
    options.deadline_s = rng.flip(0.5) ? rng.uniform(0.001, 0.1) : 0.0;
    options.now = [&now_ns] { return now_ns; };
    stream::FrameQueue queue(options);
    ReferenceQueue reference;
    reference.options = options;
    reference.now = &now_ns;

    for (int op = 0; op < 500; ++op) {
      double dice = rng.uniform();
      if (dice < 0.45) {  // push (sometimes with a frame-own deadline)
        std::int64_t own_deadline =
            rng.flip(0.3) ? now_ns + rng.uniform_int(1, 50'000'000) : 0;
        stream::Frame frame;
        frame.rows = tensor::Tensor(tensor::Shape{1, 1});
        frame.deadline_ns = own_deadline;
        stream::PushResult real = queue.push(std::move(frame), 0.0);
        stream::PushOutcome expected = reference.push(own_deadline);
        ASSERT_EQ(real.outcome, expected) << "op " << op;
        if (expected == stream::PushOutcome::kAdmitted) {
          ASSERT_EQ(real.seq, reference.next_seq) << "op " << op;
        }
      } else if (dice < 0.85) {  // try_pop
        std::optional<stream::Frame> real = queue.try_pop();
        std::optional<std::uint64_t> expected = reference.try_pop();
        ASSERT_EQ(real.has_value(), expected.has_value()) << "op " << op;
        if (real.has_value()) {
          // Delivered frames are a policy-consistent subsequence: the exact
          // seq the reference model delivers, in the same order.
          ASSERT_EQ(real->seq, *expected) << "op " << op;
        }
      } else {  // advance the clock
        now_ns += rng.uniform_int(0, 80'000'000);
      }
      expect_counters_equal(queue.counters(), reference.snapshot(), op);
    }

    // Close, then drain: the reference keeps predicting pops exactly.
    queue.close();
    reference.closed = true;
    stream::Frame late;
    late.rows = tensor::Tensor(tensor::Shape{1, 1});
    ASSERT_EQ(queue.push(std::move(late), 0.0).outcome,
              stream::PushOutcome::kRejectedClosed);
    reference.push(0);
    while (true) {
      std::optional<stream::Frame> real = queue.try_pop();
      std::optional<std::uint64_t> expected = reference.try_pop();
      ASSERT_EQ(real.has_value(), expected.has_value());
      if (!real.has_value()) break;
      ASSERT_EQ(real->seq, *expected);
    }
    expect_counters_equal(queue.counters(), reference.snapshot(), -1);
  }
}

TEST_P(StreamProperty, CountersBalanceExactlyAtEveryCheckpoint) {
  Rng rng(GetParam() + 4242);
  std::int64_t now_ns = 0;
  stream::FrameQueue::Options options;
  options.capacity = static_cast<std::size_t>(rng.uniform_int(2, 8));
  options.policy = rng.flip(0.5) ? stream::AdmitPolicy::kLatestWins
                                 : stream::AdmitPolicy::kDropOldest;
  options.deadline_s = 0.01;
  options.now = [&now_ns] { return now_ns; };
  auto queue = std::make_unique<stream::FrameQueue>(options);
  for (int op = 0; op < 400; ++op) {
    double dice = rng.uniform();
    if (dice < 0.5) {
      stream::Frame frame;
      frame.rows = tensor::Tensor(tensor::Shape{1, 1});
      queue->push(std::move(frame), 0.0);
    } else if (dice < 0.9) {
      queue->try_pop();
    } else {
      now_ns += rng.uniform_int(0, 30'000'000);
    }
    stream::QueueCounters counters = queue->counters();
    // Conservation law 1: every push attempt is accounted for.
    ASSERT_EQ(counters.produced, counters.admitted +
                                     counters.rejected_backpressure +
                                     counters.rejected_closed)
        << "op " << op;
    // Conservation law 2: every admitted frame is delivered, dropped, or
    // still queued — nothing leaks, nothing double-counts.
    ASSERT_EQ(counters.admitted,
              counters.delivered + counters.dropped_deadline +
                  counters.dropped_policy + counters.dropped_closed +
                  counters.depth)
        << "op " << op;
  }
  // Destruction drops what was never drained; re-check on the final
  // snapshot taken just before, folding depth into dropped_closed.
  stream::QueueCounters before = queue->counters();
  queue.reset();
  ASSERT_EQ(before.admitted, before.delivered + before.dropped_deadline +
                                 before.dropped_policy +
                                 before.dropped_closed + before.depth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamProperty,
                         ::testing::Values(7, 21, 42, 77, 123, 2026));

// ---------------------------------------------------------------------------
// Energy ledger vs. an exact reference model: random op schedules (clock
// advances — including non-monotone jumps — legal state steps, DVFS rung
// changes, busy charges) must keep hwsim::EnergyLedger bit-identical to an
// independent re-implementation of its accounting, with every counter
// checked at every checkpoint.
// ---------------------------------------------------------------------------

/// Mirrors EnergyLedger's arithmetic expression-for-expression so the
/// comparison is exact (EXPECT_DOUBLE_EQ), not approximate.
struct ReferenceLedger {
  hwsim::DeviceProfile device;
  std::int64_t start_ns = 0;
  std::int64_t last_settle_ns = 0;
  int state = 0;  // 0 idle / 1 active / 2 boost
  std::size_t freq_level = 0;
  double state_j[3] = {0.0, 0.0, 0.0};
  double state_seconds[3] = {0.0, 0.0, 0.0};
  double busy_j = 0.0;
  double busy_seconds = 0.0;
  std::uint64_t charges = 0;
  std::uint64_t transitions = 0;

  explicit ReferenceLedger(hwsim::DeviceProfile d, std::int64_t now)
      : device(std::move(d)), start_ns(now), last_settle_ns(now) {
    freq_level = device.freq_levels.size() - 1;
  }

  double freq_scale_of(int s, std::size_t level) const {
    if (s == 0) return 0.0;
    if (s == 2) return device.boost_freq_scale;
    std::size_t clamped = std::min(level, device.freq_levels.size() - 1);
    return device.freq_levels[clamped];
  }

  double power_of(int s, std::size_t level) const {
    if (s == 0) return device.idle_power_w;
    if (s == 2) return device.boost_power();
    double f = freq_scale_of(1, level);
    return device.idle_power_w +
           (device.active_power_w - device.idle_power_w) * f * f * f;
  }

  void settle(std::int64_t now) {
    double dt = std::max<std::int64_t>(0, now - last_settle_ns) * 1e-9;
    last_settle_ns = std::max(now, last_settle_ns);
    state_seconds[state] += dt;
    state_j[state] += dt * power_of(state, freq_level);
  }

  void set_state(std::int64_t now, int next) {
    settle(now);
    if (next == state) return;
    state = next;
    ++transitions;
  }

  void set_freq(std::int64_t now, std::size_t level) {
    settle(now);
    freq_level = std::min(level, device.freq_levels.size() - 1);
  }

  double charge(std::int64_t now, double busy_s) {
    settle(now);
    double f = freq_scale_of(state, freq_level);
    double stretched = busy_s / f;
    double joules = (power_of(state, freq_level) - device.idle_power_w) *
                    stretched;
    state_j[state] += joules;
    busy_j += joules;
    busy_seconds += stretched;
    ++charges;
    return joules;
  }
};

class EnergyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnergyProperty, LedgerMatchesReferenceModelUnderRandomSchedule) {
  Rng rng(GetParam());
  hwsim::DeviceProfile device = hwsim::raspberry_pi_4();
  std::int64_t now_ns = 0;
  hwsim::EnergyLedger ledger(device, [&now_ns] { return now_ns; });
  ReferenceLedger reference(device, now_ns);

  double last_total = 0.0;
  for (int op = 0; op < 400; ++op) {
    switch (rng.uniform_int(0, 3)) {
      case 0: {  // advance the clock (occasionally backwards: clamp path)
        std::int64_t jump = rng.uniform_int(0, 2'000'000'000);
        if (rng.flip(0.1)) jump = -jump / 2;
        now_ns += jump;
        break;
      }
      case 1: {  // legal single-rung state step (or same-state no-op)
        int step = rng.flip() ? 1 : -1;
        int next = std::min(2, std::max(0, reference.state + step));
        ledger.set_state(static_cast<hwsim::PowerState>(next));
        reference.set_state(now_ns, next);
        break;
      }
      case 2: {  // DVFS rung change, sometimes past the ladder (clamp path)
        auto level = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(
                                   device.freq_levels.size() + 1)));
        ledger.set_freq_level(level);
        reference.set_freq(now_ns, level);
        break;
      }
      default: {  // busy charge (illegal while idle: step up first)
        if (reference.state == 0) {
          ledger.set_state(hwsim::PowerState::kActive);
          reference.set_state(now_ns, 1);
        }
        double busy_s = rng.uniform(0.0, 0.05);
        double charged = ledger.charge_busy(busy_s);
        EXPECT_DOUBLE_EQ(charged, reference.charge(now_ns, busy_s));
        break;
      }
    }

    // Checkpoint: every exported field matches the reference exactly, and
    // the account is monotone.
    hwsim::EnergyLedger::Snapshot snap = ledger.snapshot();
    reference.settle(now_ns);
    double reference_total = 0.0;
    for (int s = 0; s < 3; ++s) {
      EXPECT_DOUBLE_EQ(snap.state_j[s], reference.state_j[s]) << "op " << op;
      EXPECT_DOUBLE_EQ(snap.state_seconds[s], reference.state_seconds[s])
          << "op " << op;
      reference_total += reference.state_j[s];
    }
    EXPECT_DOUBLE_EQ(snap.total_j, reference_total) << "op " << op;
    EXPECT_DOUBLE_EQ(snap.busy_j, reference.busy_j) << "op " << op;
    EXPECT_DOUBLE_EQ(snap.busy_seconds, reference.busy_seconds)
        << "op " << op;
    EXPECT_EQ(snap.charges, reference.charges) << "op " << op;
    EXPECT_EQ(snap.transitions, reference.transitions) << "op " << op;
    EXPECT_EQ(static_cast<int>(snap.state), reference.state) << "op " << op;
    EXPECT_EQ(snap.freq_level, reference.freq_level) << "op " << op;
    EXPECT_DOUBLE_EQ(
        snap.elapsed_seconds,
        (reference.last_settle_ns - reference.start_ns) * 1e-9)
        << "op " << op;
    EXPECT_GE(snap.total_j, last_total) << "op " << op;
    // Idle floor: no state draws less than idle.
    EXPECT_GE(snap.total_j,
              device.idle_power_w * snap.elapsed_seconds - 1e-9)
        << "op " << op;
    last_total = snap.total_j;
  }
}

TEST_P(EnergyProperty, GovernorConservesChargesUnderRandomTraffic) {
  Rng rng(GetParam() ^ 0x9E3779B97F4A7C15ULL);
  hwsim::DeviceProfile device = hwsim::raspberry_pi_4();
  std::int64_t now_ns = 0;
  runtime::EnergyGovernor::Options options;
  options.power_cap_w = rng.flip() ? device.active_power_w : 0.0;
  options.boost_queue_depth = 4;
  options.now = [&now_ns] { return now_ns; };
  runtime::EnergyGovernor governor(device, options);

  double charged_sum = 0.0;
  for (int op = 0; op < 300; ++op) {
    now_ns += rng.uniform_int(0, 200'000'000);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        charged_sum += governor.charge(rng.uniform(0.0, 0.01),
                                       static_cast<std::size_t>(
                                           rng.uniform_int(1, 8)));
        break;
      case 1:
        governor.on_queue_depth(
            static_cast<std::size_t>(rng.uniform_int(0, 8)));
        break;
      case 2:
        governor.on_drained();
        break;
      default:
        governor.admit();  // decision recorded; never throws
        break;
    }
    runtime::EnergyGovernor::Snapshot snap = governor.snapshot();
    // Every charged joule the callers saw is in the ledger, exactly once.
    EXPECT_DOUBLE_EQ(snap.ledger.busy_j, charged_sum) << "op " << op;
    EXPECT_DOUBLE_EQ(snap.ledger.total_j, snap.ledger.state_j[0] +
                                              snap.ledger.state_j[1] +
                                              snap.ledger.state_j[2])
        << "op " << op;
    // The rolling estimate never reads below the idle baseline.
    EXPECT_GE(governor.rolling_watts(), device.idle_power_w - 1e-12)
        << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnergyProperty,
                         ::testing::Values(7, 21, 42, 77, 123, 2026));

TEST(CostModelProperty, EnergyAndMemoryNonNegativeEverywhere) {
  Rng rng(6);
  nn::zoo::ImageSpec spec;
  for (const auto& entry : nn::zoo::image_catalog()) {
    nn::Model model = entry.build(spec, rng);
    for (const auto& device : hwsim::default_fleet()) {
      for (const auto& package : hwsim::default_packages()) {
        auto cost = hwsim::estimate_inference(model, package, device);
        EXPECT_GT(cost.latency_s, 0.0);
        EXPECT_GT(cost.energy_j, 0.0);
        EXPECT_GT(cost.memory_bytes, model.storage_bytes());
      }
    }
  }
}

}  // namespace
}  // namespace openei
