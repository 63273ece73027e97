// Model-lifecycle bench: the cost of the memory-governed session cache.
// Reports warm-hit vs cold-miss acquire latency (p50/p95), hot-swap install
// latency through the copy-on-write registry, the cost of decoding a
// mini-VGG model body (what a hot-swap over POST /ei_models pays before the
// install), and LRU eviction throughput when the working set exceeds the
// budget.  Writes BENCH_cache.json so CI can archive the trajectory.
//
// Usage: bench_model_cache [--quick] [--out PATH]
//   --quick  fewer reps (CI smoke job)
//   --out    output JSON path (default BENCH_cache.json in the CWD)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/rng.h"
#include "hwsim/cost_model.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "runtime/model_registry.h"
#include "runtime/session_cache.h"

namespace openei::bench {
namespace {

using common::Json;
using common::JsonObject;
using common::Rng;

struct Config {
  bool quick = false;
  std::string out_path = "BENCH_cache.json";
};

struct LatencyStats {
  double ops_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

/// Times `work` `reps` times; `setup` runs before each rep outside the
/// timed window (cold-miss measurement needs an untimed clear()).
template <typename Setup, typename Work>
LatencyStats measure(std::size_t reps, const Setup& setup, const Work& work) {
  std::vector<double> latencies_ms;
  latencies_ms.reserve(reps);
  double total_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    setup();
    common::Stopwatch watch;
    work();
    double elapsed = watch.elapsed_seconds();
    total_s += elapsed;
    latencies_ms.push_back(elapsed * 1e3);
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto percentile = [&](double p) {
    std::size_t index = static_cast<std::size_t>(
        p * static_cast<double>(latencies_ms.size() - 1) + 0.5);
    return latencies_ms[index];
  };
  LatencyStats stats;
  stats.ops_per_sec = total_s > 0.0 ? static_cast<double>(reps) / total_s : 0.0;
  stats.p50_ms = percentile(0.50);
  stats.p95_ms = percentile(0.95);
  return stats;
}

Json stats_to_json(const LatencyStats& stats) {
  return Json(JsonObject{{"p50_ms", Json(stats.p50_ms)},
                         {"p95_ms", Json(stats.p95_ms)},
                         {"ops_per_sec", Json(stats.ops_per_sec)}});
}

int run(const Config& config) {
  banner(std::string("Model lifecycle: session-cache acquire, hot-swap, "
                     "body decode, eviction") +
         (config.quick ? "  [quick]" : ""));

  hwsim::DeviceProfile device = hwsim::raspberry_pi_4();
  hwsim::PackageSpec package = hwsim::openei_package();
  Rng rng(42);

  const std::size_t warm_reps = config.quick ? 200 : 5000;
  const std::size_t cold_reps = config.quick ? 30 : 300;
  const std::size_t swap_reps = config.quick ? 30 : 300;
  const std::size_t decode_reps = config.quick ? 20 : 200;
  const std::size_t evict_acquires = config.quick ? 60 : 600;

  runtime::ModelRegistry registry;
  registry.put({"bench", "serve",
                nn::zoo::make_mlp("det", 16, 4, {64, 32}, rng), 0.9});
  std::size_t session_bytes =
      hwsim::estimate_inference(registry.get("det")->model, package, device)
          .memory_bytes;

  runtime::SessionCache::Options options;
  options.budget_bytes = 8 * session_bytes;
  runtime::SessionCache cache(registry, package, device, options);

  // --- Warm hit: the steady-state serving path (shared snapshot, no clone).
  cache.acquire("det");  // materialize once
  LatencyStats warm = measure(
      warm_reps, [] {}, [&] { benchmark::DoNotOptimize(cache.acquire("det")); });
  section("warm hit");
  std::printf("p50 %s   p95 %s   %.0f acquires/s\n",
              format_seconds(warm.p50_ms * 1e-3).c_str(),
              format_seconds(warm.p95_ms * 1e-3).c_str(), warm.ops_per_sec);

  // --- Cold miss: clear() untimed, then one full materialization (model
  // clone + arena plan + admission accounting).
  LatencyStats cold = measure(
      cold_reps, [&] { cache.clear(); },
      [&] { benchmark::DoNotOptimize(cache.acquire("det")); });
  section("cold miss");
  std::printf("p50 %s   p95 %s   %.0f materializations/s\n",
              format_seconds(cold.p50_ms * 1e-3).c_str(),
              format_seconds(cold.p95_ms * 1e-3).c_str(), cold.ops_per_sec);

  // --- Hot-swap: installing a new version through the copy-on-write
  // registry (entries prepared untimed; put is the measured step).
  std::vector<runtime::ModelEntry> versions;
  versions.reserve(swap_reps);
  for (std::size_t i = 0; i < swap_reps; ++i) {
    versions.push_back({"bench", "serve",
                        nn::zoo::make_mlp("det", 16, 4, {64, 32}, rng), 0.9});
  }
  std::size_t next_version = 0;
  LatencyStats swap = measure(
      swap_reps, [] {},
      [&] { registry.put(std::move(versions[next_version++])); });
  section("hot swap (registry install)");
  std::printf("p50 %s   p95 %s\n", format_seconds(swap.p50_ms * 1e-3).c_str(),
              format_seconds(swap.p95_ms * 1e-3).c_str());

  // --- Model body decode: Json::parse + model_from_json of a mini-VGG body,
  // the bulk of an HTTP hot-swap (E14).  Its own seed keeps the other
  // sections' models unchanged.
  Rng vgg_rng(7);
  std::string vgg_body = nn::save_model(nn::zoo::make_mini_vgg({}, vgg_rng));
  LatencyStats decode = measure(
      decode_reps, [] {},
      [&] { benchmark::DoNotOptimize(nn::load_model(vgg_body)); });
  section("model body decode (mini-VGG, nn::load_model)");
  std::printf("%s body   p50 %s   p95 %s\n",
              format_bytes(static_cast<double>(vgg_body.size())).c_str(),
              format_seconds(decode.p50_ms * 1e-3).c_str(),
              format_seconds(decode.p95_ms * 1e-3).c_str());

  // --- Eviction throughput: a working set of 4 equal-size models against a
  // 2-session budget; every acquire in the cycle is a miss + an eviction.
  runtime::ModelRegistry fleet_registry;
  std::vector<std::string> fleet;
  for (int m = 0; m < 4; ++m) {
    std::string name = "evict_m" + std::to_string(m);
    fleet_registry.put({"bench", "serve",
                        nn::zoo::make_mlp(name, 16, 4, {64, 32}, rng), 0.9});
    fleet.push_back(std::move(name));
  }
  runtime::SessionCache::Options tight;
  tight.budget_bytes = 2 * session_bytes + session_bytes / 2;
  runtime::SessionCache tight_cache(fleet_registry, package, device, tight);
  common::Stopwatch evict_watch;
  for (std::size_t i = 0; i < evict_acquires; ++i) {
    benchmark::DoNotOptimize(tight_cache.acquire(fleet[i % fleet.size()]));
  }
  double evict_elapsed = evict_watch.elapsed_seconds();
  runtime::SessionCache::Stats tight_stats = tight_cache.stats();
  double evictions_per_sec =
      evict_elapsed > 0.0
          ? static_cast<double>(tight_stats.evictions) / evict_elapsed
          : 0.0;
  section("eviction throughput (4 models, 2-session budget)");
  std::printf("%llu evictions in %s  ->  %.0f evictions/s\n",
              static_cast<unsigned long long>(tight_stats.evictions),
              format_seconds(evict_elapsed).c_str(), evictions_per_sec);

  double speedup = warm.p50_ms > 0.0 ? cold.p50_ms / warm.p50_ms : 0.0;
  section("summary");
  std::printf("warm p50 / cold p50: %.0fx cheaper to hit than to "
              "materialize\n", speedup);

  Json report{JsonObject{}};
  report.set("bench", "model_cache");
  report.set("quick", config.quick);
  report.set("session_bytes", session_bytes);
  report.set("budget_bytes", options.budget_bytes);
  report.set("warm_hit", stats_to_json(warm));
  report.set("cold_miss", stats_to_json(cold));
  report.set("warm_vs_cold_p50_speedup", speedup);
  report.set("hot_swap", stats_to_json(swap));
  Json model_decode = stats_to_json(decode);
  model_decode.set("body_bytes", vgg_body.size());
  report.set("model_decode", std::move(model_decode));
  Json eviction{JsonObject{}};
  eviction.set("acquires", evict_acquires);
  eviction.set("evictions", tight_stats.evictions);
  eviction.set("evictions_per_sec", evictions_per_sec);
  report.set("eviction", std::move(eviction));
  // Warm-vs-cold compares latencies on one host; only quick runs demote the
  // speedup to informational.
  set_host_info(report, !config.quick);

  std::ofstream out(config.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
    return 1;
  }
  out << report.pretty() << "\n";
  std::printf("\nwrote %s\n", config.out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace openei::bench

int main(int argc, char** argv) {
  openei::common::set_log_level(openei::common::LogLevel::kError);
  openei::bench::Config config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      config.out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_model_cache [--quick] [--out PATH]\n");
      return 2;
    }
  }
  return openei::bench::run(config);
}
