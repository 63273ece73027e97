// Streaming pipeline bench: frames/sec vs deadline-miss rate, block vs
// latest-wins, across hwsim device profiles (E17).
//
// Each cell runs one StreamSession whose worker is paced by the device's
// simulated inference latency (pace_sim_latency_scale maps sim seconds to
// wall seconds), so the hwsim profile sets the real service rate.  A
// producer offers frames at a fixed rate chosen to overload the reference
// device (~2x its service rate); every frame carries the same absolute
// deadline budget.  Under that load the two policies diverge:
//
//   block        the producer is paced to the consumer, the queue sits full,
//                and every frame ages ~capacity x service_time before the
//                worker reaches it — once that exceeds the deadline, frames
//                expire in bulk and delivered fps collapses (saturation)
//   latest_wins  stale frames are shed at both ends, the worker always
//                infers the freshest frame, and the miss rate stays near
//                zero at the same offered rate
//
// Per cell: offered/delivered fps, deadline-miss and policy-drop rates,
// mean/p95 queue wait, and the full conservation counter set (asserted
// exactly — a violation exits 1).  Writes BENCH_stream.json; --min-fps
// and --max-miss-rate turn the reference device's latest-wins cell into
// regression gates.
//
// A second phase measures sharing: N unpaced sessions on one mini-VGG,
// alone and beside closed-loop /ei_algorithms clients on the same model.
// Every stream worker and the micro-batcher's flush thread predict through
// the one cached InferenceSession, so the phase prints what they pay for
// its arena lock (the "shared_model" JSON array; no gate).
//
// Usage: bench_stream [--quick] [--out PATH] [--duration-s S]
//                     [--min-fps F] [--max-miss-rate R]
//   --quick          short cells + the 3-device fleet subset (CI smoke)
//   --duration-s S   measured seconds per cell (default 4)
//   --min-fps F      fail when the reference latest-wins cell delivers
//                    fewer than F frames/sec (0 = no gate)
//   --max-miss-rate R fail when the reference latest-wins cell's deadline
//                    miss rate exceeds R in [0,1] (default 1 = no gate)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "hwsim/cost_model.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "net/http.h"
#include "nn/zoo.h"
#include "stream/frame_queue.h"
#include "stream/stream_session.h"
#include "tensor/tensor.h"

namespace openei::bench {
namespace {

using common::Json;
using common::JsonObject;

constexpr std::size_t kFeatures = 16;
constexpr std::size_t kClasses = 4;
constexpr std::size_t kQueueCapacity = 4;

struct Config {
  bool quick = false;
  std::string out_path = "BENCH_stream.json";
  double duration_s = 4.0;
  double min_fps = 0.0;
  double max_miss_rate = 1.0;
};

struct CellResult {
  std::string device;
  std::string policy;
  double offered_fps = 0.0;
  double delivered_fps = 0.0;
  double miss_rate = 0.0;         // dropped_deadline / admitted
  double policy_drop_rate = 0.0;  // dropped_policy / admitted
  double mean_wait_ms = 0.0;
  double p95_wait_ms = 0.0;
  std::uint64_t blocked_pushes = 0;
  stream::QueueCounters counters;
  bool conservation_ok = false;
};

/// One (device, policy) cell: paced worker, fixed-rate producer, fixed
/// per-frame deadline.  `scale` maps simulated seconds to wall seconds.
CellResult run_cell(const hwsim::DeviceProfile& device,
                    stream::AdmitPolicy policy, double scale,
                    double offer_interval_s, double deadline_s,
                    double duration_s) {
  core::EdgeNodeConfig config{device, hwsim::openei_package(), 16};
  core::EdgeNode node(config);
  common::Rng rng(42);
  node.deploy_model("stream", "classify",
                    nn::zoo::make_mlp("streamer", kFeatures, kClasses, {32},
                                      rng),
                    0.9);

  stream::StreamSession::Options options;
  options.queue.capacity = kQueueCapacity;
  options.queue.policy = policy;
  options.queue.deadline_s = deadline_s;
  options.result_capacity = 1 << 16;  // hold every delivery for wait stats
  options.pace_sim_latency_scale = scale;
  stream::StreamSession session("bench", "stream", "classify", "streamer",
                                node.service().lifecycle(), options);

  nn::Tensor sample(tensor::Shape{kFeatures});
  for (float& v : sample.data()) v = 0.25F;

  std::vector<double> waits_s;
  common::Stopwatch wall;
  double next_offer_s = 0.0;
  while (wall.elapsed_seconds() < duration_s) {
    double now_s = wall.elapsed_seconds();
    if (now_s < next_offer_s) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(next_offer_s - now_s, 0.0005)));
      continue;
    }
    next_offer_s += offer_interval_s;
    // block: unbounded wait — the producer is paced to the consumer, which
    // is exactly the saturation the bench measures.  Eviction policies
    // return immediately.
    session.submit(sample, -1.0);
    for (stream::DeliveredResult& result : session.poll()) {
      waits_s.push_back(result.queue_wait_s);
    }
  }
  session.close();  // drains the queue; every admitted frame resolves
  for (stream::DeliveredResult& result : session.poll()) {
    waits_s.push_back(result.queue_wait_s);
  }
  double wall_s = wall.elapsed_seconds();

  stream::SessionStats stats = session.stats();
  CellResult cell;
  cell.device = device.name;
  cell.policy = stream::to_string(policy);
  cell.offered_fps = 1.0 / offer_interval_s;
  cell.delivered_fps =
      wall_s > 0.0 ? static_cast<double>(stats.queue.delivered) / wall_s : 0.0;
  if (stats.queue.admitted > 0) {
    cell.miss_rate = static_cast<double>(stats.queue.dropped_deadline) /
                     static_cast<double>(stats.queue.admitted);
    cell.policy_drop_rate = static_cast<double>(stats.queue.dropped_policy) /
                            static_cast<double>(stats.queue.admitted);
  }
  std::sort(waits_s.begin(), waits_s.end());
  if (!waits_s.empty()) {
    double sum = 0.0;
    for (double w : waits_s) sum += w;
    cell.mean_wait_ms = sum / static_cast<double>(waits_s.size()) * 1e3;
    cell.p95_wait_ms =
        waits_s[static_cast<std::size_t>(
            0.95 * static_cast<double>(waits_s.size() - 1))] *
        1e3;
  }
  cell.blocked_pushes = stats.queue.blocked_pushes;
  cell.counters = stats.queue;
  const stream::QueueCounters& c = stats.queue;
  cell.conservation_ok =
      c.produced == c.admitted + c.rejected_backpressure + c.rejected_closed &&
      c.admitted == c.delivered + c.dropped_deadline + c.dropped_policy +
                        c.dropped_closed + c.depth;
  return cell;
}

Json cell_to_json(const CellResult& cell) {
  const stream::QueueCounters& c = cell.counters;
  return Json(JsonObject{
      {"device", Json(cell.device)},
      {"policy", Json(cell.policy)},
      {"offered_fps", Json(cell.offered_fps)},
      {"delivered_fps", Json(cell.delivered_fps)},
      {"deadline_miss_rate", Json(cell.miss_rate)},
      {"policy_drop_rate", Json(cell.policy_drop_rate)},
      {"mean_wait_ms", Json(cell.mean_wait_ms)},
      {"p95_wait_ms", Json(cell.p95_wait_ms)},
      {"blocked_pushes", Json(cell.blocked_pushes)},
      {"conservation_ok", Json(cell.conservation_ok)},
      {"counters",
       Json(JsonObject{{"produced", Json(c.produced)},
                       {"admitted", Json(c.admitted)},
                       {"delivered", Json(c.delivered)},
                       {"dropped_deadline", Json(c.dropped_deadline)},
                       {"dropped_policy", Json(c.dropped_policy)},
                       {"dropped_closed", Json(c.dropped_closed)},
                       {"rejected_backpressure",
                        Json(c.rejected_backpressure)},
                       {"rejected_closed", Json(c.rejected_closed)}})}});
}

struct SharedResult {
  std::size_t streams = 0;
  std::size_t http_clients = 0;
  double stream_fps = 0.0;
  double http_rps = 0.0;
  double http_p50_ms = 0.0;
  std::uint64_t http_errors = 0;
};

/// `streams` unpaced block-policy sessions on one mini-VGG, each fed by its
/// own producer, plus `http_clients` closed-loop clients posting one image
/// to /ei_algorithms; throughput over `duration_s` after a short warm-up.
SharedResult run_shared_cell(std::size_t streams, std::size_t http_clients,
                             double duration_s) {
  core::EdgeNode node(core::EdgeNodeConfig{hwsim::edge_fpga(),
                                           hwsim::openei_package(), 16});
  common::Rng rng(11);
  nn::Model vgg = nn::zoo::make_mini_vgg(nn::zoo::ImageSpec{}, rng);
  vgg.set_name("vgg");
  nn::Tensor frame(vgg.input_shape());
  node.deploy_model("vision", "classify", std::move(vgg), 0.9);
  std::string body = "[[";
  for (std::size_t i = 0; i < frame.elements(); ++i) {
    frame.data()[i] = static_cast<float>(i % 7) * 0.1F;
    if (i > 0) body += ',';
    body += std::to_string(frame.data()[i]);
  }
  body += "]]";

  stream::StreamSession::Options options;
  options.queue.capacity = kQueueCapacity;
  options.queue.policy = stream::AdmitPolicy::kBlock;
  std::vector<std::unique_ptr<stream::StreamSession>> sessions;
  for (std::size_t i = 0; i < streams; ++i) {
    sessions.push_back(std::make_unique<stream::StreamSession>(
        std::to_string(i), "vision", "classify", "vgg",
        node.service().lifecycle(), options));
  }
  std::uint16_t port = http_clients > 0 ? node.start_server(0) : 0;

  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<std::vector<double>> latencies_s(http_clients);
  std::vector<std::uint64_t> errors(http_clients, 0);
  std::vector<std::thread> threads;
  for (auto& session : sessions) {
    threads.emplace_back([&, s = session.get()] {
      while (!stop.load()) {
        s->submit(frame, -1.0);
        s->poll();
      }
    });
  }
  for (std::size_t c = 0; c < http_clients; ++c) {
    threads.emplace_back([&, c] {
      net::HttpClient client(port);
      while (!stop.load()) {
        common::Stopwatch request;
        bool ok = false;
        try {
          ok = client.post("/ei_algorithms/vision/classify", body).status ==
               200;
        } catch (const std::exception&) {
        }
        if (!measuring.load()) continue;
        if (ok) {
          latencies_s[c].push_back(request.elapsed_seconds());
        } else {
          ++errors[c];
        }
      }
    });
  }

  auto delivered = [&] {
    std::uint64_t total = 0;
    for (auto& session : sessions) total += session->stats().queue.delivered;
    return total;
  };
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::uint64_t delivered_before = delivered();
  measuring.store(true);
  common::Stopwatch wall;
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  measuring.store(false);
  double wall_s = wall.elapsed_seconds();
  std::uint64_t delivered_after = delivered();
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  for (auto& session : sessions) session->close();

  SharedResult result;
  result.streams = streams;
  result.http_clients = http_clients;
  result.stream_fps =
      static_cast<double>(delivered_after - delivered_before) / wall_s;
  std::vector<double> all;
  for (std::size_t c = 0; c < http_clients; ++c) {
    all.insert(all.end(), latencies_s[c].begin(), latencies_s[c].end());
    result.http_errors += errors[c];
  }
  result.http_rps = static_cast<double>(all.size()) / wall_s;
  if (!all.empty()) {
    std::nth_element(all.begin(), all.begin() + all.size() / 2, all.end());
    result.http_p50_ms = all[all.size() / 2] * 1e3;
  }
  return result;
}

int run(const Config& config) {
  banner("OpenEI streaming: policy vs deadline-miss rate across the fleet");
  double duration_s = config.quick ? std::min(config.duration_s, 1.5)
                                   : config.duration_s;

  std::vector<hwsim::DeviceProfile> fleet{
      hwsim::raspberry_pi_3(), hwsim::raspberry_pi_4(), hwsim::jetson_tx2()};
  const hwsim::DeviceProfile reference = hwsim::raspberry_pi_4();

  // Calibrate the wall-clock service time off the reference device: its
  // simulated latency maps to target_service_s, and every other profile's
  // service time scales with its own simulated latency — faster silicon
  // really serves faster.
  common::Rng rng(42);
  nn::Model probe =
      nn::zoo::make_mlp("streamer", kFeatures, kClasses, {32}, rng);
  double reference_latency_s =
      hwsim::estimate_inference(probe, hwsim::openei_package(), reference)
          .latency_s;
  double target_service_s = config.quick ? 0.004 : 0.008;
  double scale = target_service_s / reference_latency_s;
  // Overload the reference ~2x; deadline of 2 service times, far below the
  // full-queue wait (~capacity x service), so a saturated block queue must
  // expire frames while latest-wins stays fresh.
  double offer_interval_s = target_service_s / 2.0;
  double deadline_s = 2.0 * target_service_s;

  std::printf("reference sim latency: %s   service: %s   offered: %.0f fps   "
              "deadline: %s   cell: %.1fs%s\n",
              format_seconds(reference_latency_s).c_str(),
              format_seconds(target_service_s).c_str(),
              1.0 / offer_interval_s, format_seconds(deadline_s).c_str(),
              duration_s, config.quick ? "  [quick]" : "");
  std::printf("\n%16s %12s %9s %10s %8s %8s %10s\n", "device", "policy",
              "off.fps", "del.fps", "miss", "shed", "p95 wait");

  Json cells{common::JsonArray{}};
  CellResult gate_cell;
  CellResult gate_block_cell;
  bool conservation_ok = true;
  for (const hwsim::DeviceProfile& device : fleet) {
    for (stream::AdmitPolicy policy :
         {stream::AdmitPolicy::kBlock, stream::AdmitPolicy::kLatestWins}) {
      CellResult cell = run_cell(device, policy, scale, offer_interval_s,
                                 deadline_s, duration_s);
      std::printf("%16s %12s %9.0f %10.1f %7.1f%% %7.1f%% %10s\n",
                  cell.device.c_str(), cell.policy.c_str(), cell.offered_fps,
                  cell.delivered_fps, cell.miss_rate * 100.0,
                  cell.policy_drop_rate * 100.0,
                  format_seconds(cell.p95_wait_ms / 1e3).c_str());
      conservation_ok = conservation_ok && cell.conservation_ok;
      if (device.name == reference.name) {
        if (policy == stream::AdmitPolicy::kLatestWins) gate_cell = cell;
        if (policy == stream::AdmitPolicy::kBlock) gate_block_cell = cell;
      }
      cells.as_array().push_back(cell_to_json(cell));
    }
  }

  section("summary");
  std::printf("reference (%s) under ~2x overload:\n", reference.name.c_str());
  std::printf("  block       : %.1f fps delivered, %.1f%% deadline misses\n",
              gate_block_cell.delivered_fps,
              gate_block_cell.miss_rate * 100.0);
  std::printf("  latest_wins : %.1f fps delivered, %.1f%% deadline misses\n",
              gate_cell.delivered_fps, gate_cell.miss_rate * 100.0);

  section("shared model: N unpaced sessions on one mini-VGG");
  std::printf("%8s %6s %12s %10s %10s %7s\n", "streams", "http", "stream fps",
              "http rps", "http p50", "errors");
  Json shared{common::JsonArray{}};
  double shared_s = config.quick ? 0.5 : duration_s / 2.0;
  for (std::size_t http_clients : {std::size_t{0}, std::size_t{2}}) {
    for (std::size_t streams : {1, 2, 4}) {
      SharedResult r = run_shared_cell(streams, http_clients, shared_s);
      std::printf("%8zu %6zu %12.1f %10.1f %8.2fms %7llu\n", r.streams,
                  r.http_clients, r.stream_fps, r.http_rps, r.http_p50_ms,
                  static_cast<unsigned long long>(r.http_errors));
      shared.as_array().push_back(Json(JsonObject{
          {"streams", Json(r.streams)},
          {"http_clients", Json(r.http_clients)},
          {"stream_fps", Json(r.stream_fps)},
          {"http_rps", Json(r.http_rps)},
          {"http_p50_ms", Json(r.http_p50_ms)},
          {"http_errors", Json(r.http_errors)}}));
    }
  }

  Json report{JsonObject{}};
  report.set("bench", "stream");
  report.set("quick", config.quick);
  report.set("duration_s", duration_s);
  report.set("queue_capacity", kQueueCapacity);
  report.set("target_service_s", target_service_s);
  report.set("offered_fps", 1.0 / offer_interval_s);
  report.set("deadline_s", deadline_s);
  report.set("reference_device", reference.name);
  report.set("cells", std::move(cells));
  report.set("shared_model", std::move(shared));
  report.set("min_fps_gate", config.min_fps);
  report.set("max_miss_rate_gate", config.max_miss_rate);
  // Producer and consumer must overlap for throughput numbers to mean
  // anything.
  set_host_info(report,
                std::thread::hardware_concurrency() >= 2 && !config.quick);

  std::ofstream out(config.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
    return 1;
  }
  out << report.pretty() << "\n";
  std::printf("wrote %s\n", config.out_path.c_str());

  if (!conservation_ok) {
    std::fprintf(stderr, "FAIL: queue counter conservation violated\n");
    return 1;
  }
  if (config.min_fps > 0.0 && gate_cell.delivered_fps < config.min_fps) {
    std::fprintf(stderr,
                 "FAIL: latest-wins delivered %.1f fps on %s, below the %.1f "
                 "fps floor\n",
                 gate_cell.delivered_fps, reference.name.c_str(),
                 config.min_fps);
    return 1;
  }
  if (gate_cell.miss_rate > config.max_miss_rate) {
    std::fprintf(stderr,
                 "FAIL: latest-wins deadline-miss rate %.3f on %s exceeds "
                 "the %.3f ceiling\n",
                 gate_cell.miss_rate, reference.name.c_str(),
                 config.max_miss_rate);
    return 1;
  }
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
    } else if (std::strcmp(argv[i], "--duration-s") == 0 && i + 1 < argc) {
      config.duration_s = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-fps") == 0 && i + 1 < argc) {
      config.min_fps = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-miss-rate") == 0 && i + 1 < argc) {
      config.max_miss_rate = std::stod(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_stream [--quick] [--out PATH] "
                   "[--duration-s S] [--min-fps F] [--max-miss-rate R]\n");
      return 2;
    }
  }
  return openei::bench::run(config);
}
