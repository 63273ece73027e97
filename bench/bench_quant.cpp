// Int8 engine bench: float vs quantized execution on the zoo MLP and the
// mini-VGG CNN.  For each workload it trains a float model briefly, runs
// post-training calibrated int8 quantization, then reports single-sample
// p50/p95 latency (served through InferenceSession, i.e. the zero-alloc
// forward plan), ops/sec, weight storage bytes, and float-vs-int8 top-1
// agreement.  For mini-VGG it also prints the plan's per-step median table
// (float and int8, one row) and `gemm_share`: gemm_packed alone at each
// fp32 layer's GEMM shape, summed, over the fp32 forward p50.  A 512 -> 96
// dense layer is timed float vs int8 at rows 1/2/4/8.  Writes
// BENCH_quant.json (with the int8 ISA level) so CI can gate and archive it.
//
// Usage: bench_quant [--quick] [--out PATH]
//   --quick  fewer reps / smaller training budget (CI smoke job)
//   --out    output JSON path (default BENCH_quant.json in the CWD)
//
// The top-level p50_speedup / weight_ratio / top1_agreement fields are the
// *minimum* across workloads, so a single threshold check covers both.
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
#include "common/parallel.h"
#include "common/rng.h"
#include "compress/quantize_model.h"
#include "data/synthetic.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "runtime/arena.h"
#include "runtime/inference.h"
#include "tensor/ops.h"
#include "tensor/pack.h"
#include "tensor/quantize.h"

namespace openei::bench {
namespace {

using common::Json;
using common::JsonArray;
using common::JsonObject;
using tensor::Shape;
using tensor::Tensor;

struct Config {
  bool quick = false;
  std::string out_path = "BENCH_quant.json";
};

struct LatencyStats {
  double ops_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

template <typename Work>
LatencyStats measure(std::size_t reps, const Work& work) {
  std::vector<double> latencies_ms;
  latencies_ms.reserve(reps);
  double total_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
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

/// Single-sample serving latency through an InferenceSession, cycling over
/// pre-sliced probe rows so every rep pays only the forward pass.
LatencyStats measure_single_sample(runtime::InferenceSession& session,
                                   const std::vector<Tensor>& singles,
                                   std::size_t reps) {
  std::size_t index = 0;
  // Warm-up: page in weights, let the scratch reach steady state.
  for (std::size_t i = 0; i < std::min<std::size_t>(singles.size(), 8); ++i) {
    session.run(singles[i]);
  }
  return measure(reps, [&] {
    benchmark::DoNotOptimize(session.run(singles[index]));
    index = (index + 1) % singles.size();
  });
}

std::vector<Tensor> slice_singles(const Tensor& batch, std::size_t count) {
  std::size_t rows = batch.shape().dim(0);
  std::size_t sample = batch.elements() / rows;
  std::vector<std::size_t> dims = batch.shape().dims();
  dims[0] = 1;
  Shape single_shape(dims);
  std::vector<Tensor> singles;
  for (std::size_t r = 0; r < std::min(rows, count); ++r) {
    Tensor row(single_shape);
    const float* src = batch.data().data() + r * sample;
    std::copy(src, src + sample, row.data().data());
    singles.push_back(std::move(row));
  }
  return singles;
}

double top1_agreement(nn::Model& a, nn::Model& b, const Tensor& probes) {
  auto pa = a.predict(probes);
  auto pb = b.predict(probes);
  std::size_t same = 0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i] == pb[i]) ++same;
  }
  return pa.empty() ? 0.0
                    : static_cast<double>(same) / static_cast<double>(pa.size());
}

Json stats_to_json(const LatencyStats& stats, std::size_t weight_bytes) {
  return Json(JsonObject{{"p50_ms", Json(stats.p50_ms)},
                         {"p95_ms", Json(stats.p95_ms)},
                         {"ops_per_sec", Json(stats.ops_per_sec)},
                         {"weight_bytes", Json(weight_bytes)}});
}

double median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

/// Per-step medians of one single-row planned forward, printed and returned
/// as [{label, median_us}].
Json step_table(const char* engine, const nn::Model& model,
                const Tensor& single, std::size_t reps) {
  auto plan = runtime::ForwardPlan::plan(model);
  runtime::ForwardPlan::Scratch scratch(*plan);
  auto steps = plan->profile(single.data().data(), 1, reps, scratch);
  std::printf("\n%s forward, per step (1 row, median of %zu):\n", engine, reps);
  JsonArray rows;
  double total = 0.0;
  for (const auto& step : steps) {
    std::printf("  %-48s %9.1f us\n", step.label.c_str(), step.median_us);
    total += step.median_us;
    rows.push_back(Json(JsonObject{{"label", Json(step.label)},
                                   {"median_us", Json(step.median_us)}}));
  }
  std::printf("  %-48s %9.1f us\n", "sum of step medians", total);
  return Json(JsonObject{{"steps", Json(std::move(rows))},
                         {"sum_us", Json(total)}});
}

/// Median µs of gemm_packed alone at every GEMM shape `model` runs for one
/// sample (a conv: [out_h*out_w, in_c*k*k] x [.., out_c]; a dense: one row).
double gemm_alone_us(const nn::Model& model, std::size_t reps) {
  common::Rng rng(47);
  double sum = 0.0;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    std::size_t m = 0, k = 0, n = 0;
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&model.layer(i))) {
      Shape out = model.shape_after(i + 1);
      const tensor::Conv2dSpec& spec = conv->spec();
      m = out.dim(1) * out.dim(2);
      k = spec.in_channels * spec.kernel * spec.kernel;
      n = spec.out_channels;
    } else if (const auto* dense =
                   dynamic_cast<const nn::Dense*>(&model.layer(i))) {
      m = 1;
      k = dense->in_features();
      n = dense->out_features();
    } else {
      continue;
    }
    std::vector<float> a(m * k), b(k * n), bias(n), c(m * n);
    for (float& v : a) v = rng.uniform_float(-1.0F, 1.0F);
    for (float& v : b) v = rng.uniform_float(-1.0F, 1.0F);
    tensor::PackedMatrix packed = tensor::PackedMatrix::pack(b.data(), k, n);
    std::vector<double> us;
    for (std::size_t r = 0; r < reps + 20; ++r) {
      common::Stopwatch watch;
      tensor::gemm_packed(a.data(), m, packed, bias.data(), true, false,
                          c.data());
      if (r >= 20) us.push_back(watch.elapsed_seconds() * 1e6);
    }
    sum += median(std::move(us));
  }
  return sum;
}

/// Single-layer 512 -> 96 dense, float and calibrated int8, through the
/// forward plan at rows 1/2/4/8 (the micro-batcher's fused batches): the
/// batched int8 dense case.  Prints and returns [{rows, float/int8 p50}].
Json dense_rows_table(std::size_t reps) {
  common::Rng rng(53);
  nn::Model model("dense_512x96", Shape{512});
  model.add(std::make_unique<nn::Dense>(512, 96, rng));
  Tensor calibration = Tensor::random_uniform(Shape{64, 512}, rng, -1.0F, 1.0F);
  nn::Model quantized =
      std::move(compress::quantize_int8(model, calibration).model);
  Tensor input = Tensor::random_uniform(Shape{8, 512}, rng, -1.0F, 1.0F);
  auto p50_us = [&](const nn::Model& served, std::size_t rows) {
    auto plan = runtime::ForwardPlan::plan(served);
    runtime::ForwardPlan::Scratch scratch(*plan);
    const float* in = input.data().data();
    for (int i = 0; i < 20; ++i) plan->run(in, rows, scratch);
    return measure(reps, [&] {
             benchmark::DoNotOptimize(plan->run(in, rows, scratch));
           }).p50_ms * 1e3;
  };
  std::printf("\ndense 512->96 through the forward plan (p50 of %zu):\n",
              reps);
  std::printf("  %4s %10s %10s\n", "rows", "float", "int8");
  JsonArray rows_json;
  for (std::size_t rows : {1, 2, 4, 8}) {
    double float_us = p50_us(model, rows);
    double int8_us = p50_us(quantized, rows);
    std::printf("  %4zu %7.2f us %7.2f us\n", rows, float_us, int8_us);
    rows_json.push_back(Json(JsonObject{{"rows", Json(rows)},
                                        {"float_p50_us", Json(float_us)},
                                        {"int8_p50_us", Json(int8_us)}}));
  }
  return Json(std::move(rows_json));
}

struct WorkloadResult {
  Json json;
  double p50_speedup = 0.0;
  double weight_ratio = 0.0;
  double agreement = 0.0;
  double gemm_share = 0.0;
};

/// Shared measurement tail once a trained float model + probe/calibration
/// tensors exist: quantize, compare storage, agreement, then serve both
/// models single-sample through sessions and compare p50.  `step_reps` > 0
/// adds the per-step tables and gemm_share.
WorkloadResult run_workload(const std::string& name, nn::Model model,
                            const Tensor& calibration, const Tensor& probes,
                            std::size_t reps, std::size_t step_reps = 0) {
  section(name);
  compress::CompressedModel quantized =
      compress::quantize_int8(model, calibration);
  std::size_t float_bytes = model.storage_bytes();
  std::size_t int8_bytes = quantized.storage_bytes;
  double weight_ratio = int8_bytes > 0
                            ? static_cast<double>(float_bytes) /
                                  static_cast<double>(int8_bytes)
                            : 0.0;
  double agreement = top1_agreement(model, quantized.model, probes);

  std::vector<Tensor> singles = slice_singles(probes, 64);
  Json steps(JsonObject{});
  double gemm_us = 0.0;
  if (step_reps > 0) {
    steps.set("float", step_table("float", model, singles[0], step_reps));
    steps.set("int8", step_table("int8", quantized.model, singles[0], step_reps));
    gemm_us = gemm_alone_us(model, step_reps);
  }
  runtime::InferenceSession float_session(
      std::move(model), hwsim::openei_package(), hwsim::raspberry_pi_4());
  runtime::InferenceSession int8_session(std::move(quantized.model),
                                         hwsim::openei_package(),
                                         hwsim::raspberry_pi_4());
  LatencyStats float_stats = measure_single_sample(float_session, singles, reps);
  LatencyStats int8_stats = measure_single_sample(int8_session, singles, reps);
  double p50_speedup =
      int8_stats.p50_ms > 0.0 ? float_stats.p50_ms / int8_stats.p50_ms : 0.0;

  std::printf("%8s %10s %10s %14s %12s\n", "engine", "p50", "p95",
              "ops/sec", "weights");
  std::printf("%8s %10s %10s %14.1f %12s\n", "float",
              format_seconds(float_stats.p50_ms * 1e-3).c_str(),
              format_seconds(float_stats.p95_ms * 1e-3).c_str(),
              float_stats.ops_per_sec, format_bytes(float_bytes).c_str());
  std::printf("%8s %10s %10s %14.1f %12s\n", "int8",
              format_seconds(int8_stats.p50_ms * 1e-3).c_str(),
              format_seconds(int8_stats.p95_ms * 1e-3).c_str(),
              int8_stats.ops_per_sec, format_bytes(int8_bytes).c_str());
  std::printf("p50 speedup %.2fx   weight ratio %.2fx   top-1 agreement "
              "%.1f%% (%zu probes)\n",
              p50_speedup, weight_ratio, agreement * 100.0,
              probes.shape().dim(0));

  WorkloadResult result;
  result.p50_speedup = p50_speedup;
  result.weight_ratio = weight_ratio;
  result.agreement = agreement;
  if (step_reps > 0) {
    result.gemm_share = gemm_us / (float_stats.p50_ms * 1e3);
    std::printf("gemm_share %.2f (gemm_packed alone %.1f us / float p50)\n",
                result.gemm_share, gemm_us);
  }
  result.json = Json(JsonObject{
      {"name", Json(name)},
      {"reps", Json(reps)},
      {"float", stats_to_json(float_stats, float_bytes)},
      {"int8", stats_to_json(int8_stats, int8_bytes)},
      {"p50_speedup", Json(p50_speedup)},
      {"weight_ratio", Json(weight_ratio)},
      {"top1_agreement", Json(agreement)},
      {"agreement_samples", Json(probes.shape().dim(0))},
  });
  if (step_reps > 0) {
    result.json.set("steps", std::move(steps));
    result.json.set("gemm_share", result.gemm_share);
  }
  return result;
}

WorkloadResult run_mlp(const Config& config) {
  common::Rng rng(41);
  auto dataset = data::make_blobs(config.quick ? 300 : 900, 128, 10, rng,
                                  /*separation=*/1.4F, /*stddev=*/1.2F);
  // Edge-typical MLP scale (HAR / keyword-spotting sized hidden layers).
  nn::Model model = nn::zoo::make_mlp("mlp_int8", 128, 10, {256, 256}, rng);
  nn::TrainOptions options;
  options.epochs = config.quick ? 4 : 20;
  options.sgd.learning_rate = 0.05F;
  options.sgd.momentum = 0.9F;
  nn::fit(model, dataset, options);

  Tensor calibration = dataset.slice(0, 128).features;
  common::Rng probe_rng(42);
  Tensor probes =
      data::make_blobs(256, 128, 10, probe_rng, 1.4F, 1.2F).features;
  return run_workload("MLP 128->{256,256}->10", std::move(model), calibration,
                      probes, config.quick ? 50 : 400);
}

WorkloadResult run_cnn(const Config& config) {
  common::Rng rng(43);
  nn::zoo::ImageSpec spec{3, 16, 4};
  auto dataset = data::make_images(config.quick ? 96 : 320, spec.channels,
                                   spec.size, spec.classes, rng);
  nn::Model model = nn::zoo::make_mini_vgg(spec, rng);
  nn::TrainOptions options;
  options.epochs = config.quick ? 1 : 6;
  options.batch_size = 16;
  options.sgd.learning_rate = 0.02F;
  options.sgd.momentum = 0.9F;
  nn::fit(model, dataset, options);

  Tensor calibration = dataset.slice(0, std::min<std::size_t>(
                                            dataset.size(), 128)).features;
  common::Rng probe_rng(44);
  Tensor probes = data::make_images(256, spec.channels, spec.size,
                                    spec.classes, probe_rng)
                      .features;
  return run_workload("mini-VGG 3x16x16->4", std::move(model), calibration,
                      probes, config.quick ? 30 : 200,
                      config.quick ? 300 : 3000);
}

int run(const Config& config) {
  banner(std::string("Int8 engine: float vs quantized execution") +
         (config.quick ? " (quick)" : ""));
  std::printf("threads: %zu\n", common::thread_count());

  WorkloadResult mlp = run_mlp(config);
  WorkloadResult cnn = run_cnn(config);
  section("batched int8 dense");
  Json dense_rows = dense_rows_table(config.quick ? 500 : 5000);

  JsonArray workloads;
  workloads.push_back(std::move(mlp.json));
  workloads.push_back(std::move(cnn.json));

  Json report(JsonObject{
      {"bench", Json("quant")},
      {"quick", Json(config.quick)},
      {"threads", Json(common::thread_count())},
      {"workloads", Json(std::move(workloads))},
      // Worst case across workloads: one threshold check covers both.
      {"p50_speedup", Json(std::min(mlp.p50_speedup, cnn.p50_speedup))},
      {"weight_ratio", Json(std::min(mlp.weight_ratio, cnn.weight_ratio))},
      {"top1_agreement", Json(std::min(mlp.agreement, cnn.agreement))},
      // The fp32 mini-VGG forward's kernel share (E18).
      {"gemm_share", Json(cnn.gemm_share)},
      {"dense_512x96", std::move(dense_rows)},
      // 3 = AVX-512 VNNI; the E13 mini-VGG gate applies only there.
      {"int8_isa_level", Json(tensor::int8_isa_level())},
  });
  // int8-vs-float on the same host is a fair comparison whenever the run
  // used full rep counts.
  set_host_info(report, !config.quick);

  section("summary (min across workloads)");
  std::printf("p50_speedup %.2fx   weight_ratio %.2fx   top1_agreement "
              "%.1f%%\n",
              std::min(mlp.p50_speedup, cnn.p50_speedup),
              std::min(mlp.weight_ratio, cnn.weight_ratio),
              std::min(mlp.agreement, cnn.agreement) * 100.0);

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
      std::fprintf(stderr, "usage: bench_quant [--quick] [--out PATH]\n");
      return 2;
    }
  }
  return openei::bench::run(config);
}
