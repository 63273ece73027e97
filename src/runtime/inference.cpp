#include "runtime/inference.h"

#include <algorithm>

#include "common/error.h"

namespace openei::runtime {

InferenceSession::InferenceSession(nn::Model model, hwsim::PackageSpec package,
                                   hwsim::DeviceProfile device)
    : model_(std::move(model)),
      package_(std::move(package)),
      device_(std::move(device)) {
  per_sample_ = hwsim::estimate_inference(model_, package_, device_);
  if (per_sample_.memory_bytes > device_.ram_bytes) {
    throw ResourceExhausted(detail::concat(
        "model '", model_.name(), "' needs ", per_sample_.memory_bytes,
        " bytes but device '", device_.name, "' has ", device_.ram_bytes));
  }
  // Pre-plan the first zero-alloc forward arena; single-sample buffers are
  // grown here so a steady-state run(1-row batch) never touches the heap.
  slots_mutex_ = std::make_unique<std::mutex>();
  std::unique_ptr<ArenaSlot> slot = plan_slot();
  input_elems_ = slot->arena->input_elems();
  dynamic_ranges_ = slot->arena->dynamic_ranges();
  idle_slots_.push_back(std::move(slot));
}

std::unique_ptr<InferenceSession::ArenaSlot> InferenceSession::plan_slot() {
  auto slot = std::make_unique<ArenaSlot>();
  slot->arena = ForwardArena::plan(model_);
  if (slot->arena == nullptr) {
    throw InvalidArgument(detail::concat(
        "model '", model_.name(),
        "' does not end in a flat logit vector; a session cannot predict it"));
  }
  slot->arena->reserve(1);
  return slot;
}

InferenceResult InferenceSession::priced(std::size_t rows) const {
  InferenceResult result;
  result.predictions.resize(rows);
  result.per_sample = per_sample_;
  auto n = static_cast<double>(rows);
  result.batch_latency_s = per_sample_.latency_s * n;
  result.batch_energy_j = per_sample_.energy_j * n;
  return result;
}

void InferenceSession::predict_rows(std::span<const Rows> requests,
                                    std::span<InferenceResult> results) {
  std::unique_ptr<ArenaSlot> slot;
  {
    std::lock_guard<std::mutex> lock(*slots_mutex_);
    if (!idle_slots_.empty()) {
      slot = std::move(idle_slots_.back());
      idle_slots_.pop_back();
    }
  }
  if (slot == nullptr) slot = plan_slot();
  ForwardArena& arena = *slot->arena;
  if (requests.size() == 1 || dynamic_ranges_) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      arena.predict(requests[i].data, requests[i].count,
                    results[i].predictions.data());
    }
  } else {
    // Fuse: stage every request's rows into one grow-only buffer and run a
    // single pass — no Tensor construction, so steady state stays alloc-free.
    std::size_t total_rows = 0;
    for (const Rows& request : requests) total_rows += request.count;
    if (slot->fused_staging.size() < total_rows * input_elems_) {
      slot->fused_staging.resize(total_rows * input_elems_);
    }
    if (slot->pred_staging.size() < total_rows) {
      slot->pred_staging.resize(total_rows);
    }
    float* staged = slot->fused_staging.data();
    for (const Rows& request : requests) {
      staged = std::copy_n(request.data, request.count * input_elems_, staged);
    }
    arena.predict(slot->fused_staging.data(), total_rows,
                  slot->pred_staging.data());
    const std::size_t* pred = slot->pred_staging.data();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      std::copy_n(pred, requests[i].count, results[i].predictions.begin());
      pred += requests[i].count;
    }
  }
  // A pass that throws drops its slot; the next caller short of one plans
  // a fresh arena.
  std::lock_guard<std::mutex> lock(*slots_mutex_);
  idle_slots_.push_back(std::move(slot));
}

InferenceResult InferenceSession::run_rows(const float* rows_data,
                                           std::size_t rows) {
  OPENEI_CHECK(rows > 0, "run_rows of zero rows");
  InferenceResult result = priced(rows);
  Rows request{rows_data, rows};
  predict_rows({&request, 1}, {&result, 1});
  return result;
}

InferenceResult InferenceSession::run(const nn::Tensor& batch) {
  std::size_t rows = batch.shape().dim(0);
  OPENEI_CHECK(batch.elements() == rows * input_elems_,
               "batch sample shape does not match model input");
  return run_rows(batch.data().data(), rows);
}

std::vector<InferenceResult> InferenceSession::predict_batch(
    const std::vector<nn::Tensor>& requests) {
  OPENEI_CHECK(!requests.empty(), "predict_batch of zero requests");
  std::vector<Rows> rows;
  std::vector<InferenceResult> results;
  rows.reserve(requests.size());
  results.reserve(requests.size());
  for (const nn::Tensor& request : requests) {
    OPENEI_CHECK(request.shape().rank() >= 2, "request needs a batch dim");
    std::size_t count = request.shape().dim(0);
    OPENEI_CHECK(request.elements() == count * input_elems_,
                 "request sample shape does not match model input");
    rows.push_back(Rows{request.data().data(), count});
    results.push_back(priced(count));
  }
  predict_rows(rows, results);
  return results;
}

LocalTrainingResult retrain_head_locally(const nn::Model& model,
                                         const data::Dataset& local_data,
                                         const hwsim::PackageSpec& package,
                                         const hwsim::DeviceProfile& device,
                                         const nn::TrainOptions& options) {
  OPENEI_CHECK(package.supports_training, "package '", package.name,
               "' cannot train on-device");
  local_data.check();

  LocalTrainingResult result{model.clone(), 0.0, 0.0, 0.0};

  // Freeze everything except the final trainable (dense-like) layer's
  // parameters — transfer learning retrains the head only.
  std::size_t total_params = result.model.parameters().size();
  std::size_t head_params = 0;
  for (std::size_t i = result.model.layer_count(); i-- > 0;) {
    auto& layer = result.model.layer(i);
    std::size_t count = layer.parameters().size();
    if (count > 0) {
      head_params = count;
      break;
    }
  }
  OPENEI_CHECK(head_params > 0, "model has no trainable parameters");

  nn::TrainOptions frozen_options = options;
  frozen_options.frozen_parameters.clear();
  for (std::size_t i = 0; i + head_params < total_params; ++i) {
    frozen_options.frozen_parameters.push_back(i);
  }

  auto history = nn::fit(result.model, local_data, frozen_options);
  result.final_train_accuracy = history.back().train_accuracy;

  hwsim::InferenceCost cost = hwsim::estimate_training(
      result.model, package, device, local_data.size(), options.epochs);
  result.simulated_latency_s = cost.latency_s;
  result.simulated_energy_j = cost.energy_j;
  return result;
}

namespace {

/// Decodes rows into `out` ([rows * sample_elems], already sized); shared
/// by the Tensor and the allocation-free decoders.
void decode_rows(const common::JsonArray& outer, bool nested, std::size_t rows,
                 std::size_t sample_elems, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const common::JsonArray& row = nested ? outer[r].as_array() : outer;
    if (row.size() != sample_elems) {
      throw ParseError("input row has " + std::to_string(row.size()) +
                       " values; model expects " + std::to_string(sample_elems));
    }
    for (std::size_t j = 0; j < sample_elems; ++j) {
      out[r * sample_elems + j] = static_cast<float>(row[j].as_number());
    }
  }
}

}  // namespace

nn::Tensor rows_to_batch(const common::Json& input,
                         const tensor::Shape& sample_shape) {
  const common::JsonArray& outer = input.as_array();
  if (outer.empty()) throw ParseError("empty inference input");

  bool nested = outer[0].is_array();
  std::size_t rows = nested ? outer.size() : 1;
  std::size_t sample_elems = sample_shape.elements();

  std::vector<std::size_t> dims{rows};
  for (std::size_t d : sample_shape.dims()) dims.push_back(d);
  nn::Tensor batch{tensor::Shape(dims)};
  decode_rows(outer, nested, rows, sample_elems, batch.data().data());
  return batch;
}

std::size_t rows_to_floats(const common::Json& input,
                           const tensor::Shape& sample_shape,
                           std::vector<float>& out) {
  const common::JsonArray& outer = input.as_array();
  if (outer.empty()) throw ParseError("empty inference input");

  bool nested = outer[0].is_array();
  std::size_t rows = nested ? outer.size() : 1;
  std::size_t sample_elems = sample_shape.elements();
  if (out.size() < rows * sample_elems) out.resize(rows * sample_elems);
  decode_rows(outer, nested, rows, sample_elems, out.data());
  return rows;
}

}  // namespace openei::runtime
