// Inference and local-training sessions — the execution half of the OpenEI
// package manager (paper Sec. III-B).  A session binds a model to a device
// profile and package; running it produces real predictions from the NN
// engine plus simulated ALEM costs from the hardware model.
#pragma once

#include <memory>
#include <mutex>
#include <span>

#include "common/json.h"
#include "data/dataset.h"
#include "hwsim/cost_model.h"
#include "nn/train.h"
#include "runtime/arena.h"

namespace openei::runtime {

/// Result of a batched inference call.
struct InferenceResult {
  std::vector<std::size_t> predictions;
  /// Simulated per-sample latency/energy on the bound device (batch cost =
  /// per-sample cost x batch size; the simulated edge executes sequentially).
  hwsim::InferenceCost per_sample;
  double batch_latency_s = 0.0;
  double batch_energy_j = 0.0;
  /// Joules actually charged to the device's energy ledger for this
  /// request (EnergyGovernor::charge), prorated per request when a fused
  /// flush charged once for the whole batch.  0 when no governor is wired;
  /// otherwise this is what `sim_energy_mj` trace attributes report, so
  /// traces reconcile exactly against `ei_energy_joules_total`.
  double ledger_energy_j = 0.0;
};

class InferenceSession {
 public:
  /// Throws ResourceExhausted when the model does not fit the device's RAM
  /// under the package — the deployment failure mode the model selector's
  /// memory constraint exists to avoid — and InvalidArgument when the model
  /// has no flat logit output, so the forward arena cannot serve it.
  InferenceSession(nn::Model model, hwsim::PackageSpec package,
                   hwsim::DeviceProfile device);

  /// Runs real inference; costs are simulated for the bound device.
  InferenceResult run(const nn::Tensor& batch);

  /// Same as run() over raw row-major floats ([rows * input_elems]) — the
  /// steady-state serving path: no Tensor is ever constructed, so a warm
  /// request performs zero tensor heap allocations.
  InferenceResult run_rows(const float* rows_data, std::size_t rows);

  /// Batched inference: fuses independent row-batches into one forward pass
  /// and slices the results back per request, so result i is bit-identical
  /// to run(requests[i]).  A model with dynamic-range int8 layers picks its
  /// activation range per pass, so its requests run as separate passes.
  /// All requests must match the model's sample shape.
  std::vector<InferenceResult> predict_batch(
      const std::vector<nn::Tensor>& requests);

  const nn::Model& model() const { return model_; }
  const hwsim::PackageSpec& package() const { return package_; }
  const hwsim::DeviceProfile& device() const { return device_; }
  const hwsim::InferenceCost& per_sample_cost() const { return per_sample_; }

 private:
  /// One request's rows: [rows * input_elems] row-major floats.
  struct Rows {
    const float* data;
    std::size_t count;
  };
  /// A forward arena plus the staging a fused pass needs.  One caller holds
  /// it for the length of a pass.
  struct ArenaSlot {
    std::unique_ptr<ForwardArena> arena;
    std::vector<float> fused_staging;
    std::vector<std::size_t> pred_staging;
  };

  /// The session's one forward path: runs the requests on an idle arena and
  /// writes each request's argmax into the matching results[i].predictions
  /// (pre-sized).  A session has concurrent callers on the served path —
  /// every /ei_stream worker on the model beside the MicroBatcher's flush
  /// thread — so a caller that finds every arena busy plans another rather
  /// than wait: the pool grows to the peak number of concurrent callers,
  /// and steady state allocates nothing.
  void predict_rows(std::span<const Rows> requests,
                    std::span<InferenceResult> results);
  std::unique_ptr<ArenaSlot> plan_slot();
  /// A result with `rows` predictions slots and the simulated batch cost.
  InferenceResult priced(std::size_t rows) const;

  nn::Model model_;
  hwsim::PackageSpec package_;
  hwsim::DeviceProfile device_;
  hwsim::InferenceCost per_sample_;
  std::size_t input_elems_ = 0;
  bool dynamic_ranges_ = false;
  // Behind a unique_ptr so the session stays movable (mutexes are not).
  std::unique_ptr<std::mutex> slots_mutex_;
  std::vector<std::unique_ptr<ArenaSlot>> idle_slots_;
};

/// On-device transfer learning: retrains the model's final dense head (all
/// other parameters frozen) on locally collected data — the paper's Fig. 3
/// dataflow 3 ("training on the edge locally ... a personalized model").
struct LocalTrainingResult {
  nn::Model model;
  double simulated_latency_s = 0.0;
  double simulated_energy_j = 0.0;
  double final_train_accuracy = 0.0;
};

LocalTrainingResult retrain_head_locally(const nn::Model& model,
                                         const data::Dataset& local_data,
                                         const hwsim::PackageSpec& package,
                                         const hwsim::DeviceProfile& device,
                                         const nn::TrainOptions& options);

/// Converts JSON inference rows ([[...],[...]] or a single flat [...]) to a
/// batch tensor matching `sample_shape`.  Shared by libei's algorithm route
/// and the degrading cloud-edge path (both accept the same wire format).
/// Throws ParseError on shape mismatch or empty input.
nn::Tensor rows_to_batch(const common::Json& input,
                         const tensor::Shape& sample_shape);

/// Allocation-free variant: decodes the same wire format into a grow-only
/// caller buffer (resized only when it must grow) and returns the row
/// count.  libei's hot path pairs this with InferenceSession::run_rows so a
/// warm /ei_algorithms request touches no tensor heap at all.
std::size_t rows_to_floats(const common::Json& input,
                           const tensor::Shape& sample_shape,
                           std::vector<float>& out);

}  // namespace openei::runtime
