// Zero-allocation forward arena (paper Sec. IV-B: edge packages win latency
// partly by avoiding per-inference allocation and dispatch overhead).
//
// ForwardArena::plan walks a model once at session construction, sizes every
// forward-pass buffer (layer outputs, im2col patches, int8 staging), and
// compiles the layer graph into a flat list of steps over those buffers.
// Steady-state run()/predict() then performs zero heap allocations: buffers
// are plain grow-only vectors reused across calls, and every step replicates
// the corresponding layer's per-element arithmetic exactly, so arena output
// is bit-identical to Model::forward at any thread count.
//
// The arena is the only inference executor: InferenceSession refuses a model
// it cannot plan, and Model::forward serves training and tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "nn/model.h"

namespace openei::nn {
class Conv2d;
}  // namespace openei::nn

namespace openei::runtime {

class ForwardArena {
 public:
  /// Plans a zero-alloc executor over `model`'s layers.  The arena captures
  /// pointers into the model's layers, so the model must outlive the arena
  /// and keep its weights fixed (layer addresses are stable across Model
  /// moves — layers are unique_ptr-owned).  Returns nullptr when any layer
  /// is unsupported or the model output is not a flat logit vector.
  static std::unique_ptr<ForwardArena> plan(nn::Model& model);

  ForwardArena(const ForwardArena&) = delete;
  ForwardArena& operator=(const ForwardArena&) = delete;

  /// Grows every buffer to cover `rows` samples.  Calling this up front
  /// makes subsequent run()/predict() calls with <= rows allocation-free.
  void reserve(std::size_t rows);

  /// Forward pass over `rows` samples ([rows * input_elems()] floats,
  /// row-major).  Returns the logits buffer ([rows, classes()]), valid until
  /// the next run/reserve call.
  const float* run(const float* input, std::size_t rows);

  /// Argmax predictions into `out` (size `rows`); matches Model::predict
  /// exactly (first maximum wins).
  void predict(const float* input, std::size_t rows, std::size_t* out);

  std::size_t input_elems() const { return input_elems_; }
  std::size_t classes() const { return output_per_row_; }
  /// True when some int8 layer has no calibrated input params and so fits
  /// its activation range to each pass: rows fused into one pass can then
  /// change each other's answers.
  bool dynamic_ranges() const { return dynamic_ranges_; }

 private:
  ForwardArena() = default;

  struct FloatBuf {
    std::size_t per_row = 0;
    std::vector<float> data;
  };
  struct QuantBuf {
    std::size_t per_row = 0;
    std::vector<std::int8_t> data;
  };
  /// One compiled layer step; reads/writes arena buffers by index.
  using StepFn = std::function<void(ForwardArena&, std::size_t rows)>;

  std::size_t new_fbuf(std::size_t per_row);
  std::size_t new_qbuf(std::size_t per_row);
  float* fptr(std::size_t idx) { return fbufs_[idx].data.data(); }
  std::int8_t* qptr(std::size_t idx) { return qbufs_[idx].data.data(); }

  /// Plans layers[i..] sequentially, applying the ReLU-fusion peephole for
  /// GEMM-backed layers (float and quantized).  Updates `sample` (per-sample
  /// shape) and `cur` (current buffer).  Returns false on the first
  /// unsupported layer.
  bool plan_chain(const std::vector<nn::Layer*>& layers, tensor::Shape& sample,
                  std::size_t& cur);
  /// Plans one layer; `next` (may be null) enables the fused-ReLU peephole —
  /// when taken, *fused_next is set and the caller skips `next`.
  std::optional<std::size_t> plan_layer(nn::Layer& layer, tensor::Shape& sample,
                                        std::size_t in_buf, nn::Layer* next,
                                        bool* fused_next);
  /// Shared float-conv planner (Conv2d and both halves of FactoredConv2d).
  /// Prepacks the im2col weight matrix at plan time; `fuse_relu` folds a
  /// following ReLU into the GEMM epilogue (applied before the NCHW scatter,
  /// which is a pure reorder — same values as ReLU after it).
  std::size_t plan_conv(const nn::Conv2d& conv, const tensor::Shape& in_sample,
                        std::size_t in_buf, bool fuse_relu);

  std::vector<FloatBuf> fbufs_;
  std::vector<QuantBuf> qbufs_;
  std::vector<StepFn> steps_;
  std::size_t input_elems_ = 0;
  std::size_t output_per_row_ = 0;
  std::size_t in_buf_ = 0;
  std::size_t out_buf_ = 0;
  std::size_t capacity_rows_ = 0;
  bool dynamic_ranges_ = false;
};

}  // namespace openei::runtime
