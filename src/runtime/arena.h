// Zero-allocation forward arena (paper Sec. IV-B: edge packages win latency
// partly by avoiding per-inference allocation and dispatch overhead).
//
// ForwardArena::plan walks a model once at session construction, sizes every
// forward-pass buffer (layer outputs, im2col patches, int8 staging), and
// compiles the layer graph into a flat list of steps over those buffers.
// Steady-state run()/predict() then performs zero heap allocations: buffers
// are 64-byte-aligned grow-only vectors reused across calls, and every step
// replicates the corresponding layer's per-element arithmetic exactly, so
// arena output is bit-identical to Model::forward at any thread count.
//
// Every rank-3 activation in the arena is channels-last (NHWC): load()
// transposes the NCHW input once, a conv's GEMM output [pixels, out_c] feeds
// the next layer as is, and Flatten transposes back to CHW feature order.
//
// The arena is the only inference executor: InferenceSession refuses a model
// it cannot plan, and Model::forward serves training and tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/aligned.h"
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

  /// One planned step and its median wall time.
  struct StepTime {
    std::string label;  // e.g. "conv2d[1] [16, 16, 16] -> [16, 16, 16] k3 +relu"
    double median_us = 0.0;
  };
  /// Runs `reps` forward passes over `rows` samples, timing every step, and
  /// returns one entry per planned step in execution order.  Leaves the
  /// same logits as run() in the buffer run() returns.
  std::vector<StepTime> profile(const float* input, std::size_t rows,
                                std::size_t reps);

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
    common::aligned_vector<float> data;
  };
  struct QuantBuf {  // int8 activations in the GEMM's biased encoding
    std::size_t per_row = 0;
    common::aligned_vector<std::uint8_t> data;
  };
  /// One compiled layer step; reads/writes arena buffers by index.
  using StepFn = std::function<void(ForwardArena&, std::size_t rows)>;

  /// Grows the buffers to `rows` and loads `input` into the input buffer.
  void load(const float* input, std::size_t rows);
  std::size_t new_fbuf(std::size_t per_row);
  std::size_t new_qbuf(std::size_t per_row);
  float* fptr(std::size_t idx) { return fbufs_[idx].data.data(); }
  std::uint8_t* qptr(std::size_t idx) { return qbufs_[idx].data.data(); }

  /// Plans layers[i..] sequentially, applying the ReLU-fusion peephole for
  /// GEMM-backed layers (float and quantized).  Updates `sample` (per-sample
  /// shape) and `cur` (current buffer).  Returns false on the first
  /// unsupported layer.
  bool plan_chain(const std::vector<nn::Layer*>& layers, tensor::Shape& sample,
                  std::size_t& cur);
  /// Plans one layer; `next` (may be null) enables the fused-ReLU peephole —
  /// when taken, *fused_next is set and the caller skips `next`.  Labels the
  /// layer's steps that nested layers (a residual body) did not label.
  std::optional<std::size_t> plan_layer(nn::Layer& layer, tensor::Shape& sample,
                                        std::size_t in_buf, nn::Layer* next,
                                        bool* fused_next);
  std::optional<std::size_t> plan_steps(nn::Layer& layer,
                                        const tensor::Shape& sample,
                                        const tensor::Shape& out_shape,
                                        std::size_t in_buf, nn::Layer* next,
                                        bool* fused_next);
  /// Shared float-conv planner (Conv2d and both halves of FactoredConv2d):
  /// channels-last im2col (none for a 1x1 stride-1 unpadded conv) into the
  /// GEMM with the weights packed at plan time; `fuse_relu` folds a
  /// following ReLU into the GEMM epilogue.
  std::size_t plan_conv(const nn::Conv2d& conv, const tensor::Shape& in_sample,
                        std::size_t in_buf, bool fuse_relu);

  std::vector<FloatBuf> fbufs_;
  std::vector<QuantBuf> qbufs_;
  std::vector<StepFn> steps_;
  std::vector<std::string> labels_;              // one per step
  std::map<std::string, std::size_t> ordinals_;  // plan time: layers per type
  std::size_t input_elems_ = 0;
  // H*W of an image input, which load() turns NHWC; 1 (a plain copy) else.
  std::size_t input_pixels_ = 1;
  std::size_t output_per_row_ = 0;
  std::size_t in_buf_ = 0;
  std::size_t out_buf_ = 0;
  std::size_t capacity_rows_ = 0;
  bool dynamic_ranges_ = false;
};

}  // namespace openei::runtime
