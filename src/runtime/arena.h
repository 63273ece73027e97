// Zero-allocation forward plan (paper Sec. IV-B: edge packages win latency
// partly by avoiding per-inference allocation and dispatch overhead).
//
// ForwardPlan::plan walks a model once, sizes every buffer per sample,
// prepacks the fp32 weights and compiles the layers into a flat list of
// steps.  The plan is immutable and its passes const; each concurrent caller
// brings a Scratch holding only the buffers (aligned, grow-only: a warm pass
// allocates nothing), so a second caller never re-plans or re-packs.  Every
// step replicates its layer's arithmetic exactly: output is bit-identical to
// Model::forward at any thread count.
//
// Every rank-3 activation in a pass is channels-last (NHWC): the input load
// transposes the NCHW input once, a conv's GEMM output [pixels, out_c] feeds
// the next layer as is, and Flatten transposes back to CHW feature order.
//
// The plan is the only inference executor: InferenceSession refuses a model
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

class ForwardPlan {
 public:
  /// One caller's activation and int8 staging buffers for one plan, which
  /// must outlive it; it serves one pass at a time.
  class Scratch {
   public:
    explicit Scratch(const ForwardPlan& plan);
    /// Grows every buffer to `rows` samples; smaller passes then allocate
    /// nothing.
    void reserve(std::size_t rows);

   private:
    friend class ForwardPlan;
    float* f(std::size_t idx) { return floats_[idx].data(); }
    std::uint8_t* q(std::size_t idx) { return quants_[idx].data(); }

    const ForwardPlan* plan_;
    std::vector<common::aligned_vector<float>> floats_;
    std::vector<common::aligned_vector<std::uint8_t>> quants_;
    std::size_t capacity_rows_ = 0;
  };

  /// Plans `model`, which must outlive the plan and keep its weights fixed
  /// (steps point into its layers).  Returns nullptr when any layer is
  /// unsupported or the model output is not a flat logit vector.
  static std::unique_ptr<const ForwardPlan> plan(const nn::Model& model);

  ForwardPlan(const ForwardPlan&) = delete;
  ForwardPlan& operator=(const ForwardPlan&) = delete;

  /// Forward pass over `rows` samples ([rows * input_elems()] floats,
  /// row-major) in `scratch`.  Returns the logits ([rows, classes()]),
  /// valid until the scratch's next pass.
  const float* run(const float* input, std::size_t rows,
                   Scratch& scratch) const;

  /// run(), then argmax() of its logits into `out` (size `rows`).
  void predict(const float* input, std::size_t rows, std::size_t* out,
               Scratch& scratch) const;
  /// Argmax of each of `rows` logit rows into `out`; matches Model::predict
  /// exactly (first maximum wins).
  void argmax(const float* logits, std::size_t rows, std::size_t* out) const;

  /// One planned step and its median wall time.
  struct StepTime {
    std::string label;  // e.g. "conv2d[1] [16, 16, 16] -> [16, 16, 16] k3 +relu"
    double median_us = 0.0;
  };
  /// Runs `reps` forward passes over `rows` samples, timing every step, and
  /// returns one entry per planned step in execution order.  Leaves the
  /// same logits in `scratch` as run().
  std::vector<StepTime> profile(const float* input, std::size_t rows,
                                std::size_t reps, Scratch& scratch) const;

  std::size_t input_elems() const { return input_elems_; }
  std::size_t classes() const { return output_per_row_; }
  /// True when some int8 layer has no calibrated input params and so fits
  /// its activation range to each pass: rows fused into one pass can then
  /// change each other's answers.
  bool dynamic_ranges() const { return dynamic_ranges_; }

 private:
  ForwardPlan() = default;

  /// One compiled layer step; reads/writes scratch buffers by index.
  using StepFn = std::function<void(Scratch&, std::size_t rows)>;

  /// Grows `scratch` to `rows` and loads `input` into the input buffer.
  void load(const float* input, std::size_t rows, Scratch& scratch) const;
  std::size_t new_fbuf(std::size_t per_row);
  std::size_t new_qbuf(std::size_t per_row);

  /// Plans layers[i..] sequentially, applying the ReLU-fusion peephole for
  /// GEMM-backed layers (float and quantized).  Updates `sample` (per-sample
  /// shape) and `cur` (current buffer).  Returns false on the first
  /// unsupported layer.
  bool plan_chain(const std::vector<nn::LayerPtr>& layers,
                  tensor::Shape& sample, std::size_t& cur);
  /// Plans one layer; `next` (may be null) enables the fused-ReLU peephole —
  /// when taken, *fused_next is set and the caller skips `next`.  Labels the
  /// layer's steps that nested layers (a residual body) did not label.
  std::optional<std::size_t> plan_layer(const nn::Layer& layer,
                                        tensor::Shape& sample,
                                        std::size_t in_buf,
                                        const nn::Layer* next,
                                        bool* fused_next);
  std::optional<std::size_t> plan_steps(const nn::Layer& layer,
                                        const tensor::Shape& sample,
                                        const tensor::Shape& out_shape,
                                        std::size_t in_buf,
                                        const nn::Layer* next,
                                        bool* fused_next);
  /// Shared float-conv planner (Conv2d and both halves of FactoredConv2d):
  /// channels-last im2col (none for a 1x1 stride-1 unpadded conv) into the
  /// GEMM with the weights packed at plan time; `fuse_relu` folds a
  /// following ReLU into the GEMM epilogue.
  std::size_t plan_conv(const nn::Conv2d& conv, const tensor::Shape& in_sample,
                        std::size_t in_buf, bool fuse_relu);

  std::vector<std::size_t> float_per_row_;  // per-sample floats, per buffer
  std::vector<std::size_t> quant_per_row_;  // per-sample bytes, per buffer
  std::vector<StepFn> steps_;
  std::vector<std::string> labels_;              // one per step
  std::map<std::string, std::size_t> ordinals_;  // plan time: layers per type
  std::size_t input_elems_ = 0;
  // H*W of an image input, which load() turns NHWC; 1 (a plain copy) else.
  std::size_t input_pixels_ = 1;
  std::size_t output_per_row_ = 0;
  std::size_t in_buf_ = 0;
  std::size_t out_buf_ = 0;
  bool dynamic_ranges_ = false;
};

}  // namespace openei::runtime
