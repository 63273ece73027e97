#include "runtime/arena.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "common/error.h"
#include "common/parallel.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/factored_conv.h"
#include "nn/residual.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"
#include "tensor/pack.h"
#include "tensor/quantize.h"

namespace openei::runtime {

std::size_t ForwardPlan::new_fbuf(std::size_t per_row) {
  float_per_row_.push_back(per_row);
  return float_per_row_.size() - 1;
}

std::size_t ForwardPlan::new_qbuf(std::size_t per_row) {
  quant_per_row_.push_back(per_row);
  return quant_per_row_.size() - 1;
}

std::unique_ptr<const ForwardPlan> ForwardPlan::plan(const nn::Model& model) {
  std::unique_ptr<ForwardPlan> plan(new ForwardPlan());
  tensor::Shape sample = model.input_shape();
  plan->input_elems_ = sample.elements();
  if (sample.rank() == 3) plan->input_pixels_ = sample.dim(1) * sample.dim(2);
  plan->in_buf_ = plan->new_fbuf(plan->input_elems_);

  std::size_t cur = plan->in_buf_;
  if (!plan->plan_chain(model.layers(), sample, cur)) return nullptr;
  // predict needs [N, classes] logits — reject models with structured output.
  if (sample.rank() != 1) return nullptr;
  plan->out_buf_ = cur;
  plan->output_per_row_ = sample.elements();
  return plan;
}

bool ForwardPlan::plan_chain(const std::vector<nn::LayerPtr>& layers,
                             tensor::Shape& sample, std::size_t& cur) {
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const nn::Layer* next =
        i + 1 < layers.size() ? layers[i + 1].get() : nullptr;
    bool fused_next = false;
    auto out = plan_layer(*layers[i], sample, cur, next, &fused_next);
    if (!out) return false;
    cur = *out;
    if (fused_next) ++i;  // the ReLU was folded into this layer's epilogue
  }
  return true;
}

std::size_t ForwardPlan::plan_conv(const nn::Conv2d& conv,
                                   const tensor::Shape& in_sample,
                                   std::size_t in_buf, bool fuse_relu) {
  const tensor::Conv2dSpec spec = conv.spec();
  std::size_t in_h = in_sample.dim(1);
  std::size_t in_w = in_sample.dim(2);
  std::size_t pixels = spec.out_size(in_h) * spec.out_size(in_w);
  std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  // A 1x1, stride-1, unpadded conv's NHWC input already is its patch matrix.
  bool direct = spec.kernel == 1 && spec.stride == 1 && spec.padding == 0;
  std::size_t patch_buf = direct ? in_buf : new_fbuf(pixels * patch);
  std::size_t out_buf = new_fbuf(pixels * spec.out_channels);

  // The GEMM writes [rows*pixels, oc]: already the NHWC output.
  steps_.push_back([cp = &conv, spec, in_buf, patch_buf, out_buf, in_h, in_w,
                    pixels, direct, fuse_relu,
                    wp = tensor::pack_conv_weights(conv.weights())](
                       Scratch& s, std::size_t rows) {
    float* patches = s.f(patch_buf);
    if (!direct) {
      tensor::im2col_nhwc_into(s.f(in_buf), rows, in_h, in_w, spec, patches);
    }
    tensor::gemm_packed(patches, rows * pixels, wp, cp->bias().data().data(),
                        fuse_relu, /*accumulate=*/false, s.f(out_buf));
  });
  return out_buf;
}

std::optional<std::size_t> ForwardPlan::plan_layer(const nn::Layer& layer,
                                                   tensor::Shape& sample,
                                                   std::size_t in_buf,
                                                   const nn::Layer* next,
                                                   bool* fused_next) {
  tensor::Shape out_shape = layer.output_shape(sample);  // validates
  auto out = plan_steps(layer, sample, out_shape, in_buf, next, fused_next);
  if (!out) return out;
  std::string label = layer.type() + "[" +
                      std::to_string(ordinals_[layer.type()]++) + "] " +
                      sample.to_string() + " -> " + out_shape.to_string();
  const common::Json config = layer.config();
  if (const common::Json* k = config.find("kernel")) {
    label += " k" + std::to_string(k->as_int());
  }
  if (*fused_next) label += " +relu";
  labels_.resize(steps_.size(), label);
  sample = out_shape;
  return out;
}

std::optional<std::size_t> ForwardPlan::plan_steps(
    const nn::Layer& layer, const tensor::Shape& sample,
    const tensor::Shape& out_shape, std::size_t in_buf, const nn::Layer* next,
    bool* fused_next) {
  // A ReLU right after a GEMM-backed layer folds into its epilogue; such a
  // layer sets *fused_next so the caller skips the ReLU.
  const bool fuse =
      next != nullptr && dynamic_cast<const nn::Relu*>(next) != nullptr;
  // --- dense family ------------------------------------------------------
  if (auto* d = dynamic_cast<const nn::Dense*>(&layer)) {
    std::size_t out_buf = new_fbuf(d->out_features());
    *fused_next = fuse;
    // Prepack [in, out] weights once at plan time; the step runs the
    // dispatched microkernels with bias (and a following ReLU) fused into
    // the epilogue.
    steps_.push_back([d, in_buf, out_buf, fuse,
                      wp = tensor::PackedMatrix::pack(d->weights())](
                         Scratch& s, std::size_t rows) {
      tensor::gemm_packed(s.f(in_buf), rows, wp, d->bias().data().data(),
                          fuse, /*accumulate=*/false, s.f(out_buf));
    });
    return out_buf;
  }

  if (auto* qd = dynamic_cast<const nn::QuantizedDense*>(&layer)) {
    std::size_t staging = new_qbuf(tensor::qgemm_row_bytes(qd->in_features()));
    std::size_t out_buf = new_fbuf(qd->out_features());
    *fused_next = fuse;
    dynamic_ranges_ |= !qd->input_params().has_value();
    steps_.push_back([qd, in_buf, staging, out_buf, fuse](Scratch& s,
                                                          std::size_t rows) {
      qd->forward_into(s.f(in_buf), rows, s.q(staging), fuse, s.f(out_buf));
    });
    return out_buf;
  }

  if (auto* fd = dynamic_cast<const nn::FactoredDense*>(&layer)) {
    std::size_t mid_buf = new_fbuf(fd->rank());
    std::size_t out_buf = new_fbuf(fd->v().shape().dim(1));
    *fused_next = fuse;
    // Both low-rank factors prepacked at plan time; bias/ReLU fuse into the
    // second GEMM's epilogue.
    steps_.push_back([fd, in_buf, mid_buf, out_buf, fuse,
                      up = tensor::PackedMatrix::pack(fd->u()),
                      vp = tensor::PackedMatrix::pack(fd->v())](
                         Scratch& s, std::size_t rows) {
      float* mid = s.f(mid_buf);
      tensor::gemm_packed(s.f(in_buf), rows, up, nullptr,
                          /*fuse_relu=*/false, /*accumulate=*/false, mid);
      tensor::gemm_packed(mid, rows, vp, fd->bias().data().data(), fuse,
                          /*accumulate=*/false, s.f(out_buf));
    });
    return out_buf;
  }

  // --- convolution family -------------------------------------------------
  if (auto* qc = dynamic_cast<const nn::QuantizedConv2d*>(&layer)) {
    std::size_t in_h = sample.dim(1);
    std::size_t in_w = sample.dim(2);
    std::size_t pixels = out_shape.dim(1) * out_shape.dim(2);
    std::size_t q_in = new_qbuf(sample.elements());
    std::size_t q_patch = new_qbuf(pixels * qc->patch_row_bytes());
    std::size_t out_buf = new_fbuf(out_shape.elements());
    *fused_next = fuse;
    dynamic_ranges_ |= !qc->input_params().has_value();
    steps_.push_back([qc, in_buf, q_in, q_patch, out_buf, in_h, in_w, fuse](
                         Scratch& s, std::size_t rows) {
      qc->forward_into(s.f(in_buf), rows, in_h, in_w, s.q(q_in), s.q(q_patch),
                       fuse, s.f(out_buf));
    });
    return out_buf;
  }

  if (auto* c = dynamic_cast<const nn::Conv2d*>(&layer)) {
    *fused_next = fuse;
    return plan_conv(*c, sample, in_buf, fuse);
  }

  if (auto* fc = dynamic_cast<const nn::FactoredConv2d*>(&layer)) {
    tensor::Shape mid_shape = fc->basis().output_shape(sample);
    *fused_next = fuse;
    std::size_t mid_buf = plan_conv(fc->basis(), sample, in_buf, false);
    return plan_conv(fc->mixer(), mid_shape, mid_buf, fuse);
  }

  if (auto* dw = dynamic_cast<const nn::DepthwiseConv2d*>(&layer)) {
    std::size_t in_h = sample.dim(1);
    std::size_t in_w = sample.dim(2);
    std::size_t out_buf = new_fbuf(out_shape.elements());
    steps_.push_back([dw, in_buf, out_buf, in_h, in_w](Scratch& s,
                                                       std::size_t rows) {
      tensor::depthwise_nhwc_into(s.f(in_buf), rows, in_h, in_w,
                                  dw->weights().data().data(),
                                  dw->bias().data().data(), dw->spec(),
                                  s.f(out_buf));
    });
    return out_buf;
  }

  // --- pooling ------------------------------------------------------------
  auto* mp = dynamic_cast<const nn::MaxPool2d*>(&layer);
  auto* ap = dynamic_cast<const nn::AvgPool2d*>(&layer);
  if (mp != nullptr || ap != nullptr) {
    std::size_t window = mp != nullptr ? mp->window() : ap->window();
    std::size_t channels = sample.dim(0);
    std::size_t h = sample.dim(1);
    std::size_t w = sample.dim(2);
    std::size_t out_buf = new_fbuf(out_shape.elements());
    bool max = mp != nullptr;
    steps_.push_back([in_buf, out_buf, window, channels, h, w, max](
                         Scratch& s, std::size_t rows) {
      tensor::pool_nhwc_into(s.f(in_buf), rows, h, w, channels, window, max,
                             s.f(out_buf));
    });
    return out_buf;
  }

  if (dynamic_cast<const nn::GlobalAvgPool*>(&layer) != nullptr) {
    std::size_t channels = sample.dim(0);
    std::size_t pixels = sample.dim(1) * sample.dim(2);
    std::size_t out_buf = new_fbuf(channels);
    steps_.push_back([in_buf, out_buf, channels, pixels](Scratch& s,
                                                         std::size_t rows) {
      tensor::global_avgpool_nhwc_into(s.f(in_buf), rows, pixels, channels,
                                       s.f(out_buf));
    });
    return out_buf;
  }

  // --- normalization ------------------------------------------------------
  if (auto* bn = dynamic_cast<const nn::BatchNorm*>(&layer)) {
    std::size_t features = bn->features();
    std::size_t elems = sample.elements();
    // Precompute inv_std from the running stats with the layer's exact
    // expression; inference statistics are fixed, so once is enough.
    const float* var = bn->running_var().data().data();
    std::vector<float> inv_std(features);
    for (std::size_t f = 0; f < features; ++f) {
      inv_std[f] = 1.0F / std::sqrt(var[f] + bn->epsilon());
    }
    const float* mean = bn->running_mean().data().data();
    const float* gamma = bn->gamma().data().data();
    const float* beta = bn->beta().data().data();
    std::size_t out_buf = new_fbuf(elems);
    steps_.push_back([in_buf, out_buf, features, elems, mean, gamma, beta,
                      inv_std = std::move(inv_std)](Scratch& s,
                                                    std::size_t rows) {
      const float* x = s.f(in_buf);
      float* o = s.f(out_buf);
      common::parallel_for(
          0, rows * elems,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              std::size_t f = i % features;  // channels-last, or a flat vector
              float nh = (x[i] - mean[f]) * inv_std[f];
              o[i] = gamma[f] * nh + beta[f];
            }
          },
          common::kForkScalarOps);
    });
    return out_buf;
  }

  // --- structure ----------------------------------------------------------
  if (auto* res = dynamic_cast<const nn::ResidualBlock*>(&layer)) {
    tensor::Shape body_shape = sample;
    std::size_t body_buf = in_buf;
    if (!plan_chain(res->body(), body_shape, body_buf)) return std::nullopt;

    std::size_t shortcut_buf = in_buf;
    if (const nn::Layer* proj = res->projection()) {
      tensor::Shape proj_shape = sample;
      bool dummy = false;
      auto proj_out = plan_layer(*proj, proj_shape, in_buf, nullptr, &dummy);
      if (!proj_out) return std::nullopt;
      shortcut_buf = *proj_out;
    }
    std::size_t elems = out_shape.elements();
    std::size_t out_buf = new_fbuf(elems);
    steps_.push_back([body_buf, shortcut_buf, out_buf, elems](
                         Scratch& s, std::size_t rows) {
      const float* b = s.f(body_buf);
      const float* sc = s.f(shortcut_buf);
      float* o = s.f(out_buf);
      common::parallel_for(
          0, rows * elems,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) o[i] = b[i] + sc[i];
          },
          common::kForkScalarOps);
    });
    return out_buf;
  }

  // --- elementwise / shape ------------------------------------------------
  auto elementwise = [&](auto f) -> std::optional<std::size_t> {
    std::size_t elems = sample.elements();
    std::size_t out_buf = new_fbuf(elems);
    steps_.push_back([in_buf, out_buf, elems, f](Scratch& s,
                                                 std::size_t rows) {
      const float* in = s.f(in_buf);
      float* o = s.f(out_buf);
      common::parallel_for(
          0, rows * elems,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) o[i] = f(in[i]);
          },
          common::kForkScalarOps);
    });
    return out_buf;
  };
  if (dynamic_cast<const nn::Relu*>(&layer) != nullptr) {
    return elementwise([](float v) { return v > 0.0F ? v : 0.0F; });
  }
  if (dynamic_cast<const nn::Sigmoid*>(&layer) != nullptr) {
    return elementwise([](float v) { return 1.0F / (1.0F + std::exp(-v)); });
  }
  if (dynamic_cast<const nn::Tanh*>(&layer) != nullptr) {
    return elementwise([](float v) { return std::tanh(v); });
  }

  if (dynamic_cast<const nn::Flatten*>(&layer) != nullptr) {
    if (sample.rank() != 3) return in_buf;  // same flat data, new shape
    // Channels-last back to CHW, the feature order Model::forward gives the
    // dense layers.
    std::size_t channels = sample.dim(0);
    std::size_t pixels = sample.dim(1) * sample.dim(2);
    std::size_t out_buf = new_fbuf(out_shape.elements());
    steps_.push_back([in_buf, out_buf, channels, pixels](Scratch& s,
                                                         std::size_t rows) {
      tensor::scatter_to_nchw(s.f(in_buf), rows, pixels, channels,
                              s.f(out_buf));
    });
    return out_buf;
  }

  if (dynamic_cast<const nn::Dropout*>(&layer) != nullptr) {
    return in_buf;  // identity at inference
  }

  return std::nullopt;  // unsupported layer: the model cannot be served
}

ForwardPlan::Scratch::Scratch(const ForwardPlan& plan)
    : plan_(&plan),
      floats_(plan.float_per_row_.size()),
      quants_(plan.quant_per_row_.size()) {}

void ForwardPlan::Scratch::reserve(std::size_t rows) {
  if (rows <= capacity_rows_) return;
  for (std::size_t i = 0; i < floats_.size(); ++i) {
    floats_[i].resize(rows * plan_->float_per_row_[i]);
  }
  for (std::size_t i = 0; i < quants_.size(); ++i) {
    quants_[i].resize(rows * plan_->quant_per_row_[i]);
  }
  capacity_rows_ = rows;
}

void ForwardPlan::load(const float* input, std::size_t rows,
                       Scratch& scratch) const {
  OPENEI_CHECK(rows > 0, "forward pass over zero rows");
  OPENEI_CHECK(scratch.plan_ == this, "scratch belongs to another plan");
  scratch.reserve(rows);
  tensor::gather_to_nhwc(input, rows, input_elems_ / input_pixels_,
                         input_pixels_, scratch.f(in_buf_));
}

const float* ForwardPlan::run(const float* input, std::size_t rows,
                              Scratch& scratch) const {
  load(input, rows, scratch);
  for (const StepFn& step : steps_) step(scratch, rows);
  return scratch.f(out_buf_);
}

std::vector<ForwardPlan::StepTime> ForwardPlan::profile(
    const float* input, std::size_t rows, std::size_t reps,
    Scratch& scratch) const {
  OPENEI_CHECK(reps > 0, "forward profile over zero reps");
  std::vector<std::vector<double>> us(steps_.size(), std::vector<double>(reps));
  for (std::size_t r = 0; r < reps; ++r) {
    load(input, rows, scratch);
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      common::Stopwatch watch;
      steps_[i](scratch, rows);
      us[i][r] = watch.elapsed_seconds() * 1e6;
    }
  }
  std::vector<StepTime> times;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    std::nth_element(us[i].begin(), us[i].begin() + reps / 2, us[i].end());
    times.push_back({labels_[i], us[i][reps / 2]});
  }
  return times;
}

void ForwardPlan::predict(const float* input, std::size_t rows,
                          std::size_t* out, Scratch& scratch) const {
  argmax(run(input, rows, scratch), rows, out);
}

void ForwardPlan::argmax(const float* logits, std::size_t rows,
                         std::size_t* out) const {
  std::size_t cols = output_per_row_;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = logits + r * cols;
    std::size_t best = 0;
    for (std::size_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = best;
  }
}

}  // namespace openei::runtime
