#include "runtime/arena.h"

#include <algorithm>
#include <cmath>

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

std::size_t ForwardArena::new_fbuf(std::size_t per_row) {
  fbufs_.push_back(FloatBuf{per_row, {}});
  return fbufs_.size() - 1;
}

std::size_t ForwardArena::new_qbuf(std::size_t per_row) {
  qbufs_.push_back(QuantBuf{per_row, {}});
  return qbufs_.size() - 1;
}

std::unique_ptr<ForwardArena> ForwardArena::plan(nn::Model& model) {
  std::unique_ptr<ForwardArena> arena(new ForwardArena());
  arena->input_elems_ = model.input_shape().elements();
  arena->in_buf_ = arena->new_fbuf(arena->input_elems_);

  tensor::Shape sample = model.input_shape();
  std::size_t cur = arena->in_buf_;
  std::vector<nn::Layer*> layers;
  layers.reserve(model.layer_count());
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    layers.push_back(&model.layer(i));
  }
  if (!arena->plan_chain(layers, sample, cur)) return nullptr;
  // predict needs [N, classes] logits — reject models with structured output.
  if (sample.rank() != 1) return nullptr;
  arena->out_buf_ = cur;
  arena->output_per_row_ = sample.elements();
  return arena;
}

bool ForwardArena::plan_chain(const std::vector<nn::Layer*>& layers,
                              tensor::Shape& sample, std::size_t& cur) {
  for (std::size_t i = 0; i < layers.size(); ++i) {
    nn::Layer* next = i + 1 < layers.size() ? layers[i + 1] : nullptr;
    bool fused_next = false;
    auto out = plan_layer(*layers[i], sample, cur, next, &fused_next);
    if (!out) return false;
    cur = *out;
    if (fused_next) ++i;  // the ReLU was folded into this layer's epilogue
  }
  return true;
}

std::size_t ForwardArena::plan_conv(const nn::Conv2d& conv,
                                    const tensor::Shape& in_sample,
                                    std::size_t in_buf, bool fuse_relu) {
  const tensor::Conv2dSpec spec = conv.spec();
  std::size_t in_h = in_sample.dim(1);
  std::size_t in_w = in_sample.dim(2);
  std::size_t oh = spec.out_size(in_h);
  std::size_t ow = spec.out_size(in_w);
  std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  std::size_t oc = spec.out_channels;
  std::size_t patch_buf = new_fbuf(oh * ow * patch);
  std::size_t gemm_buf = new_fbuf(oh * ow * oc);
  std::size_t out_buf = new_fbuf(oc * oh * ow);

  // Plan-time prepack of the [oc, patch] weights into the [patch, oc] panel
  // layout the microkernels consume — the same packing conv2d_im2col builds
  // per call, so the two conv routes stay bitwise-identical.
  tensor::PackedMatrix wp = tensor::PackedMatrix::pack_transposed(
      conv.weights().reshaped(tensor::Shape{oc, patch}));

  const nn::Conv2d* cp = &conv;
  steps_.push_back([cp, spec, in_buf, patch_buf, gemm_buf, out_buf, in_h, in_w,
                    oh, ow, oc, fuse_relu, wp = std::move(wp)](
                       ForwardArena& a, std::size_t rows) {
    const float* in = a.fptr(in_buf);
    float* patches = a.fptr(patch_buf);
    float* gemm_out = a.fptr(gemm_buf);
    float* out = a.fptr(out_buf);
    tensor::im2col_into(in, rows, in_h, in_w, spec, patches);
    std::size_t gemm_rows = rows * oh * ow;
    tensor::gemm_packed(patches, gemm_rows, wp, cp->bias().data().data(),
                        fuse_relu, /*accumulate=*/false, gemm_out);
    tensor::scatter_to_nchw(gemm_out, rows, oh * ow, oc, out);
  });
  return out_buf;
}

std::optional<std::size_t> ForwardArena::plan_layer(nn::Layer& layer,
                                                    tensor::Shape& sample,
                                                    std::size_t in_buf,
                                                    nn::Layer* next,
                                                    bool* fused_next) {
  // --- dense family ------------------------------------------------------
  if (auto* d = dynamic_cast<nn::Dense*>(&layer)) {
    tensor::Shape out_shape = d->output_shape(sample);
    std::size_t out_f = d->out_features();
    std::size_t out_buf = new_fbuf(out_f);
    bool fuse = next != nullptr && dynamic_cast<nn::Relu*>(next) != nullptr;
    if (fuse) *fused_next = true;
    // Prepack [in, out] weights once at plan time; the step runs the
    // dispatched microkernels with bias (and a following ReLU) fused into
    // the epilogue.
    tensor::PackedMatrix wp = tensor::PackedMatrix::pack(d->weights());
    const nn::Dense* p = d;
    steps_.push_back([p, in_buf, out_buf, fuse, wp = std::move(wp)](
                         ForwardArena& a, std::size_t rows) {
      tensor::gemm_packed(a.fptr(in_buf), rows, wp, p->bias().data().data(),
                          fuse, /*accumulate=*/false, a.fptr(out_buf));
    });
    sample = out_shape;
    return out_buf;
  }

  if (auto* qd = dynamic_cast<nn::QuantizedDense*>(&layer)) {
    tensor::Shape out_shape = qd->output_shape(sample);
    std::size_t staging = new_qbuf(qd->in_features());
    std::size_t out_buf = new_fbuf(qd->out_features());
    bool fuse = next != nullptr && dynamic_cast<nn::Relu*>(next) != nullptr;
    if (fuse) *fused_next = true;
    dynamic_ranges_ |= !qd->input_params().has_value();
    const nn::QuantizedDense* p = qd;
    steps_.push_back([p, in_buf, staging, out_buf, fuse](ForwardArena& a,
                                                         std::size_t rows) {
      p->forward_into(a.fptr(in_buf), rows, a.qptr(staging), fuse,
                      a.fptr(out_buf));
    });
    sample = out_shape;
    return out_buf;
  }

  if (auto* fd = dynamic_cast<nn::FactoredDense*>(&layer)) {
    tensor::Shape out_shape = fd->output_shape(sample);
    std::size_t r = fd->rank();
    std::size_t out_f = fd->v().shape().dim(1);
    std::size_t mid_buf = new_fbuf(r);
    std::size_t out_buf = new_fbuf(out_f);
    bool fuse = next != nullptr && dynamic_cast<nn::Relu*>(next) != nullptr;
    if (fuse) *fused_next = true;
    // Both low-rank factors prepacked at plan time; bias/ReLU fuse into the
    // second GEMM's epilogue.
    tensor::PackedMatrix up = tensor::PackedMatrix::pack(fd->u());
    tensor::PackedMatrix vp = tensor::PackedMatrix::pack(fd->v());
    const nn::FactoredDense* p = fd;
    steps_.push_back([p, in_buf, mid_buf, out_buf, fuse, up = std::move(up),
                      vp = std::move(vp)](ForwardArena& a, std::size_t rows) {
      float* mid = a.fptr(mid_buf);
      tensor::gemm_packed(a.fptr(in_buf), rows, up, nullptr,
                          /*fuse_relu=*/false, /*accumulate=*/false, mid);
      tensor::gemm_packed(mid, rows, vp, p->bias().data().data(), fuse,
                          /*accumulate=*/false, a.fptr(out_buf));
    });
    sample = out_shape;
    return out_buf;
  }

  // --- convolution family -------------------------------------------------
  if (auto* qc = dynamic_cast<nn::QuantizedConv2d*>(&layer)) {
    tensor::Shape out_shape = qc->output_shape(sample);
    const tensor::Conv2dSpec& spec = qc->spec();
    std::size_t in_h = sample.dim(1);
    std::size_t in_w = sample.dim(2);
    std::size_t oh = spec.out_size(in_h);
    std::size_t ow = spec.out_size(in_w);
    std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
    std::size_t q_in = new_qbuf(spec.in_channels * in_h * in_w);
    std::size_t q_patch = new_qbuf(oh * ow * patch);
    std::size_t gemm_buf = new_fbuf(oh * ow * spec.out_channels);
    std::size_t out_buf = new_fbuf(spec.out_channels * oh * ow);
    bool fuse = next != nullptr && dynamic_cast<nn::Relu*>(next) != nullptr;
    if (fuse) *fused_next = true;
    dynamic_ranges_ |= !qc->input_params().has_value();
    const nn::QuantizedConv2d* p = qc;
    steps_.push_back([p, in_buf, q_in, q_patch, gemm_buf, out_buf, in_h, in_w,
                      fuse](ForwardArena& a, std::size_t rows) {
      p->forward_into(a.fptr(in_buf), rows, in_h, in_w, a.qptr(q_in),
                      a.qptr(q_patch), a.fptr(gemm_buf), fuse,
                      a.fptr(out_buf));
    });
    sample = out_shape;
    return out_buf;
  }

  if (auto* c = dynamic_cast<nn::Conv2d*>(&layer)) {
    tensor::Shape out_shape = c->output_shape(sample);
    bool fuse = next != nullptr && dynamic_cast<nn::Relu*>(next) != nullptr;
    if (fuse) *fused_next = true;
    std::size_t out_buf = plan_conv(*c, sample, in_buf, fuse);
    sample = out_shape;
    return out_buf;
  }

  if (auto* fc = dynamic_cast<nn::FactoredConv2d*>(&layer)) {
    tensor::Shape out_shape = fc->output_shape(sample);
    tensor::Shape mid_shape = fc->basis().output_shape(sample);
    bool fuse = next != nullptr && dynamic_cast<nn::Relu*>(next) != nullptr;
    if (fuse) *fused_next = true;
    std::size_t mid_buf = plan_conv(fc->basis(), sample, in_buf, false);
    std::size_t out_buf = plan_conv(fc->mixer(), mid_shape, mid_buf, fuse);
    sample = out_shape;
    return out_buf;
  }

  if (auto* dw = dynamic_cast<nn::DepthwiseConv2d*>(&layer)) {
    tensor::Shape out_shape = dw->output_shape(sample);
    const tensor::Conv2dSpec spec = dw->spec();
    std::size_t in_h = sample.dim(1);
    std::size_t in_w = sample.dim(2);
    std::size_t oh = spec.out_size(in_h);
    std::size_t ow = spec.out_size(in_w);
    std::size_t channels = spec.in_channels;
    std::size_t out_buf = new_fbuf(channels * oh * ow);
    const nn::DepthwiseConv2d* p = dw;
    steps_.push_back([p, spec, in_buf, out_buf, in_h, in_w, oh, ow, channels](
                         ForwardArena& a, std::size_t rows) {
      const float* in = a.fptr(in_buf);
      float* out = a.fptr(out_buf);
      const float* w = p->weights().data().data();
      const float* bias = p->bias().data().data();
      common::parallel_for(
          0, rows * channels,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t plane = lo; plane < hi; ++plane) {
              std::size_t b = plane / channels;
              std::size_t ch = plane % channels;
              const float* iplane = in + (b * channels + ch) * in_h * in_w;
              float* oplane = out + (b * channels + ch) * oh * ow;
              for (std::size_t y = 0; y < oh; ++y) {
                for (std::size_t x = 0; x < ow; ++x) {
                  double acc = bias[ch];
                  for (std::size_t kh = 0; kh < spec.kernel; ++kh) {
                    for (std::size_t kw = 0; kw < spec.kernel; ++kw) {
                      long ih = static_cast<long>(y * spec.stride + kh) -
                                static_cast<long>(spec.padding);
                      long iw = static_cast<long>(x * spec.stride + kw) -
                                static_cast<long>(spec.padding);
                      bool inside = ih >= 0 && iw >= 0 &&
                                    static_cast<std::size_t>(ih) < in_h &&
                                    static_cast<std::size_t>(iw) < in_w;
                      float v = inside
                                    ? iplane[static_cast<std::size_t>(ih) * in_w +
                                             static_cast<std::size_t>(iw)]
                                    : 0.0F;
                      acc += static_cast<double>(v) *
                             w[(ch * spec.kernel + kh) * spec.kernel + kw];
                    }
                  }
                  oplane[y * ow + x] = static_cast<float>(acc);
                }
              }
            }
          },
          /*grain=*/1);
    });
    sample = out_shape;
    return out_buf;
  }

  // --- pooling ------------------------------------------------------------
  if (auto* mp = dynamic_cast<nn::MaxPool2d*>(&layer)) {
    tensor::Shape out_shape = mp->output_shape(sample);
    std::size_t window = mp->window();
    std::size_t channels = sample.dim(0);
    std::size_t h = sample.dim(1);
    std::size_t w = sample.dim(2);
    std::size_t oh = h / window;
    std::size_t ow = w / window;
    std::size_t out_buf = new_fbuf(channels * oh * ow);
    steps_.push_back([in_buf, out_buf, window, channels, h, w, oh, ow](
                         ForwardArena& a, std::size_t rows) {
      const float* in = a.fptr(in_buf);
      float* out = a.fptr(out_buf);
      for (std::size_t b = 0; b < rows; ++b) {
        for (std::size_t ch = 0; ch < channels; ++ch) {
          const float* iplane = in + (b * channels + ch) * h * w;
          float* oplane = out + (b * channels + ch) * oh * ow;
          for (std::size_t y = 0; y < oh; ++y) {
            for (std::size_t x = 0; x < ow; ++x) {
              float best = iplane[y * window * w + x * window];
              for (std::size_t kh = 0; kh < window; ++kh) {
                for (std::size_t kw = 0; kw < window; ++kw) {
                  float v = iplane[(y * window + kh) * w + x * window + kw];
                  if (v > best) best = v;
                }
              }
              oplane[y * ow + x] = best;
            }
          }
        }
      }
    });
    sample = out_shape;
    return out_buf;
  }

  if (auto* ap = dynamic_cast<nn::AvgPool2d*>(&layer)) {
    tensor::Shape out_shape = ap->output_shape(sample);
    std::size_t window = ap->window();
    std::size_t channels = sample.dim(0);
    std::size_t h = sample.dim(1);
    std::size_t w = sample.dim(2);
    std::size_t oh = h / window;
    std::size_t ow = w / window;
    std::size_t out_buf = new_fbuf(channels * oh * ow);
    steps_.push_back([in_buf, out_buf, window, channels, h, w, oh, ow](
                         ForwardArena& a, std::size_t rows) {
      const float* in = a.fptr(in_buf);
      float* out = a.fptr(out_buf);
      float inv_count = static_cast<float>(window * window);
      for (std::size_t b = 0; b < rows; ++b) {
        for (std::size_t ch = 0; ch < channels; ++ch) {
          const float* iplane = in + (b * channels + ch) * h * w;
          float* oplane = out + (b * channels + ch) * oh * ow;
          for (std::size_t y = 0; y < oh; ++y) {
            for (std::size_t x = 0; x < ow; ++x) {
              float acc = 0.0F;
              for (std::size_t kh = 0; kh < window; ++kh) {
                for (std::size_t kw = 0; kw < window; ++kw) {
                  acc = acc + iplane[(y * window + kh) * w + x * window + kw];
                }
              }
              acc /= inv_count;
              oplane[y * ow + x] = acc;
            }
          }
        }
      }
    });
    sample = out_shape;
    return out_buf;
  }

  if (auto* gp = dynamic_cast<nn::GlobalAvgPool*>(&layer)) {
    tensor::Shape out_shape = gp->output_shape(sample);
    std::size_t channels = sample.dim(0);
    std::size_t hw = sample.dim(1) * sample.dim(2);
    std::size_t out_buf = new_fbuf(channels);
    steps_.push_back([in_buf, out_buf, channels, hw](ForwardArena& a,
                                                     std::size_t rows) {
      const float* in = a.fptr(in_buf);
      float* out = a.fptr(out_buf);
      for (std::size_t b = 0; b < rows; ++b) {
        for (std::size_t ch = 0; ch < channels; ++ch) {
          const float* iplane = in + (b * channels + ch) * hw;
          double acc = 0.0;
          for (std::size_t i = 0; i < hw; ++i) acc += iplane[i];
          out[b * channels + ch] =
              static_cast<float>(acc / static_cast<double>(hw));
        }
      }
    });
    sample = out_shape;
    return out_buf;
  }

  // --- normalization ------------------------------------------------------
  if (auto* bn = dynamic_cast<nn::BatchNorm*>(&layer)) {
    tensor::Shape out_shape = bn->output_shape(sample);
    std::size_t features = bn->features();
    std::size_t elems = sample.elements();
    std::size_t hw = sample.rank() == 3 ? sample.dim(1) * sample.dim(2) : 1;
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
    steps_.push_back([in_buf, out_buf, features, hw, elems, mean, gamma, beta,
                      inv_std = std::move(inv_std)](ForwardArena& a,
                                                    std::size_t rows) {
      const float* x = a.fptr(in_buf);
      float* o = a.fptr(out_buf);
      common::parallel_for(0, rows * elems, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          std::size_t f = (i / hw) % features;
          float nh = (x[i] - mean[f]) * inv_std[f];
          o[i] = gamma[f] * nh + beta[f];
        }
      });
    });
    sample = out_shape;
    return out_buf;
  }

  // --- structure ----------------------------------------------------------
  if (auto* res = dynamic_cast<nn::ResidualBlock*>(&layer)) {
    tensor::Shape body_shape = sample;
    std::size_t body_buf = in_buf;
    std::vector<nn::Layer*> body;
    body.reserve(res->body().size());
    for (const auto& lp : res->body()) body.push_back(lp.get());
    if (!plan_chain(body, body_shape, body_buf)) return std::nullopt;

    std::size_t shortcut_buf = in_buf;
    if (res->projection() != nullptr) {
      auto* proj = const_cast<nn::Layer*>(res->projection());
      tensor::Shape proj_shape = sample;
      bool dummy = false;
      auto proj_out = plan_layer(*proj, proj_shape, in_buf, nullptr, &dummy);
      if (!proj_out) return std::nullopt;
      if (!(proj_shape == body_shape)) return std::nullopt;
      shortcut_buf = *proj_out;
    }
    std::size_t elems = body_shape.elements();
    std::size_t out_buf = new_fbuf(elems);
    steps_.push_back([body_buf, shortcut_buf, out_buf, elems](ForwardArena& a,
                                                              std::size_t rows) {
      const float* b = a.fptr(body_buf);
      const float* s = a.fptr(shortcut_buf);
      float* o = a.fptr(out_buf);
      common::parallel_for(0, rows * elems, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) o[i] = b[i] + s[i];
      });
    });
    sample = body_shape;
    return out_buf;
  }

  // --- elementwise / shape ------------------------------------------------
  if (dynamic_cast<nn::Relu*>(&layer) != nullptr) {
    std::size_t elems = sample.elements();
    std::size_t out_buf = new_fbuf(elems);
    steps_.push_back([in_buf, out_buf, elems](ForwardArena& a, std::size_t rows) {
      const float* in = a.fptr(in_buf);
      float* o = a.fptr(out_buf);
      common::parallel_for(0, rows * elems, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) o[i] = in[i] > 0.0F ? in[i] : 0.0F;
      });
    });
    return out_buf;
  }

  if (dynamic_cast<nn::Sigmoid*>(&layer) != nullptr) {
    std::size_t elems = sample.elements();
    std::size_t out_buf = new_fbuf(elems);
    steps_.push_back([in_buf, out_buf, elems](ForwardArena& a, std::size_t rows) {
      const float* in = a.fptr(in_buf);
      float* o = a.fptr(out_buf);
      common::parallel_for(0, rows * elems, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          o[i] = 1.0F / (1.0F + std::exp(-in[i]));
        }
      });
    });
    return out_buf;
  }

  if (dynamic_cast<nn::Tanh*>(&layer) != nullptr) {
    std::size_t elems = sample.elements();
    std::size_t out_buf = new_fbuf(elems);
    steps_.push_back([in_buf, out_buf, elems](ForwardArena& a, std::size_t rows) {
      const float* in = a.fptr(in_buf);
      float* o = a.fptr(out_buf);
      common::parallel_for(0, rows * elems, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) o[i] = std::tanh(in[i]);
      });
    });
    return out_buf;
  }

  if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
    sample = layer.output_shape(sample);  // same flat data, new shape
    return in_buf;
  }

  if (dynamic_cast<nn::Dropout*>(&layer) != nullptr) {
    return in_buf;  // identity at inference
  }

  return std::nullopt;  // unsupported layer: the model cannot be served
}

void ForwardArena::reserve(std::size_t rows) {
  if (rows <= capacity_rows_) return;
  for (auto& buf : fbufs_) {
    if (buf.data.size() < rows * buf.per_row) buf.data.resize(rows * buf.per_row);
  }
  for (auto& buf : qbufs_) {
    if (buf.data.size() < rows * buf.per_row) buf.data.resize(rows * buf.per_row);
  }
  capacity_rows_ = rows;
}

const float* ForwardArena::run(const float* input, std::size_t rows) {
  OPENEI_CHECK(rows > 0, "arena run over zero rows");
  reserve(rows);
  std::copy(input, input + rows * input_elems_, fptr(in_buf_));
  for (auto& step : steps_) step(*this, rows);
  return fptr(out_buf_);
}

void ForwardArena::predict(const float* input, std::size_t rows,
                           std::size_t* out) {
  const float* logits = run(input, rows);
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
