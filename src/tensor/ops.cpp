#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "tensor/linalg.h"
#include "tensor/pack.h"

namespace openei::tensor {

Tensor matmul(const Tensor& a, const Tensor& b) {
  OPENEI_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
               "matmul requires rank-2 tensors");
  std::size_t m = a.shape().dim(0);
  std::size_t k = a.shape().dim(1);
  OPENEI_CHECK(b.shape().dim(0) == k, "matmul inner dims differ: ", k, " vs ",
               b.shape().dim(0));
  std::size_t n = b.shape().dim(1);

  Tensor out(Shape{m, n});
  gemm(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  return out;
}

Tensor transpose(const Tensor& a) {
  OPENEI_CHECK(a.shape().rank() == 2, "transpose requires rank-2 tensor");
  std::size_t rows = a.shape().dim(0);
  std::size_t cols = a.shape().dim(1);
  Tensor out(Shape{cols, rows});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out.at2(c, r) = a.at2(r, c);
  }
  return out;
}

Tensor add_row_bias(const Tensor& a, const Tensor& bias) {
  OPENEI_CHECK(a.shape().rank() == 2, "add_row_bias requires rank-2 tensor");
  std::size_t cols = a.shape().dim(1);
  OPENEI_CHECK(bias.elements() == cols, "bias size ", bias.elements(),
               " != column count ", cols);
  Tensor out = a;
  auto out_data = out.data();
  auto bias_data = bias.data();
  std::size_t rows = a.shape().dim(0);
  common::parallel_for(
      0, rows,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          for (std::size_t c = 0; c < cols; ++c) {
            out_data[r * cols + c] += bias_data[c];
          }
        }
      },
      /*grain=*/std::max<std::size_t>(1, 4096 / std::max<std::size_t>(1, cols)));
  return out;
}

std::size_t Conv2dSpec::out_size(std::size_t in) const {
  OPENEI_CHECK(stride > 0, "zero stride");
  std::size_t padded = in + 2 * padding;
  OPENEI_CHECK(padded >= kernel, "kernel ", kernel, " larger than padded input ",
               padded);
  return (padded - kernel) / stride + 1;
}

namespace {

void check_conv_inputs(const Tensor& input, const Tensor& weights, const Tensor& bias,
                       const Conv2dSpec& spec, bool depthwise) {
  OPENEI_CHECK(input.shape().rank() == 4, "conv input must be NCHW");
  OPENEI_CHECK(weights.shape().rank() == 4, "conv weights must be rank 4");
  OPENEI_CHECK(input.shape().dim(1) == spec.in_channels, "input channels ",
               input.shape().dim(1), " != spec ", spec.in_channels);
  if (depthwise) {
    OPENEI_CHECK(weights.shape().dim(0) == spec.in_channels &&
                     weights.shape().dim(1) == 1,
                 "depthwise weights must be [C,1,k,k]");
    OPENEI_CHECK(bias.elements() == spec.in_channels, "depthwise bias size mismatch");
  } else {
    OPENEI_CHECK(weights.shape().dim(0) == spec.out_channels &&
                     weights.shape().dim(1) == spec.in_channels,
                 "weights must be [out_c,in_c,k,k]");
    OPENEI_CHECK(bias.elements() == spec.out_channels, "bias size mismatch");
  }
  OPENEI_CHECK(weights.shape().dim(2) == spec.kernel &&
                   weights.shape().dim(3) == spec.kernel,
               "kernel size mismatch");
}

float input_at_or_zero(const Tensor& input, std::size_t n, std::size_t c, long h,
                       long w) {
  if (h < 0 || w < 0) return 0.0F;
  auto uh = static_cast<std::size_t>(h);
  auto uw = static_cast<std::size_t>(w);
  if (uh >= input.shape().dim(2) || uw >= input.shape().dim(3)) return 0.0F;
  return input.at4(n, c, uh, uw);
}

}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& weights, const Tensor& bias,
              const Conv2dSpec& spec) {
  check_conv_inputs(input, weights, bias, spec, /*depthwise=*/false);
  std::size_t n = input.shape().dim(0);
  std::size_t out_h = spec.out_size(input.shape().dim(2));
  std::size_t out_w = spec.out_size(input.shape().dim(3));

  Tensor out(Shape{n, spec.out_channels, out_h, out_w});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
      for (std::size_t oh = 0; oh < out_h; ++oh) {
        for (std::size_t ow = 0; ow < out_w; ++ow) {
          double acc = bias[oc];
          for (std::size_t ic = 0; ic < spec.in_channels; ++ic) {
            for (std::size_t kh = 0; kh < spec.kernel; ++kh) {
              for (std::size_t kw = 0; kw < spec.kernel; ++kw) {
                long ih = static_cast<long>(oh * spec.stride + kh) -
                          static_cast<long>(spec.padding);
                long iw = static_cast<long>(ow * spec.stride + kw) -
                          static_cast<long>(spec.padding);
                acc += static_cast<double>(input_at_or_zero(input, b, ic, ih, iw)) *
                       weights.at4(oc, ic, kh, kw);
              }
            }
          }
          out.at4(b, oc, oh, ow) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

void im2col_into(const float* input, std::size_t n, std::size_t in_h,
                 std::size_t in_w, const Conv2dSpec& spec, float* out) {
  std::size_t out_h = spec.out_size(in_h);
  std::size_t out_w = spec.out_size(in_w);
  std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  std::size_t image_elems = spec.in_channels * in_h * in_w;

  // Each (image, output row) pair fills a disjoint block of patch rows, so
  // the gather parallelizes over the fused n*out_h index without races.
  common::parallel_for(
      0, n * out_h,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t slab = lo; slab < hi; ++slab) {
          std::size_t b = slab / out_h;
          std::size_t oh = slab % out_h;
          const float* image = input + b * image_elems;
          float* row_out = out + slab * out_w * patch;
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            for (std::size_t ic = 0; ic < spec.in_channels; ++ic) {
              const float* plane = image + ic * in_h * in_w;
              for (std::size_t kh = 0; kh < spec.kernel; ++kh) {
                long ih = static_cast<long>(oh * spec.stride + kh) -
                          static_cast<long>(spec.padding);
                for (std::size_t kw = 0; kw < spec.kernel; ++kw) {
                  long iw = static_cast<long>(ow * spec.stride + kw) -
                            static_cast<long>(spec.padding);
                  bool inside = ih >= 0 && iw >= 0 &&
                                static_cast<std::size_t>(ih) < in_h &&
                                static_cast<std::size_t>(iw) < in_w;
                  *row_out++ = inside
                                   ? plane[static_cast<std::size_t>(ih) * in_w +
                                           static_cast<std::size_t>(iw)]
                                   : 0.0F;
                }
              }
            }
          }
        }
      },
      /*grain=*/std::max<std::size_t>(
          1, 4096 / std::max<std::size_t>(1, out_w * patch)));
}

Tensor im2col(const Tensor& input, const Conv2dSpec& spec) {
  OPENEI_CHECK(input.shape().rank() == 4, "im2col input must be NCHW");
  std::size_t n = input.shape().dim(0);
  std::size_t in_h = input.shape().dim(2);
  std::size_t in_w = input.shape().dim(3);
  std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;

  Tensor out(Shape{n * spec.out_size(in_h) * spec.out_size(in_w), patch});
  im2col_into(input.data().data(), n, in_h, in_w, spec, out.data().data());
  return out;
}

void scatter_to_nchw(const float* rows, std::size_t n, std::size_t pixels,
                     std::size_t channels, float* out) {
  common::parallel_for(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          const float* src = rows + b * pixels * channels;
          float* dst = out + b * channels * pixels;
          for (std::size_t pix = 0; pix < pixels; ++pix) {
            for (std::size_t c = 0; c < channels; ++c) {
              dst[c * pixels + pix] = src[pix * channels + c];
            }
          }
        }
      },
      /*grain=*/1);
}

Tensor conv2d_im2col(const Tensor& input, const Tensor& weights, const Tensor& bias,
                     const Conv2dSpec& spec) {
  check_conv_inputs(input, weights, bias, spec, /*depthwise=*/false);
  std::size_t n = input.shape().dim(0);
  std::size_t out_h = spec.out_size(input.shape().dim(2));
  std::size_t out_w = spec.out_size(input.shape().dim(3));
  std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;

  Tensor patches = im2col(input, spec);                           // [N*oh*ow, patch]
  Tensor w2 = weights.reshaped(Shape{spec.out_channels, patch});  // [oc, patch]
  // Pack W^T into kernel panels and run the dispatched microkernels with the
  // bias fused into the epilogue — the same path the forward arena prepacks,
  // so the two conv routes stay bitwise-identical.
  PackedMatrix wp = PackedMatrix::pack_transposed(w2);            // B: [patch, oc]
  Tensor result(Shape{patches.shape().dim(0), spec.out_channels});
  gemm_packed(patches.data().data(), patches.shape().dim(0), wp,
              bias.data().data(), /*fuse_relu=*/false, /*accumulate=*/false,
              result.data().data());

  Tensor out(Shape{n, spec.out_channels, out_h, out_w});
  scatter_to_nchw(result.data().data(), n, out_h * out_w, spec.out_channels,
                  out.data().data());
  return out;
}

Tensor depthwise_conv2d(const Tensor& input, const Tensor& weights, const Tensor& bias,
                        const Conv2dSpec& spec) {
  check_conv_inputs(input, weights, bias, spec, /*depthwise=*/true);
  std::size_t n = input.shape().dim(0);
  std::size_t channels = spec.in_channels;
  std::size_t out_h = spec.out_size(input.shape().dim(2));
  std::size_t out_w = spec.out_size(input.shape().dim(3));

  Tensor out(Shape{n, channels, out_h, out_w});
  // Each (image, channel) plane is independent: disjoint output, per-plane
  // accumulation order unchanged — bit-identical at any thread count.
  common::parallel_for(
      0, n * channels,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t plane = lo; plane < hi; ++plane) {
          std::size_t b = plane / channels;
          std::size_t c = plane % channels;
          for (std::size_t oh = 0; oh < out_h; ++oh) {
            for (std::size_t ow = 0; ow < out_w; ++ow) {
              double acc = bias[c];
              for (std::size_t kh = 0; kh < spec.kernel; ++kh) {
                for (std::size_t kw = 0; kw < spec.kernel; ++kw) {
                  long ih = static_cast<long>(oh * spec.stride + kh) -
                            static_cast<long>(spec.padding);
                  long iw = static_cast<long>(ow * spec.stride + kw) -
                            static_cast<long>(spec.padding);
                  acc +=
                      static_cast<double>(input_at_or_zero(input, b, c, ih, iw)) *
                      weights.at4(c, 0, kh, kw);
                }
              }
              out.at4(b, c, oh, ow) = static_cast<float>(acc);
            }
          }
        }
      },
      /*grain=*/1);
  return out;
}

namespace {

template <typename Reduce>
Tensor pool2d(const Tensor& input, std::size_t window, float init, Reduce reduce,
              bool average) {
  OPENEI_CHECK(input.shape().rank() == 4, "pooling input must be NCHW");
  OPENEI_CHECK(window > 0, "zero pooling window");
  std::size_t n = input.shape().dim(0);
  std::size_t c = input.shape().dim(1);
  std::size_t h = input.shape().dim(2);
  std::size_t w = input.shape().dim(3);
  OPENEI_CHECK(h >= window && w >= window, "pooling window ", window,
               " larger than input ", h, "x", w);
  std::size_t out_h = h / window;
  std::size_t out_w = w / window;

  Tensor out(Shape{n, c, out_h, out_w});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t oh = 0; oh < out_h; ++oh) {
        for (std::size_t ow = 0; ow < out_w; ++ow) {
          float acc = init;
          for (std::size_t kh = 0; kh < window; ++kh) {
            for (std::size_t kw = 0; kw < window; ++kw) {
              acc = reduce(acc, input.at4(b, ch, oh * window + kh, ow * window + kw));
            }
          }
          if (average) acc /= static_cast<float>(window * window);
          out.at4(b, ch, oh, ow) = acc;
        }
      }
    }
  }
  return out;
}

}  // namespace

Tensor maxpool2d(const Tensor& input, std::size_t window) {
  return pool2d(
      input, window, -std::numeric_limits<float>::infinity(),
      [](float a, float b) { return std::max(a, b); }, /*average=*/false);
}

Tensor avgpool2d(const Tensor& input, std::size_t window) {
  return pool2d(
      input, window, 0.0F, [](float a, float b) { return a + b; }, /*average=*/true);
}

Tensor global_avgpool(const Tensor& input) {
  OPENEI_CHECK(input.shape().rank() == 4, "global_avgpool input must be NCHW");
  std::size_t n = input.shape().dim(0);
  std::size_t c = input.shape().dim(1);
  std::size_t hw = input.shape().dim(2) * input.shape().dim(3);
  Tensor out(Shape{n, c});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      double acc = 0.0;
      for (std::size_t h = 0; h < input.shape().dim(2); ++h) {
        for (std::size_t w = 0; w < input.shape().dim(3); ++w) {
          acc += input.at4(b, ch, h, w);
        }
      }
      out.at2(b, ch) = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  OPENEI_CHECK(logits.shape().rank() == 2, "softmax_rows requires rank-2 tensor");
  std::size_t rows = logits.shape().dim(0);
  std::size_t cols = logits.shape().dim(1);
  Tensor out = logits;
  // Rows normalize independently (disjoint writes, per-row accumulation
  // order unchanged), so batch-parallel execution is bit-identical.
  common::parallel_for(
      0, rows,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          float max_v = -std::numeric_limits<float>::infinity();
          for (std::size_t c = 0; c < cols; ++c) {
            max_v = std::max(max_v, out.at2(r, c));
          }
          double denom = 0.0;
          for (std::size_t c = 0; c < cols; ++c) {
            float e = std::exp(out.at2(r, c) - max_v);
            out.at2(r, c) = e;
            denom += e;
          }
          for (std::size_t c = 0; c < cols; ++c) {
            out.at2(r, c) = static_cast<float>(out.at2(r, c) / denom);
          }
        }
      },
      /*grain=*/std::max<std::size_t>(1, 1024 / std::max<std::size_t>(1, cols)));
  return out;
}

Tensor one_hot(const std::vector<std::size_t>& labels, std::size_t classes) {
  OPENEI_CHECK(!labels.empty(), "one_hot of empty label list");
  Tensor out(Shape{labels.size(), classes});
  for (std::size_t i = 0; i < labels.size(); ++i) {
    OPENEI_CHECK(labels[i] < classes, "label ", labels[i], " out of range ", classes);
    out.at2(i, labels[i]) = 1.0F;
  }
  return out;
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  OPENEI_CHECK(!parts.empty(), "concat_rows of empty list");
  std::size_t cols = parts.front().shape().dim(1);
  std::size_t rows = 0;
  for (const Tensor& t : parts) {
    OPENEI_CHECK(t.shape().rank() == 2 && t.shape().dim(1) == cols,
                 "concat_rows column mismatch");
    rows += t.shape().dim(0);
  }
  Tensor out(Shape{rows, cols});
  std::size_t row = 0;
  for (const Tensor& t : parts) {
    for (std::size_t r = 0; r < t.shape().dim(0); ++r, ++row) {
      for (std::size_t c = 0; c < cols; ++c) out.at2(row, c) = t.at2(r, c);
    }
  }
  return out;
}

Tensor slice_rows(const Tensor& a, std::size_t begin, std::size_t end) {
  OPENEI_CHECK(a.shape().rank() == 2, "slice_rows requires rank-2 tensor");
  OPENEI_CHECK(begin < end && end <= a.shape().dim(0), "bad row slice [", begin, ",",
               end, ") of ", a.shape().dim(0));
  std::size_t cols = a.shape().dim(1);
  Tensor out(Shape{end - begin, cols});
  for (std::size_t r = begin; r < end; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out.at2(r - begin, c) = a.at2(r, c);
  }
  return out;
}

}  // namespace openei::tensor
