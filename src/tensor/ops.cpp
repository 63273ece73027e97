#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/parallel.h"
#include "tensor/linalg.h"

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
  Tensor out(Shape{a.shape().dim(1), a.shape().dim(0)});
  scatter_to_nchw(a.data().data(), 1, a.shape().dim(0), a.shape().dim(1),
                  out.data().data());
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
  if (pixels == 1 || channels == 1) {  // the transpose is a copy
    std::copy(rows, rows + n * pixels * channels, out);
    return;
  }
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
      common::grain_for(common::kForkBytes,
                        pixels * channels * sizeof(float)));
}

void im2col_nhwc_into(const float* input, std::size_t n, std::size_t in_h,
                      std::size_t in_w, const Conv2dSpec& spec, float* out) {
  const std::size_t channels = spec.in_channels;
  const std::size_t k = spec.kernel;
  const std::size_t out_h = spec.out_size(in_h);
  const std::size_t out_w = spec.out_size(in_w);
  const std::size_t run = k * channels;  // one kernel row of a patch
  const std::size_t patch = k * run;

  common::parallel_for(
      0, n * out_h,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t slab = lo; slab < hi; ++slab) {
          const std::size_t b = slab / out_h;
          const std::size_t oh = slab % out_h;
          const float* image = input + b * in_h * in_w * channels;
          float* dst = out + slab * out_w * patch;
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            // Kernel columns [kw_lo, kw_hi) land inside the image row.
            const long iw0 = static_cast<long>(ow * spec.stride) -
                             static_cast<long>(spec.padding);
            const auto kw_lo = static_cast<std::size_t>(
                std::clamp(-iw0, 0L, static_cast<long>(k)));
            const auto kw_hi = static_cast<std::size_t>(std::clamp(
                static_cast<long>(in_w) - iw0, static_cast<long>(kw_lo),
                static_cast<long>(k)));
            for (std::size_t kh = 0; kh < k; ++kh, dst += run) {
              const long ih = static_cast<long>(oh * spec.stride + kh) -
                              static_cast<long>(spec.padding);
              const bool inside = ih >= 0 && static_cast<std::size_t>(ih) < in_h;
              const std::size_t lo = (inside ? kw_lo : k) * channels;
              const std::size_t hi = (inside ? kw_hi : k) * channels;
              std::fill(dst, dst + lo, 0.0F);
              if (hi > lo) {
                const long at = (ih * static_cast<long>(in_w) + iw0) *
                                    static_cast<long>(channels) +
                                static_cast<long>(lo);
                std::memcpy(dst + lo, image + at, (hi - lo) * sizeof(float));
              }
              std::fill(dst + hi, dst + run, 0.0F);
            }
          }
        }
      },
      common::grain_for(common::kForkBytes, out_w * patch * sizeof(float)));
}

PackedMatrix pack_conv_weights(const Tensor& weights) {
  const std::size_t oc = weights.shape().dim(0);
  const std::size_t ic = weights.shape().dim(1);
  const std::size_t kk = weights.shape().dim(2) * weights.shape().dim(3);
  const float* w = weights.data().data();  // [oc, c, (kh, kw)]
  std::vector<float> b(oc * ic * kk);      // [(kh, kw), c, oc]
  for (std::size_t o = 0; o < oc; ++o) {
    for (std::size_t c = 0; c < ic; ++c) {
      for (std::size_t j = 0; j < kk; ++j) b[(j * ic + c) * oc + o] = *w++;
    }
  }
  return PackedMatrix::pack(b.data(), kk * ic, oc);
}

void depthwise_nhwc_into(const float* input, std::size_t n, std::size_t in_h,
                         std::size_t in_w, const float* weights,
                         const float* bias, const Conv2dSpec& spec,
                         float* out) {
  const std::size_t channels = spec.in_channels;
  const std::size_t k = spec.kernel;
  const std::size_t out_h = spec.out_size(in_h);
  const std::size_t out_w = spec.out_size(in_w);
  // Output rows are independent and each element sums in (kh, kw) order, so
  // the result is bit-identical at any thread count.
  common::parallel_for(
      0, n * out_h,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t slab = lo; slab < hi; ++slab) {
          const float* image = input + slab / out_h * in_h * in_w * channels;
          const std::size_t oh = slab % out_h;
          float* row = out + slab * out_w * channels;
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            for (std::size_t c = 0; c < channels; ++c) {
              double acc = bias[c];
              for (std::size_t kh = 0; kh < k; ++kh) {
                for (std::size_t kw = 0; kw < k; ++kw) {
                  long ih = static_cast<long>(oh * spec.stride + kh) -
                            static_cast<long>(spec.padding);
                  long iw = static_cast<long>(ow * spec.stride + kw) -
                            static_cast<long>(spec.padding);
                  bool inside = ih >= 0 && iw >= 0 &&
                                static_cast<std::size_t>(ih) < in_h &&
                                static_cast<std::size_t>(iw) < in_w;
                  float v = inside ? image[(static_cast<std::size_t>(ih) * in_w +
                                            static_cast<std::size_t>(iw)) *
                                               channels +
                                           c]
                                   : 0.0F;
                  acc += static_cast<double>(v) * weights[(c * k + kh) * k + kw];
                }
              }
              row[ow * channels + c] = static_cast<float>(acc);
            }
          }
        }
      },
      common::grain_for(common::kForkScalarOps, out_w * channels * k * k));
}

void pool_nhwc_into(const float* input, std::size_t n, std::size_t h,
                    std::size_t w, std::size_t channels, std::size_t window,
                    bool max, float* out) {
  const std::size_t out_h = h / window;
  const std::size_t out_w = w / window;
  auto pixel = [&](std::size_t b, std::size_t y, std::size_t x) {
    return input + ((b * h + y) * w + x) * channels;
  };
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oh = 0; oh < out_h; ++oh) {
      for (std::size_t ow = 0; ow < out_w; ++ow, out += channels) {
        // Max starts from the window's first value; average sums from 0 in
        // (kh, kw) order, then divides by the window size.
        if (max) {
          std::copy_n(pixel(b, oh * window, ow * window), channels, out);
        } else {
          std::fill_n(out, channels, 0.0F);
        }
        for (std::size_t kh = 0; kh < window; ++kh) {
          for (std::size_t kw = 0; kw < window; ++kw) {
            const float* v = pixel(b, oh * window + kh, ow * window + kw);
            if (max) {
              for (std::size_t c = 0; c < channels; ++c) {
                out[c] = v[c] > out[c] ? v[c] : out[c];
              }
            } else {
              for (std::size_t c = 0; c < channels; ++c) out[c] += v[c];
            }
          }
        }
        if (!max) {
          const auto count = static_cast<float>(window * window);
          for (std::size_t c = 0; c < channels; ++c) out[c] /= count;
        }
      }
    }
  }
}

void global_avgpool_nhwc_into(const float* input, std::size_t n,
                              std::size_t pixels, std::size_t channels,
                              float* out) {
  for (std::size_t b = 0; b < n; ++b) {
    const float* image = input + b * pixels * channels;
    for (std::size_t c = 0; c < channels; ++c) {
      double acc = 0.0;
      for (std::size_t i = 0; i < pixels; ++i) acc += image[i * channels + c];
      out[b * channels + c] =
          static_cast<float>(acc / static_cast<double>(pixels));
    }
  }
}

namespace {

Tensor pool2d(const Tensor& input, std::size_t window, bool max) {
  OPENEI_CHECK(input.shape().rank() == 4, "pooling input must be NCHW");
  OPENEI_CHECK(window > 0, "zero pooling window");
  const std::size_t n = input.shape().dim(0);
  const std::size_t c = input.shape().dim(1);
  const std::size_t h = input.shape().dim(2);
  const std::size_t w = input.shape().dim(3);
  OPENEI_CHECK(h >= window && w >= window, "pooling window ", window,
               " larger than input ", h, "x", w);
  return via_nhwc(input, Shape{n, c, h / window, w / window},
                  [&](const float* in, float* out) {
                    pool_nhwc_into(in, n, h, w, c, window, max, out);
                  });
}

}  // namespace

Tensor conv2d_im2col(const Tensor& input, const Tensor& weights, const Tensor& bias,
                     const Conv2dSpec& spec) {
  check_conv_inputs(input, weights, bias, spec, /*depthwise=*/false);
  const std::size_t n = input.shape().dim(0);
  const std::size_t in_h = input.shape().dim(2);
  const std::size_t in_w = input.shape().dim(3);
  const std::size_t out_h = spec.out_size(in_h);
  const std::size_t out_w = spec.out_size(in_w);
  const std::size_t rows = n * out_h * out_w;
  // The forward plan's conv step: the same gather and weight pack feed the
  // same GEMM, so the two conv routes stay bitwise-identical.
  return via_nhwc(
      input, Shape{n, spec.out_channels, out_h, out_w},
      [&](const float* in, float* out) {
        Tensor patches(Shape{rows, spec.in_channels * spec.kernel * spec.kernel});
        im2col_nhwc_into(in, n, in_h, in_w, spec, patches.data().data());
        gemm_packed(patches.data().data(), rows, pack_conv_weights(weights),
                    bias.data().data(), /*fuse_relu=*/false,
                    /*accumulate=*/false, out);
      });
}

Tensor depthwise_conv2d(const Tensor& input, const Tensor& weights, const Tensor& bias,
                        const Conv2dSpec& spec) {
  check_conv_inputs(input, weights, bias, spec, /*depthwise=*/true);
  const std::size_t n = input.shape().dim(0);
  const std::size_t in_h = input.shape().dim(2);
  const std::size_t in_w = input.shape().dim(3);
  return via_nhwc(input,
                  Shape{n, spec.in_channels, spec.out_size(in_h),
                        spec.out_size(in_w)},
                  [&](const float* in, float* out) {
                    depthwise_nhwc_into(in, n, in_h, in_w,
                                        weights.data().data(),
                                        bias.data().data(), spec, out);
                  });
}

Tensor maxpool2d(const Tensor& input, std::size_t window) {
  return pool2d(input, window, /*max=*/true);
}

Tensor avgpool2d(const Tensor& input, std::size_t window) {
  return pool2d(input, window, /*max=*/false);
}

Tensor global_avgpool(const Tensor& input) {
  OPENEI_CHECK(input.shape().rank() == 4, "global_avgpool input must be NCHW");
  const std::size_t n = input.shape().dim(0);
  const std::size_t c = input.shape().dim(1);
  const std::size_t pixels = input.shape().dim(2) * input.shape().dim(3);
  return via_nhwc(input, Shape{n, c, 1, 1},
                  [&](const float* in, float* out) {
                    global_avgpool_nhwc_into(in, n, pixels, c, out);
                  })
      .reshaped(Shape{n, c});
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
