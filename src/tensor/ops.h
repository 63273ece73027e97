// Tensor kernels used by the NN engine.
//
// Convolution is implemented both directly and via im2col+matmul; the two
// paths are property-tested for equivalence and the matmul path is what the
// FLOP-based hardware cost model (src/hwsim) assumes.  Tensors are NCHW;
// the inference kernels underneath run channels-last (NHWC).
#pragma once

#include <cstddef>

#include "tensor/pack.h"
#include "tensor/tensor.h"

namespace openei::tensor {

/// C = A(mxk) * B(kxn).  Rank-2 inputs required.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor transpose(const Tensor& a);

/// Adds a rank-1 bias of size `cols` to every row of a rank-2 tensor.
Tensor add_row_bias(const Tensor& a, const Tensor& bias);

/// Convolution geometry (square kernels, symmetric stride/padding).
struct Conv2dSpec {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 0;

  /// Output spatial size for an input of `in` pixels; throws when the
  /// geometry does not fit.
  std::size_t out_size(std::size_t in) const;
};

/// Direct 2-D convolution.  input: NCHW, weights: [out_c, in_c, k, k],
/// bias: [out_c].  Returns NCHW.
Tensor conv2d(const Tensor& input, const Tensor& weights, const Tensor& bias,
              const Conv2dSpec& spec);

/// im2col patch extraction: input NCHW -> [N*out_h*out_w, in_c*k*k], patch
/// order (c, kh, kw).  Training caches it for Conv2d::backward.
Tensor im2col(const Tensor& input, const Conv2dSpec& spec);

/// Raw-buffer im2col into a caller-provided [n*out_h*out_w, in_c*k*k] buffer
/// (`im2col` delegates here, so the two produce identical values).
void im2col_into(const float* input, std::size_t n, std::size_t in_h,
                 std::size_t in_w, const Conv2dSpec& spec, float* out);

/// Channels-last im2col: NHWC input into [n*out_h*out_w, k*k*in_c], patch
/// order (kh, kw, c).  Each (output pixel, kh) pair is one contiguous run of
/// up to k*in_c floats; padding zero-fills the run's edges.
void im2col_nhwc_into(const float* input, std::size_t n, std::size_t in_h,
                      std::size_t in_w, const Conv2dSpec& spec, float* out);

/// Packs conv weights [out_c, in_c, k, k] as the [k*k*in_c, out_c] GEMM
/// operand of channels-last patches ((kh, kw, c) order).
PackedMatrix pack_conv_weights(const Tensor& weights);

/// Per-image transpose [n, pixels, channels] -> [n, channels, pixels]: an
/// NHWC buffer (or a conv GEMM result, one row per output pixel) to NCHW.
/// Images write disjoint slices in parallel.
void scatter_to_nchw(const float* rows, std::size_t n, std::size_t pixels,
                     std::size_t channels, float* out);

/// NCHW -> NHWC: the same per-image transpose with the axes swapped.
inline void gather_to_nhwc(const float* nchw, std::size_t n,
                           std::size_t channels, std::size_t pixels,
                           float* out) {
  scatter_to_nchw(nchw, n, channels, pixels, out);
}

/// Runs a channels-last kernel, `kernel(nhwc_in, nhwc_out)`, on an NCHW
/// tensor, converting at both ends; `out_shape` is the NCHW result shape.
template <typename Kernel>
Tensor via_nhwc(const Tensor& input, const Shape& out_shape, Kernel kernel) {
  const std::size_t n = input.shape().dim(0);
  Tensor in(input.shape());  // NHWC data under the NCHW shape
  gather_to_nhwc(input.data().data(), n, input.shape().dim(1),
                 input.shape().dim(2) * input.shape().dim(3), in.data().data());
  Tensor out(out_shape);
  kernel(in.data().data(), out.data().data());
  Tensor result(out_shape);
  scatter_to_nchw(out.data().data(), n, out_shape.dim(2) * out_shape.dim(3),
                  out_shape.dim(1), result.data().data());
  return result;
}

/// Convolution via channels-last im2col + the packed GEMM; numerically
/// equivalent to conv2d() and bitwise equal to the forward plan's conv.
Tensor conv2d_im2col(const Tensor& input, const Tensor& weights, const Tensor& bias,
                     const Conv2dSpec& spec);

/// Channels-last kernels over raw NHWC buffers.  The forward plan runs
/// them directly; the Tensor routes below convert NCHW at both ends and run
/// the same kernels, so the two give bitwise the same values.
/// Depthwise conv: weights [C, 1, k, k], bias [C].
void depthwise_nhwc_into(const float* input, std::size_t n, std::size_t in_h,
                         std::size_t in_w, const float* weights,
                         const float* bias, const Conv2dSpec& spec, float* out);
/// Max (`max`) or average pooling with stride == window.
void pool_nhwc_into(const float* input, std::size_t n, std::size_t h,
                    std::size_t w, std::size_t channels, std::size_t window,
                    bool max, float* out);
/// Global average pooling: [n, pixels, channels] -> [n, channels].
void global_avgpool_nhwc_into(const float* input, std::size_t n,
                              std::size_t pixels, std::size_t channels,
                              float* out);

/// Depthwise convolution: weights [channels, 1, k, k], one filter per input
/// channel (the MobileNet building block, paper Sec. IV-A2).
Tensor depthwise_conv2d(const Tensor& input, const Tensor& weights, const Tensor& bias,
                        const Conv2dSpec& spec);

/// 2-D max pooling over NCHW with square window and stride == window.
Tensor maxpool2d(const Tensor& input, std::size_t window);

/// 2-D average pooling over NCHW with square window and stride == window.
Tensor avgpool2d(const Tensor& input, std::size_t window);

/// Global average pooling: NCHW -> [N, C].
Tensor global_avgpool(const Tensor& input);

/// Row-wise softmax of a rank-2 tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// One-hot encodes labels into a [n, classes] matrix.
Tensor one_hot(const std::vector<std::size_t>& labels, std::size_t classes);

/// Concatenates rank-2 tensors along rows (equal column counts).
Tensor concat_rows(const std::vector<Tensor>& parts);

/// Extracts rows [begin, end) of a rank-2 tensor.
Tensor slice_rows(const Tensor& a, std::size_t begin, std::size_t end);

}  // namespace openei::tensor
