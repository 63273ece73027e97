// Tensor kernels used by the NN engine.
//
// Convolution is implemented both directly and via im2col+matmul; the two
// paths are property-tested for equivalence and the matmul path is what the
// FLOP-based hardware cost model (src/hwsim) assumes.
#pragma once

#include <cstddef>

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

/// im2col patch extraction: input NCHW -> [N*out_h*out_w, in_c*k*k].
Tensor im2col(const Tensor& input, const Conv2dSpec& spec);

/// Raw-buffer im2col into a caller-provided [n*out_h*out_w, in_c*k*k] buffer
/// (no allocation — the form the forward arena uses; `im2col` delegates
/// here, so the two produce identical values).
void im2col_into(const float* input, std::size_t n, std::size_t in_h,
                 std::size_t in_w, const Conv2dSpec& spec, float* out);

/// Scatters a conv GEMM result — [n*pixels, channels] row-major, one row per
/// output pixel — into NCHW `out` ([n, channels, pixels]).  Images write
/// disjoint slices in parallel.  The fp32 conv, the forward arena's conv
/// step and the int8 conv all end with it.
void scatter_to_nchw(const float* rows, std::size_t n, std::size_t pixels,
                     std::size_t channels, float* out);

/// Convolution via im2col + matmul; numerically equivalent to conv2d().
Tensor conv2d_im2col(const Tensor& input, const Tensor& weights, const Tensor& bias,
                     const Conv2dSpec& spec);

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
