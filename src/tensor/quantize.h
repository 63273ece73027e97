// Affine int8 quantization and the int8 execution kernels under the real
// quantized inference path.
//
// The paper (Sec. IV-B) credits TensorFlow Lite's latency wins partly to
// "quantized kernels"; QNNPACK is an int8 inference library.  This module
// provides the same primitives: symmetric/affine quantization of float32
// tensors to int8 (per-tensor, plus per-output-channel for weights), one int8
// GEMM (`qgemm`) with int32 accumulation and a fused dequantize(+bias)
// (+ReLU) epilogue, and a channels-last int8 patch gather so convolution
// executes genuinely quantized.  Dense and conv layers both feed the GEMM
// row-major [m, k] activations: a dense sample or a conv output pixel's
// patch is one contiguous row.  Integer accumulation is exact, so the GEMM
// is bit-identical at any OPENEI_THREADS setting and any ISA level by
// construction.
//
// Activation encoding: the GEMM reads each int8 activation q as the byte
// q + 128 (q XOR 0x80), the unsigned operand AVX-512 VNNI's vpdpbusd takes.
// The bias is applied once per element where activations are quantized
// (`quantize_biased`); the gather only copies bytes, and the GEMM removes
// the constant 128 * row_sum[r] in its exact integer correction.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace openei::tensor {

/// Quantization parameters: real = scale * (q - zero_point).
struct QuantParams {
  float scale = 1.0F;
  std::int32_t zero_point = 0;

  /// Chooses parameters covering [min_v, max_v] over the int8 range.  The
  /// range is widened to include zero (so padding/ReLU zeros quantize
  /// exactly), the zero point is always exactly representable in int8, and
  /// the scale is floored at the smallest normal float so degenerate ranges
  /// (constant tensors, denormal spans) never produce a zero or non-finite
  /// scale.
  static QuantParams choose(float min_v, float max_v);
  /// Fits parameters to the range of `n` activations (`choose` over their
  /// min/max, which starts from zero): the dynamic-range fallback of
  /// quantized layers that have no calibrated input parameters.
  static QuantParams fit(const float* values, std::size_t n);
};

/// Quantizes one value: round-to-nearest (half away from zero), saturating
/// to [-128, 127].  Written branch-free-convertible (add-half + truncate
/// instead of std::round, clamps before every float->int conversion) so the
/// bulk activation-quantization loops auto-vectorize; this form is the
/// single definition of the quantization rounding — every bulk path must
/// produce exactly these values.
inline std::int8_t quantize_one(float v, const QuantParams& p) {
  float t = v / p.scale;
  t = (t >= 0.0F) ? t + 0.5F : t - 0.5F;  // truncation rounds half away from 0
  t = std::clamp(t, -512.0F, 512.0F);     // keeps the int conversion defined
  std::int32_t q = static_cast<std::int32_t>(t) + p.zero_point;
  return static_cast<std::int8_t>(std::clamp(q, -128, 127));
}

/// Quantizes `n` floats into `dst` with shared parameters (activation
/// quantization; the raw-buffer form the forward plan uses).
void quantize_to_int8(const float* src, std::size_t n, const QuantParams& p,
                      std::int8_t* dst);

/// The GEMM's activation byte for int8 value `q`: q + 128.
inline std::uint8_t biased(std::int32_t q) {
  return static_cast<std::uint8_t>(q + 128);
}

/// quantize_to_int8 writing each value in the GEMM's biased encoding
/// (`biased(quantize_one(v, p))`): the one place the +128 is applied.
void quantize_biased(const float* src, std::size_t n, const QuantParams& p,
                     std::uint8_t* dst);

/// Bytes per activation row `qgemm` reads for inner dimension `k`: k
/// rounded up to a multiple of 4 (one vpdpbusd dword).  The tail bytes meet
/// zero weights, so their value never matters; writers fill them with
/// biased(0) so every byte is defined.
inline std::size_t qgemm_row_bytes(std::size_t k) { return (k + 3) / 4 * 4; }

/// A tensor stored as int8 with affine parameters.
class QuantizedTensor {
 public:
  QuantizedTensor(Shape shape, std::vector<std::int8_t> data, QuantParams params);

  /// Quantizes a float tensor with parameters fit to its min/max range.
  static QuantizedTensor quantize(const Tensor& input);
  /// Quantizes with explicit parameters (e.g. calibration from a dataset).
  static QuantizedTensor quantize(const Tensor& input, QuantParams params);

  /// Reconstructs the float tensor (lossy).
  Tensor dequantize() const;

  const Shape& shape() const { return shape_; }
  const QuantParams& params() const { return params_; }
  const std::vector<std::int8_t>& data() const { return data_; }
  /// Storage size — 4x smaller than the float tensor it came from.
  std::size_t size_bytes() const { return data_.size(); }

 private:
  Shape shape_;
  std::vector<std::int8_t> data_;
  QuantParams params_;
};

/// Weight matrix packed for the int8 GEMM: row r holds output channel r's
/// weights contiguously ([rows, cols] row-major int8), quantized either
/// per-output-channel (symmetric: one scale per row, zero point 0 — the
/// scheme QNNPACK/TFLite use for weights) or per-tensor.  Per-row sums are
/// precomputed so the activation-zero-point correction costs O(rows) instead
/// of O(rows*cols) per GEMM call.
class PackedQuantMatrix {
 public:
  /// Packs weights stored [cols, rows] (the Dense layout [in, out]) by
  /// transposing so each output channel's weights become contiguous.
  static PackedQuantMatrix pack_transposed(const Tensor& weights,
                                           bool per_channel);
  /// Packs weights already stored [rows, cols] (the conv layout
  /// [out_channels, in_channels*k*k] after reshaping).  A nonzero
  /// `patch_kernel` builds the kernel views in the channels-last patch
  /// order of a k x k conv (see patch_kernel()).
  static PackedQuantMatrix pack_rows(const Tensor& weights, bool per_channel,
                                     std::size_t patch_kernel = 0);
  /// Adopts legacy per-tensor affine int8 weights stored [cols, rows]
  /// (pre-per-channel serialized models); the exact int8 values are kept.
  static PackedQuantMatrix from_per_tensor(const QuantizedTensor& weights);
  /// Reassembles a matrix from serialized parts (scales size must be 1 — a
  /// per-tensor scale broadcast to every row — or `rows`); `patch_kernel`
  /// as in pack_rows.
  PackedQuantMatrix(std::size_t rows, std::size_t cols,
                    std::vector<std::int8_t> data, std::vector<float> scales,
                    std::int32_t weight_zero_point, bool per_channel,
                    std::size_t patch_kernel = 0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const std::vector<std::int8_t>& data() const { return data_; }
  /// Row kernel view for the pmaddwd levels: row r holds output channel r's
  /// weights in kernel column order, zero-padded to a multiple of 16 columns
  /// so the reduction never has a ragged SIMD tail.  Zero-padded weights
  /// contribute exactly nothing to the affine sum (the correction terms all
  /// run over the real `cols()`), so kernels may blindly iterate
  /// `kernel_cols()` lanes.
  const std::int8_t* kernel_data() const {
    return kernel_data_.empty() ? data_.data() : kernel_data_.data();
  }
  std::size_t kernel_cols() const { return kernel_cols_; }
  /// Panel kernel view for the VNNI level, [rows/16][k4/4][16][4] with rows
  /// rounded up to a multiple of 16 and k4 = qgemm_row_bytes(cols()): one
  /// 64-byte vector holds 4 consecutive kernel columns of 16 output
  /// channels, the signed operand of one vpdpbusd.  Padding is zero.
  /// Both views are derived caches like `row_sums`: not serialized, not
  /// counted in `storage_bytes`.
  const std::int8_t* panel() const { return panel_.data(); }
  const std::vector<float>& scales() const { return scales_; }
  const std::vector<std::int32_t>& row_sums() const { return row_sums_; }
  std::int32_t weight_zero_point() const { return weight_zero_point_; }
  bool per_channel() const { return per_channel_; }
  /// Nonzero for conv weights stored (c, kh, kw): the kernel size k whose
  /// channels-last patch order (kh, kw, c), the order `im2col_nhwc_q8`
  /// gathers, both kernel views follow.  `data()` and the serialized form
  /// keep the stored order.  0 for a dense matrix.
  std::size_t patch_kernel() const { return patch_kernel_; }

  /// int8 payload plus per-row scales (row sums are a derived cache).
  std::size_t storage_bytes() const {
    return data_.size() + scales_.size() * sizeof(float);
  }

  /// Reconstructs the float weights in [rows, cols] layout (lossy; used by
  /// error analysis and tests).
  Tensor dequantize() const;

 private:
  PackedQuantMatrix() = default;
  /// Row sums and both kernel views, the latter in patch order for a
  /// nonzero `patch_kernel`.
  void finalize(std::size_t patch_kernel = 0);
  void build_kernel_views();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t kernel_cols_ = 0;          // cols rounded up to a multiple of 16
  std::size_t patch_kernel_ = 0;         // > 0: kernel columns are (kh, kw, c)
  std::vector<std::int8_t> data_;        // [rows, cols]
  std::vector<std::int8_t> kernel_data_; // [rows, kernel_cols]; empty when
                                         // data_ already is that view
  common::aligned_vector<std::int8_t> panel_;  // VNNI panel, see panel()
  std::vector<float> scales_;            // [rows]
  std::vector<std::int32_t> row_sums_;   // [rows], sum of row r's int8 values
  std::int32_t weight_zero_point_ = 0;   // 0 for symmetric per-channel packs
  bool per_channel_ = true;
};

/// The int8 GEMM: int32 accumulation and a fused dequantize(+bias)(+ReLU)
/// epilogue, returning float:
///   out[i, r] = relu?( a.scale * w.scale[r] * (sum_p (a[i,p]-a_zp) *
///               (w[r,p]-w_zp)) + bias[r] )
/// `a` holds the activations row-major in the biased encoding, row i at
/// a + i * qgemm_row_bytes(k), columns in `w`'s kernel column order.  On
/// AVX-512 VNNI a register tile of up to 8 rows x 2-4 blocks of 16 output
/// channels broadcasts one activation dword per row against the weight
/// panel, and the epilogue runs 16 channels per vector; below VNNI a
/// pmaddwd kernel runs one row at a time.  `out` is [m, w.rows()]; `bias`
/// may be null.  Parallelized over row tiles x channel groups once the
/// work is worth a fork; integer accumulation is exact, so results are
/// bit-identical at any thread count and any ISA level.
void qgemm(const std::uint8_t* a, std::size_t m, std::size_t k,
           const QuantParams& a_params, const PackedQuantMatrix& w,
           const float* bias, bool fuse_relu, float* out);

/// Channels-last int8 im2col, the twin of `im2col_nhwc_into`: gathers conv
/// patches from biased NHWC bytes into qgemm rows, one per output pixel
/// ([n*out_h*out_w, qgemm_row_bytes(k*k*in_c)]), patch order (kh, kw, c).
/// Each (pixel, kh) pair is one contiguous run of up to k*in_c bytes.
/// Padding positions gather `pad` (the biased activation zero point, the
/// exact encoding of 0.0), so quantized convolution pads identically to the
/// float path; each row's tail holds biased(0).
void im2col_nhwc_q8(const std::uint8_t* input, std::size_t n, std::size_t in_h,
                    std::size_t in_w, const Conv2dSpec& spec, std::uint8_t pad,
                    std::uint8_t* out);

/// Quantized matmul: accumulates in int32, returns dequantized float result.
/// Inputs must be rank 2 with compatible inner dimensions.  (Legacy
/// per-tensor kernel kept for the compression benches; the layer path uses
/// qgemm on packed weights.)
Tensor quantized_matmul(const QuantizedTensor& a, const QuantizedTensor& b);

/// Worst-case absolute reconstruction error for parameters `p` (half a step).
float quantization_step_error(const QuantParams& p);

/// int8 engine dispatch level in effect: 0 = scalar, 1 = AVX2,
/// 2 = AVX-512 (F+BW+VL), 3 = AVX-512 VNNI — the probed level, clamped by
/// tensor::detail::set_isa_cap (tensor/pack.h) like the fp32 twin
/// tensor::fp32_isa_level; both surface through /ei_status.
int int8_isa_level();
const char* int8_isa_name(int level);
inline const char* int8_isa_name() { return int8_isa_name(int8_isa_level()); }

}  // namespace openei::tensor
