#include "tensor/quantize.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/parallel.h"
#include "tensor/pack.h"

namespace openei::tensor {

namespace {
constexpr std::int32_t kQMin = -128;
constexpr std::int32_t kQMax = 127;
/// Every GEMM level accumulates biased activations times weights, products
/// bounded by 255 * 128, so int32 accumulation stays exact for k <= 2^16
/// (255 * 128 * 2^16 = 2.14e9 < 2^31).
constexpr std::size_t kQgemmMaxK = 1ULL << 16;
}  // namespace

QuantParams QuantParams::choose(float min_v, float max_v) {
  OPENEI_CHECK(std::isfinite(min_v) && std::isfinite(max_v),
               "non-finite quantization range");
  OPENEI_CHECK(min_v <= max_v, "reversed quantization range");
  // The range must include zero so that zero quantizes exactly (standard
  // affine-quantization requirement; keeps padding/ReLU zeros exact).
  min_v = std::min(min_v, 0.0F);
  max_v = std::max(max_v, 0.0F);
  float span = max_v - min_v;
  QuantParams p;
  if (span == 0.0F) {
    p.scale = 1.0F;
    p.zero_point = 0;
    return p;
  }
  // Denormal spans can underflow span/255 to zero; floor at the smallest
  // normal float so the scale stays finite and nonzero.
  p.scale = std::max(span / static_cast<float>(kQMax - kQMin),
                     std::numeric_limits<float>::min());
  float zp = static_cast<float>(kQMin) - min_v / p.scale;
  p.zero_point = static_cast<std::int32_t>(std::lround(zp));
  p.zero_point = std::clamp(p.zero_point, kQMin, kQMax);
  return p;
}

QuantParams QuantParams::fit(const float* values, std::size_t n) {
  float min_v = 0.0F;
  float max_v = 0.0F;
  for (std::size_t i = 0; i < n; ++i) {
    min_v = std::min(min_v, values[i]);
    max_v = std::max(max_v, values[i]);
  }
  return choose(min_v, max_v);
}

// ---------------------------------------------------------------------------
// SIMD dispatch for the two hot loops (bulk quantization, int8 GEMM rows).
//
// The repo builds for generic x86-64 (SSE2); these kernels matter enough —
// they ARE the int8 engine's latency story — that we compile the same C++
// bodies additionally with AVX2/AVX-512 target attributes and pick at
// runtime via __builtin_cpu_supports.  Plain function-pointer-free dispatch
// (no ifunc) so sanitizer runs see ordinary functions.  Every variant does
// exact integer accumulation / identical per-element float arithmetic, so
// results are bit-identical across ISA levels, which keeps the engine's
// bit-reproducibility guarantees independent of the host CPU.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OPENEI_X86_SIMD_DISPATCH 1
#include <immintrin.h>
#else
#define OPENEI_X86_SIMD_DISPATCH 0
#endif

namespace {

/// 0 = baseline, 1 = AVX2, 2 = AVX-512 (F+BW+VL), 3 = AVX-512 VNNI: the
/// probed level (cached after the first probe) clamped by the shared test
/// cap, the way fp32_isa_level() reads it.
int simd_level() {
#if OPENEI_X86_SIMD_DISPATCH
  static const int detected = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl")) {
      return __builtin_cpu_supports("avx512vnni") ? 3 : 2;
    }
    return __builtin_cpu_supports("avx2") ? 1 : 0;
  }();
  return std::min(detected, detail::isa_cap());
#else
  return 0;
#endif
}

}  // namespace

int int8_isa_level() { return simd_level(); }

const char* int8_isa_name(int level) {
  switch (level) {
    case 3:
      return "avx512-vnni";
    case 2:
      return "avx512";
    case 1:
      return "avx2";
    default:
      return "scalar";
  }
}

#if OPENEI_X86_SIMD_DISPATCH
namespace {

/// quantize_one over 16 lanes at a time, written out in intrinsics so every
/// build type runs the same vector body: a true division (a reciprocal
/// multiply rounds differently), half away from zero by adding +-0.5 and
/// truncating, the +-512 clamp, then `offset` added and the result clamped
/// to [lo, hi] — zp and [-128, 127] for int8, zp + 128 and [0, 255] for the
/// biased encoding.  Stores the low byte of each lane.
__attribute__((target("avx512f,avx512bw,avx512vl"))) void quantize_avx512(
    const float* src, std::size_t n, float scale, std::int32_t offset,
    std::int32_t lo, std::int32_t hi, std::uint8_t* dst) {
  const __m512 vscale = _mm512_set1_ps(scale);
  const __m512 half = _mm512_set1_ps(0.5F);
  const __m512 neg_half = _mm512_set1_ps(-0.5F);
  const __m512 limit = _mm512_set1_ps(512.0F);
  const __m512 neg_limit = _mm512_set1_ps(-512.0F);
  const __m512i voffset = _mm512_set1_epi32(offset);
  const __m512i vlo = _mm512_set1_epi32(lo);
  const __m512i vhi = _mm512_set1_epi32(hi);
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 mask =
        n - i >= 16 ? __mmask16(0xFFFF) : __mmask16((1U << (n - i)) - 1);
    __m512 t = _mm512_div_ps(_mm512_maskz_loadu_ps(mask, src + i), vscale);
    const __mmask16 nonneg =
        _mm512_cmp_ps_mask(t, _mm512_setzero_ps(), _CMP_GE_OQ);
    t = _mm512_add_ps(t, _mm512_mask_blend_ps(nonneg, neg_half, half));
    t = _mm512_min_ps(_mm512_max_ps(t, neg_limit), limit);
    __m512i q = _mm512_add_epi32(_mm512_cvttps_epi32(t), voffset);
    q = _mm512_min_epi32(_mm512_max_epi32(q, vlo), vhi);
    _mm512_mask_cvtepi32_storeu_epi8(dst + i, mask, q);
  }
}

}  // namespace
#endif

void quantize_to_int8(const float* src, std::size_t n, const QuantParams& p,
                      std::int8_t* dst) {
#if OPENEI_X86_SIMD_DISPATCH
  // AVX2 shows no gain here (the blend-heavy clamp chain stays divps-bound);
  // the masked 512-bit form is ~8x faster than the baseline loop.
  if (simd_level() >= 2) {
    quantize_avx512(src, n, p.scale, p.zero_point, kQMin, kQMax,
                    reinterpret_cast<std::uint8_t*>(dst));
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] = quantize_one(src[i], p);
}

void quantize_biased(const float* src, std::size_t n, const QuantParams& p,
                     std::uint8_t* dst) {
#if OPENEI_X86_SIMD_DISPATCH
  if (simd_level() >= 2) {
    quantize_avx512(src, n, p.scale, p.zero_point + 128, 0, 255, dst);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] = biased(quantize_one(src[i], p));
}

QuantizedTensor::QuantizedTensor(Shape shape, std::vector<std::int8_t> data,
                                 QuantParams params)
    : shape_(std::move(shape)), data_(std::move(data)), params_(params) {
  OPENEI_CHECK(data_.size() == shape_.elements(), "quantized data size mismatch");
}

QuantizedTensor QuantizedTensor::quantize(const Tensor& input) {
  return quantize(input, QuantParams::choose(input.min(), input.max()));
}

QuantizedTensor QuantizedTensor::quantize(const Tensor& input, QuantParams params) {
  std::vector<std::int8_t> data(input.elements());
  quantize_to_int8(input.data().data(), data.size(), params, data.data());
  return QuantizedTensor(input.shape(), std::move(data), params);
}

Tensor QuantizedTensor::dequantize() const {
  Tensor out(shape_);
  auto dst = out.data();
  for (std::size_t i = 0; i < data_.size(); ++i) {
    dst[i] = params_.scale *
             static_cast<float>(static_cast<std::int32_t>(data_[i]) - params_.zero_point);
  }
  return out;
}

namespace {

/// Symmetric row scale: maxabs/127 (zero point 0; 1.0 for an all-zero row so
/// the scale stays usable).
float symmetric_scale(const float* row, std::size_t n) {
  float max_abs = 0.0F;
  for (std::size_t i = 0; i < n; ++i) max_abs = std::max(max_abs, std::abs(row[i]));
  if (max_abs == 0.0F) return 1.0F;
  return std::max(max_abs / static_cast<float>(kQMax),
                  std::numeric_limits<float>::min());
}

/// Symmetric quantization restricted to [-127, 127] (the standard trick that
/// keeps -w representable whenever w is).
std::int8_t quantize_symmetric(float v, float scale) {
  float q = std::round(v / scale);
  q = std::clamp(q, -127.0F, 127.0F);
  return static_cast<std::int8_t>(static_cast<std::int32_t>(q));
}

}  // namespace

PackedQuantMatrix PackedQuantMatrix::pack_rows(const Tensor& weights,
                                               bool per_channel,
                                               std::size_t patch_kernel) {
  OPENEI_CHECK(weights.shape().rank() == 2, "pack_rows requires a rank-2 tensor");
  std::size_t rows = weights.shape().dim(0);
  std::size_t cols = weights.shape().dim(1);
  const float* src = weights.data().data();

  PackedQuantMatrix packed;
  packed.rows_ = rows;
  packed.cols_ = cols;
  packed.per_channel_ = per_channel;
  packed.data_.resize(rows * cols);
  packed.scales_.resize(rows);

  float tensor_scale = per_channel ? 0.0F : symmetric_scale(src, rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = src + r * cols;
    float scale = per_channel ? symmetric_scale(row, cols) : tensor_scale;
    packed.scales_[r] = scale;
    std::int8_t* dst = packed.data_.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) dst[c] = quantize_symmetric(row[c], scale);
  }
  packed.finalize(patch_kernel);
  return packed;
}

PackedQuantMatrix PackedQuantMatrix::pack_transposed(const Tensor& weights,
                                                     bool per_channel) {
  return pack_rows(transpose(weights), per_channel);
}

PackedQuantMatrix PackedQuantMatrix::from_per_tensor(const QuantizedTensor& weights) {
  OPENEI_CHECK(weights.shape().rank() == 2,
               "from_per_tensor requires rank-2 weights");
  std::size_t cols = weights.shape().dim(0);  // [in, out] -> cols = in
  std::size_t rows = weights.shape().dim(1);

  PackedQuantMatrix packed;
  packed.rows_ = rows;
  packed.cols_ = cols;
  packed.per_channel_ = false;
  packed.weight_zero_point_ = weights.params().zero_point;
  packed.scales_.assign(rows, weights.params().scale);
  packed.data_.resize(rows * cols);
  const auto& src = weights.data();
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      packed.data_[r * cols + c] = src[c * rows + r];
    }
  }
  packed.finalize();
  return packed;
}

PackedQuantMatrix::PackedQuantMatrix(std::size_t rows, std::size_t cols,
                                     std::vector<std::int8_t> data,
                                     std::vector<float> scales,
                                     std::int32_t weight_zero_point,
                                     bool per_channel, std::size_t patch_kernel)
    : rows_(rows),
      cols_(cols),
      data_(std::move(data)),
      scales_(std::move(scales)),
      weight_zero_point_(weight_zero_point),
      per_channel_(per_channel) {
  OPENEI_CHECK(data_.size() == rows_ * cols_, "packed weight size mismatch");
  if (scales_.size() == 1 && rows_ > 1) scales_.assign(rows_, scales_[0]);
  OPENEI_CHECK(scales_.size() == rows_, "packed scale count mismatch");
  for (float s : scales_) {
    OPENEI_CHECK(std::isfinite(s) && s > 0.0F, "bad packed weight scale");
  }
  finalize(patch_kernel);
}

void PackedQuantMatrix::finalize(std::size_t patch_kernel) {
  OPENEI_CHECK(patch_kernel == 0 || cols_ % (patch_kernel * patch_kernel) == 0,
               "patch geometry does not match the packed columns");
  patch_kernel_ = patch_kernel;
  row_sums_.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::int32_t sum = 0;
    const std::int8_t* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) sum += row[c];
    row_sums_[r] = sum;
  }
  build_kernel_views();
}

void PackedQuantMatrix::build_kernel_views() {
  // Kernel column j holds stored column src[j]: the identity, or the conv
  // permutation (kh, kw, c) <- (c, kh, kw).
  std::vector<std::size_t> src(cols_);
  const std::size_t kk = patch_kernel_ * patch_kernel_;
  std::size_t j = 0;
  if (patch_kernel_ == 0) {
    for (; j < cols_; ++j) src[j] = j;
  } else {
    for (std::size_t pos = 0; pos < kk; ++pos) {  // pos = kh * kernel + kw
      for (std::size_t c = 0; c < cols_ / kk; ++c) src[j++] = c * kk + pos;
    }
  }
  // Row view: each row zero-padded to a 16-lane boundary so the pmaddwd
  // inner loop is tail-free.  Zero weights are exact no-ops in the affine
  // sum; an unpermuted matrix of 16-multiple rows is its own view.
  kernel_cols_ = (cols_ + 15) / 16 * 16;
  if (patch_kernel_ != 0 || kernel_cols_ != cols_) {
    kernel_data_.assign(rows_ * kernel_cols_, 0);
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::int8_t* row = data_.data() + r * cols_;
      std::int8_t* dst = kernel_data_.data() + r * kernel_cols_;
      for (std::size_t c = 0; c < cols_; ++c) dst[c] = row[src[c]];
    }
  }
  // Panel: block b holds channels [16b, 16b + 16); its dword column p4 is
  // 64 bytes, channel lane t at bytes [4t, 4t + 4) = kernel columns
  // 4*p4 .. 4*p4 + 3.
  const std::size_t k4 = qgemm_row_bytes(cols_);
  panel_.assign((rows_ + 15) / 16 * 16 * k4, 0);
  std::int8_t* block = panel_.data();
  for (std::size_t r0 = 0; r0 < rows_; r0 += 16, block += 16 * k4) {
    for (std::size_t t = 0; t < 16 && r0 + t < rows_; ++t) {
      const std::int8_t* row = data_.data() + (r0 + t) * cols_;
      std::int8_t* lane = block + 4 * t;
      for (std::size_t c4 = 0; c4 < cols_; c4 += 4) {
        for (std::size_t u = 0; u < 4 && c4 + u < cols_; ++u) {
          lane[c4 * 16 + u] = row[src[c4 + u]];
        }
      }
    }
  }
}

Tensor PackedQuantMatrix::dequantize() const {
  Tensor out(Shape{rows_, cols_});
  auto dst = out.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      dst[r * cols_ + c] =
          scales_[r] * static_cast<float>(
                           static_cast<std::int32_t>(data_[r * cols_ + c]) -
                           weight_zero_point_);
    }
  }
  return out;
}

namespace {

/// Shared epilogue: dequantize the corrected int accumulation, add bias,
/// clamp.  The scalar paths call it; the VNNI vector epilogue performs the
/// same float operations in the same order (a separate multiply, no FMA),
/// and the test reference spells out the same expression, so every path
/// yields bit-identical floats.
inline float requantize_epilogue(std::int64_t corrected, float combined_scale,
                                 const float* bias, std::size_t r,
                                 bool fuse_relu) {
  float v = combined_scale * static_cast<float>(corrected);
  if (bias != nullptr) v += bias[r];
  if (fuse_relu && v < 0.0F) v = 0.0F;
  return v;
}

/// Stack tile for the pmaddwd levels: one activation row widens into an
/// int16 tile (8 KB) before the row kernels run over it.
constexpr std::size_t kWidenTile = 4096;
/// Rows (pixels or samples) of one GEMM task and one VNNI register tile.
constexpr std::size_t kTileRows = 8;
/// Output channels of one GEMM task: four 16-channel panel blocks.
constexpr std::size_t kOcGroup = 64;

/// What every GEMM task reads.
struct QgemmArgs {
  const std::uint8_t* a;  // biased rows, stride lda
  std::size_t lda;        // qgemm_row_bytes(k)
  std::size_t k;
  std::size_t rows;  // output channels
  const PackedQuantMatrix* w;
  const float* bias;
  bool fuse_relu;
  float a_scale;
  std::int32_t a_zp;
  float* out;
};

/// Sum of a biased row's real int8 values (the legacy weight-zero-point
/// term needs it).
std::int64_t activation_sum(const std::uint8_t* row, std::size_t k) {
  std::int64_t sum = 0;
  for (std::size_t p = 0; p < k; ++p) sum += row[p];
  return sum - 128 * static_cast<std::int64_t>(k);
}

/// Scalar epilogue of one raw accumulation acc = sum((a + 128) * w): the
/// exact int64 zero-point correction
///   sum((a - a_zp)(w - w_zp)) = acc - (a_zp + 128) row_sum[r]
///                               - w_zp sum(a) + a_zp w_zp k,
/// then requantize_epilogue.  `a_sum` = sum(a), read only when w_zp != 0.
inline float emit_scalar(const QgemmArgs& g, std::size_t r, std::int32_t acc,
                         std::int64_t a_sum) {
  const std::int64_t a_zp = g.a_zp;
  const std::int64_t w_zp = g.w->weight_zero_point();
  const std::int64_t corrected =
      static_cast<std::int64_t>(acc) - (a_zp + 128) * g.w->row_sums()[r] -
      w_zp * a_sum + a_zp * w_zp * static_cast<std::int64_t>(g.k);
  return requantize_epilogue(corrected, g.a_scale * g.w->scales()[r], g.bias,
                             r, g.fuse_relu);
}

/// Accumulates `nrows` length-`chunk` dot products into acc[0..nrows):
/// pre-widened int16 activations x int8 weight rows, int32 accumulation,
/// two rows per pass so the activation loads amortize.  This body is the
/// hot loop below VNNI; it is compiled at several ISA levels below.
__attribute__((always_inline)) inline void qgemm_rows_body(
    const std::int16_t* a16, const std::int8_t* w, std::size_t stride,
    std::size_t chunk, std::size_t nrows, std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 1 < nrows; r += 2) {
    const std::int8_t* w0 = w + r * stride;
    const std::int8_t* w1 = w0 + stride;
    std::int32_t acc0 = 0;
    std::int32_t acc1 = 0;
    for (std::size_t p = 0; p < chunk; ++p) {
      std::int32_t av = a16[p];
      acc0 += av * static_cast<std::int32_t>(w0[p]);
      acc1 += av * static_cast<std::int32_t>(w1[p]);
    }
    acc[r] += acc0;
    acc[r + 1] += acc1;
  }
  if (r < nrows) {
    const std::int8_t* wr = w + r * stride;
    std::int32_t accr = 0;
    for (std::size_t p = 0; p < chunk; ++p) {
      accr += static_cast<std::int32_t>(a16[p]) *
              static_cast<std::int32_t>(wr[p]);
    }
    acc[r] += accr;
  }
}

#if OPENEI_X86_SIMD_DISPATCH
/// Horizontal int32 sum of a 256-bit accumulator.  Integer addition is
/// associative, so the lane-reduction order cannot change the result.
__attribute__((target("avx2"), always_inline)) inline std::int32_t hsum_epi32(
    __m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// One 16-lane step: widen 16 int8 weights, pmaddwd against the pre-widened
/// activations (pairwise int16*int16 -> int32 adds, exact: |a|,|w| <= 128 so
/// a pair sum is <= 2^15), accumulate.
__attribute__((target("avx2"), always_inline)) inline __m256i madd16(
    __m256i sum, const std::int16_t* a16, const std::int8_t* w) {
  const __m256i av =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a16));
  const __m256i wv = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(w)));
  return _mm256_add_epi32(sum, _mm256_madd_epi16(av, wv));
}

__attribute__((target("avx2"))) void qgemm_rows_avx2(
    const std::int16_t* a16, const std::int8_t* w, std::size_t stride,
    std::size_t chunk, std::size_t nrows, std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 1 < nrows; r += 2) {
    const std::int8_t* w0 = w + r * stride;
    const std::int8_t* w1 = w0 + stride;
    // Two accumulator chains per row break the vpaddd dependency chain.
    __m256i s0a = _mm256_setzero_si256();
    __m256i s0b = _mm256_setzero_si256();
    __m256i s1a = _mm256_setzero_si256();
    __m256i s1b = _mm256_setzero_si256();
    std::size_t p = 0;
    for (; p + 32 <= chunk; p += 32) {
      s0a = madd16(s0a, a16 + p, w0 + p);
      s0b = madd16(s0b, a16 + p + 16, w0 + p + 16);
      s1a = madd16(s1a, a16 + p, w1 + p);
      s1b = madd16(s1b, a16 + p + 16, w1 + p + 16);
    }
    for (; p + 16 <= chunk; p += 16) {
      s0a = madd16(s0a, a16 + p, w0 + p);
      s1a = madd16(s1a, a16 + p, w1 + p);
    }
    std::int32_t t0 = hsum_epi32(_mm256_add_epi32(s0a, s0b));
    std::int32_t t1 = hsum_epi32(_mm256_add_epi32(s1a, s1b));
    for (; p < chunk; ++p) {  // unused when the caller pads chunk to 16
      t0 += static_cast<std::int32_t>(a16[p]) * w0[p];
      t1 += static_cast<std::int32_t>(a16[p]) * w1[p];
    }
    acc[r] += t0;
    acc[r + 1] += t1;
  }
  if (r < nrows) {
    const std::int8_t* wr = w + r * stride;
    __m256i sa = _mm256_setzero_si256();
    __m256i sb = _mm256_setzero_si256();
    std::size_t p = 0;
    for (; p + 32 <= chunk; p += 32) {
      sa = madd16(sa, a16 + p, wr + p);
      sb = madd16(sb, a16 + p + 16, wr + p + 16);
    }
    for (; p + 16 <= chunk; p += 16) sa = madd16(sa, a16 + p, wr + p);
    std::int32_t t = hsum_epi32(_mm256_add_epi32(sa, sb));
    for (; p < chunk; ++p) t += static_cast<std::int32_t>(a16[p]) * wr[p];
    acc[r] += t;
  }
}

/// 32-lane pmaddwd step, the 512-bit analog of madd16.
__attribute__((target("avx512f,avx512bw,avx512vl"),
               always_inline)) inline __m512i madd32(__m512i sum,
                                                     const std::int16_t* a16,
                                                     const std::int8_t* w) {
  const __m512i av =
      _mm512_loadu_si512(reinterpret_cast<const void*>(a16));
  const __m512i wv = _mm512_cvtepi8_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w)));
  return _mm512_add_epi32(sum, _mm512_madd_epi16(av, wv));
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) void qgemm_rows_avx512(
    const std::int16_t* a16, const std::int8_t* w, std::size_t stride,
    std::size_t chunk, std::size_t nrows, std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 1 < nrows; r += 2) {
    const std::int8_t* w0 = w + r * stride;
    const std::int8_t* w1 = w0 + stride;
    __m512i s0a = _mm512_setzero_si512();
    __m512i s0b = _mm512_setzero_si512();
    __m512i s1a = _mm512_setzero_si512();
    __m512i s1b = _mm512_setzero_si512();
    std::size_t p = 0;
    for (; p + 64 <= chunk; p += 64) {
      s0a = madd32(s0a, a16 + p, w0 + p);
      s0b = madd32(s0b, a16 + p + 32, w0 + p + 32);
      s1a = madd32(s1a, a16 + p, w1 + p);
      s1b = madd32(s1b, a16 + p + 32, w1 + p + 32);
    }
    for (; p + 32 <= chunk; p += 32) {
      s0a = madd32(s0a, a16 + p, w0 + p);
      s1a = madd32(s1a, a16 + p, w1 + p);
    }
    std::int32_t t0 = _mm512_reduce_add_epi32(_mm512_add_epi32(s0a, s0b));
    std::int32_t t1 = _mm512_reduce_add_epi32(_mm512_add_epi32(s1a, s1b));
    if (p + 16 <= chunk) {  // padded chunks are multiples of 16: one 256-bit
      t0 += hsum_epi32(madd16(_mm256_setzero_si256(), a16 + p, w0 + p));
      t1 += hsum_epi32(madd16(_mm256_setzero_si256(), a16 + p, w1 + p));
      p += 16;
    }
    for (; p < chunk; ++p) {
      t0 += static_cast<std::int32_t>(a16[p]) * w0[p];
      t1 += static_cast<std::int32_t>(a16[p]) * w1[p];
    }
    acc[r] += t0;
    acc[r + 1] += t1;
  }
  if (r < nrows) {
    const std::int8_t* wr = w + r * stride;
    __m512i sa = _mm512_setzero_si512();
    __m512i sb = _mm512_setzero_si512();
    std::size_t p = 0;
    for (; p + 64 <= chunk; p += 64) {
      sa = madd32(sa, a16 + p, wr + p);
      sb = madd32(sb, a16 + p + 32, wr + p + 32);
    }
    for (; p + 32 <= chunk; p += 32) sa = madd32(sa, a16 + p, wr + p);
    std::int32_t t = _mm512_reduce_add_epi32(_mm512_add_epi32(sa, sb));
    if (p + 16 <= chunk) {
      t += hsum_epi32(madd16(_mm256_setzero_si256(), a16 + p, wr + p));
      p += 16;
    }
    for (; p < chunk; ++p) t += static_cast<std::int32_t>(a16[p]) * wr[p];
    acc[r] += t;
  }
}

/// VNNI register tile: MR activation rows x NB 16-channel panel blocks,
/// starting at row i0 and block b0.  Each k step loads NB panel vectors
/// (4 kernel columns of 16 channels each), broadcasts one activation dword
/// per row and runs MR * NB independent vpdpbusd, so every lane of every
/// accumulator is one output (row, channel): no horizontal reductions.
/// Each lane sums 4 products bounded by 255 * 128 per step, exact in int32
/// for k <= 2^16.  The epilogue then runs 16 channels per vector.
template <int MR, int NB>
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
qgemm_tile_vnni(const QgemmArgs& g, std::size_t i0, std::size_t b0) {
  const std::size_t block_bytes = 16 * g.lda;
  const std::int8_t* panel = g.w->panel() + b0 * block_bytes;
  const std::uint8_t* a = g.a + i0 * g.lda;
  __m512i acc[MR][NB];
#pragma GCC unroll 8
  for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 4
    for (int j = 0; j < NB; ++j) acc[i][j] = _mm512_setzero_si512();
  }
  for (std::size_t p = 0; p < g.lda; p += 4) {
    __m512i wv[NB];
#pragma GCC unroll 4
    for (int j = 0; j < NB; ++j) {
      wv[j] = _mm512_load_si512(panel + j * block_bytes + p * 16);
    }
#pragma GCC unroll 8
    for (int i = 0; i < MR; ++i) {
      std::int32_t dword;
      std::memcpy(&dword, a + i * g.lda + p, 4);
      const __m512i av = _mm512_set1_epi32(dword);
#pragma GCC unroll 4
      for (int j = 0; j < NB; ++j) {
        acc[i][j] = _mm512_dpbusd_epi32(acc[i][j], av, wv[j]);
      }
    }
  }

  const std::int32_t* row_sums = g.w->row_sums().data();
  const float* scales = g.w->scales().data();
  const bool legacy = g.w->weight_zero_point() != 0;
  for (int j = 0; j < NB; ++j) {
    const std::size_t r0 = (b0 + j) * 16;
    const std::size_t width = std::min<std::size_t>(16, g.rows - r0);
    const auto mask = static_cast<__mmask16>((1U << width) - 1);
    if (legacy) {  // per-tensor weights: the scalar int64 correction
      alignas(64) std::int32_t lanes[16];
      for (int i = 0; i < MR; ++i) {
        _mm512_store_si512(lanes, acc[i][j]);
        const std::int64_t a_sum = activation_sum(a + i * g.lda, g.k);
        for (std::size_t t = 0; t < width; ++t) {
          g.out[(i0 + i) * g.rows + r0 + t] =
              emit_scalar(g, r0 + t, lanes[t], a_sum);
        }
      }
      continue;
    }
    // Symmetric weights: sum((a - a_zp) w) = acc - (a_zp + 128) row_sum is
    // at most 255 * 128 * 2^16 < 2^31 in magnitude, so the wrapping int32
    // arithmetic yields it exactly.  Then requantize_epilogue's float ops
    // in its order: scale = a_scale * w_scale[r], scale * float(corrected),
    // + bias, ReLU.  max(0, v) returns v for NaN and -0, like `v < 0`.
    const __m512i zp_sums =
        _mm512_mullo_epi32(_mm512_set1_epi32(g.a_zp + 128),
                           _mm512_maskz_loadu_epi32(mask, row_sums + r0));
    const __m512 scale =
        _mm512_mul_ps(_mm512_set1_ps(g.a_scale),
                      _mm512_maskz_loadu_ps(mask, scales + r0));
    const __m512 bias = g.bias != nullptr
                            ? _mm512_maskz_loadu_ps(mask, g.bias + r0)
                            : _mm512_setzero_ps();
    // (Zero-masked convert and max: GCC 12's unmasked forms pass an
    // undefined register and trip -Wmaybe-uninitialized.)
    for (int i = 0; i < MR; ++i) {
      __m512 v = _mm512_mul_ps(
          scale, _mm512_maskz_cvtepi32_ps(
                     mask, _mm512_sub_epi32(acc[i][j], zp_sums)));
      if (g.bias != nullptr) v = _mm512_add_ps(v, bias);
      if (g.fuse_relu) v = _mm512_maskz_max_ps(mask, _mm512_setzero_ps(), v);
      _mm512_mask_storeu_ps(g.out + (i0 + i) * g.rows + r0, mask, v);
    }
  }
}

/// Blocks per register tile: up to 3 rows (single-sample dense layers,
/// small batches) take 4 blocks so at least 4 accumulator chains run; 4-8
/// rows take 2 (at most 16 accumulators).
constexpr int tile_blocks(int rows) { return rows <= 3 ? 4 : 2; }

using VnniTile = void (*)(const QgemmArgs&, std::size_t, std::size_t);

template <int MR>
constexpr std::array<VnniTile, 4> vnni_tiles() {
  return {&qgemm_tile_vnni<MR, std::min(1, tile_blocks(MR))>,
          &qgemm_tile_vnni<MR, std::min(2, tile_blocks(MR))>,
          &qgemm_tile_vnni<MR, std::min(3, tile_blocks(MR))>,
          &qgemm_tile_vnni<MR, std::min(4, tile_blocks(MR))>};
}

/// kVnniTiles[mr - 1][nb - 1] runs an mr x nb tile.
constexpr std::array<std::array<VnniTile, 4>, kTileRows> kVnniTiles = {
    vnni_tiles<1>(), vnni_tiles<2>(), vnni_tiles<3>(), vnni_tiles<4>(),
    vnni_tiles<5>(), vnni_tiles<6>(), vnni_tiles<7>(), vnni_tiles<8>()};

/// One GEMM task on VNNI: rows [i0, i0 + mr) x blocks [b0, b0 + nblocks).
void qgemm_task_vnni(const QgemmArgs& g, std::size_t i0, std::size_t mr,
                     std::size_t b0, std::size_t nblocks) {
  const auto step = static_cast<std::size_t>(tile_blocks(static_cast<int>(mr)));
  for (std::size_t b = 0; b < nblocks; b += step) {
    const std::size_t nb = std::min(step, nblocks - b);
    kVnniTiles[mr - 1][nb - 1](g, i0, b0 + b);
  }
}

/// Byte moves of the int8 gather with AVX-512BW: 64-byte vectors, the last
/// (or only) one masked, so a run never touches a byte outside itself.
/// Not always_inline: GCC inlines them into the target-attributed gather
/// below, and a generic template body may name them.
struct MaskedBytes {
  __attribute__((target("avx512f,avx512bw"))) static __mmask64 first(
      std::size_t n) {
    return n >= 64 ? ~0ULL : (1ULL << n) - 1;
  }
  __attribute__((target("avx512f,avx512bw"))) static void copy(
      std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
    for (; n > 64; n -= 64, dst += 64, src += 64) {
      _mm512_storeu_si512(dst, _mm512_loadu_si512(src));
    }
    const __mmask64 mask = first(n);
    _mm512_mask_storeu_epi8(dst, mask, _mm512_maskz_loadu_epi8(mask, src));
  }
  __attribute__((target("avx512f,avx512bw"))) static void fill(
      std::uint8_t* dst, std::uint8_t value, std::size_t n) {
    const __m512i v = _mm512_set1_epi8(static_cast<char>(value));
    for (; n > 64; n -= 64, dst += 64) _mm512_storeu_si512(dst, v);
    _mm512_mask_storeu_epi8(dst, first(n), v);
  }
};
#endif

void qgemm_rows(const std::int16_t* a16, const std::int8_t* w,
                std::size_t stride, std::size_t chunk, std::size_t nrows,
                std::int32_t* acc) {
#if OPENEI_X86_SIMD_DISPATCH
  int level = simd_level();
  // 512-bit lanes need enough reduction length to amortize the wider
  // reduce; short rows stay on the 256-bit kernel.
  if (level >= 2 && chunk >= 64) {
    qgemm_rows_avx512(a16, w, stride, chunk, nrows, acc);
    return;
  }
  if (level >= 1 && chunk >= 16) {
    qgemm_rows_avx2(a16, w, stride, chunk, nrows, acc);
    return;
  }
#endif
  qgemm_rows_body(a16, w, stride, chunk, nrows, acc);
}

/// One GEMM task below VNNI: rows [i0, i1) x channels [r0, r1), one row at
/// a time — widen its contiguous bytes to int16 (zero past k, meeting the
/// zero-padded weights), run the pmaddwd row kernels, emit each output.
void qgemm_task_rows(const QgemmArgs& g, std::size_t i0, std::size_t i1,
                     std::size_t r0, std::size_t r1) {
  const std::int8_t* wd = g.w->kernel_data() + r0 * g.w->kernel_cols();
  const std::size_t k_pad = g.w->kernel_cols();
  const bool legacy = g.w->weight_zero_point() != 0;
  std::int16_t a16[kWidenTile];
  std::int32_t acc[kOcGroup];
  for (std::size_t i = i0; i < i1; ++i) {
    const std::uint8_t* row = g.a + i * g.lda;
    std::fill(acc, acc + (r1 - r0), 0);
    for (std::size_t p0 = 0; p0 < k_pad; p0 += kWidenTile) {
      const std::size_t chunk = std::min(kWidenTile, k_pad - p0);
      const std::size_t real = p0 < g.k ? std::min(chunk, g.k - p0) : 0;
      for (std::size_t p = 0; p < real; ++p) a16[p] = row[p0 + p];
      std::fill(a16 + real, a16 + chunk, 0);
      qgemm_rows(a16, wd + p0, k_pad, chunk, r1 - r0, acc);
    }
    const std::int64_t a_sum = legacy ? activation_sum(row, g.k) : 0;
    for (std::size_t r = r0; r < r1; ++r) {
      g.out[i * g.rows + r] = emit_scalar(g, r, acc[r - r0], a_sum);
    }
  }
}

/// Byte moves of the int8 gather without AVX-512BW.
struct PlainBytes {
  static void copy(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
    std::memcpy(dst, src, n);
  }
  static void fill(std::uint8_t* dst, std::uint8_t value, std::size_t n) {
    std::memset(dst, value, n);
  }
};

/// im2col_nhwc_q8 over output rows [slab_lo, slab_hi) of the n * out_h
/// (image, output row) pairs.  Kernel row kh of one output row is one input
/// row: output columns [ow_a, ow_b) read k whole pixels of it, a fixed-size
/// run from a pointer advancing by stride * C; the columns at the edges
/// (padding) and the rows outside the image take the padded forms.
template <typename Bytes>
__attribute__((always_inline)) inline void gather_q8_slabs(
    const std::uint8_t* input, std::size_t in_h, std::size_t in_w,
    const Conv2dSpec& spec, std::uint8_t pad, std::size_t slab_lo,
    std::size_t slab_hi, std::uint8_t* out) {
  const std::size_t channels = spec.in_channels;
  const std::size_t k = spec.kernel;
  const std::size_t stride = spec.stride;
  const std::size_t out_h = spec.out_size(in_h);
  const std::size_t out_w = spec.out_size(in_w);
  const std::size_t run = k * channels;
  const std::size_t patch = k * run;
  const std::size_t lda = qgemm_row_bytes(patch);
  const std::size_t ow_a =
      std::min(out_w, (spec.padding + stride - 1) / stride);
  const std::size_t ow_b = std::max(
      ow_a, in_w + spec.padding < k
                ? 0
                : std::min(out_w, (in_w + spec.padding - k) / stride + 1));
  for (std::size_t slab = slab_lo; slab < slab_hi; ++slab) {
    const std::uint8_t* image = input + slab / out_h * in_h * in_w * channels;
    const std::size_t oh = slab % out_h;
    std::uint8_t* rows = out + slab * out_w * lda;
    for (std::size_t kh = 0; kh < k; ++kh) {
      std::uint8_t* seg = rows + kh * run;
      const long ih = static_cast<long>(oh * stride + kh) -
                      static_cast<long>(spec.padding);
      if (ih < 0 || static_cast<std::size_t>(ih) >= in_h) {
        for (std::size_t ow = 0; ow < out_w; ++ow) {
          Bytes::fill(seg + ow * lda, pad, run);
        }
        continue;
      }
      const std::uint8_t* line =
          image + static_cast<std::size_t>(ih) * in_w * channels;
      // Kernel columns [kw_lo, kw_hi) of an edge column land in the row.
      auto edge = [&](std::size_t ow) {
        const long iw0 = static_cast<long>(ow * stride) -
                         static_cast<long>(spec.padding);
        const auto kw_lo = static_cast<std::size_t>(
            std::clamp(-iw0, 0L, static_cast<long>(k)));
        const auto kw_hi = static_cast<std::size_t>(std::clamp(
            static_cast<long>(in_w) - iw0, static_cast<long>(kw_lo),
            static_cast<long>(k)));
        std::uint8_t* dst = seg + ow * lda;
        const std::size_t lo = kw_lo * channels;
        const std::size_t hi = kw_hi * channels;
        Bytes::fill(dst, pad, lo);
        if (hi > lo) {
          Bytes::copy(dst + lo,
                      line + iw0 * static_cast<long>(channels) +
                          static_cast<long>(lo),
                      hi - lo);
        }
        Bytes::fill(dst + hi, pad, run - hi);
      };
      for (std::size_t ow = 0; ow < ow_a; ++ow) edge(ow);
      for (std::size_t ow = ow_a; ow < ow_b; ++ow) {
        Bytes::copy(seg + ow * lda,
                    line + (ow * stride - spec.padding) * channels, run);
      }
      for (std::size_t ow = ow_b; ow < out_w; ++ow) edge(ow);
    }
    for (std::size_t ow = 0; ow < out_w && lda != patch; ++ow) {
      Bytes::fill(rows + ow * lda + patch, biased(0), lda - patch);
    }
  }
}

#if OPENEI_X86_SIMD_DISPATCH
__attribute__((target("avx512f,avx512bw"))) void gather_q8_slabs_avx512(
    const std::uint8_t* input, std::size_t in_h, std::size_t in_w,
    const Conv2dSpec& spec, std::uint8_t pad, std::size_t slab_lo,
    std::size_t slab_hi, std::uint8_t* out) {
  gather_q8_slabs<MaskedBytes>(input, in_h, in_w, spec, pad, slab_lo, slab_hi,
                               out);
}
#endif

}  // namespace

/// The int8 GEMM.  Tasks are (tile of kTileRows rows) x (group of
/// kOcGroup channels); every output is produced by exactly one task with a
/// fixed accumulation order, so results are bit-identical at any thread
/// count, and the exact integer sums make them identical across ISA levels.
void qgemm(const std::uint8_t* a, std::size_t m, std::size_t k,
           const QuantParams& a_params, const PackedQuantMatrix& w,
           const float* bias, bool fuse_relu, float* out) {
  OPENEI_CHECK(k == w.cols(), "qgemm inner dims differ: ", k, " vs ",
               w.cols());
  OPENEI_CHECK(k <= kQgemmMaxK, "qgemm k ", k, " exceeds int32-exact bound");
  const QgemmArgs g{a,        qgemm_row_bytes(k), k,
                    w.rows(), &w,                 bias,
                    fuse_relu, a_params.scale,    a_params.zero_point,
                    out};
#if OPENEI_X86_SIMD_DISPATCH
  const bool vnni = simd_level() >= 3;
#endif
  const std::size_t groups = (g.rows + kOcGroup - 1) / kOcGroup;
  const std::size_t tasks = (m + kTileRows - 1) / kTileRows * groups;
  auto task = [&](std::size_t t) {
    const std::size_t i0 = t / groups * kTileRows;
    const std::size_t r0 = t % groups * kOcGroup;
    const std::size_t i1 = std::min(m, i0 + kTileRows);
    const std::size_t r1 = std::min(g.rows, r0 + kOcGroup);
#if OPENEI_X86_SIMD_DISPATCH
    if (vnni) {
      qgemm_task_vnni(g, i0, i1 - i0, r0 / 16, (r1 - r0 + 15) / 16);
      return;
    }
#endif
    qgemm_task_rows(g, i0, i1, r0, r1);
  };
  common::parallel_for(
      0, tasks,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) task(t);
      },
      common::grain_for(
          common::kForkMacs,
          std::min(m, kTileRows) * k * std::min(g.rows, kOcGroup)));
}

void im2col_nhwc_q8(const std::uint8_t* input, std::size_t n, std::size_t in_h,
                    std::size_t in_w, const Conv2dSpec& spec, std::uint8_t pad,
                    std::uint8_t* out) {
  const std::size_t out_h = spec.out_size(in_h);
  const std::size_t row_bytes =
      spec.out_size(in_w) *
      qgemm_row_bytes(spec.in_channels * spec.kernel * spec.kernel);
  common::parallel_for(
      0, n * out_h,
      [&](std::size_t lo, std::size_t hi) {
#if OPENEI_X86_SIMD_DISPATCH
        if (simd_level() >= 2) {
          gather_q8_slabs_avx512(input, in_h, in_w, spec, pad, lo, hi, out);
          return;
        }
#endif
        gather_q8_slabs<PlainBytes>(input, in_h, in_w, spec, pad, lo, hi, out);
      },
      common::grain_for(common::kForkBytes, row_bytes));
}

Tensor quantized_matmul(const QuantizedTensor& a, const QuantizedTensor& b) {
  OPENEI_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
               "quantized_matmul requires rank-2 tensors");
  std::size_t m = a.shape().dim(0);
  std::size_t k = a.shape().dim(1);
  OPENEI_CHECK(b.shape().dim(0) == k, "quantized_matmul inner dims differ");
  std::size_t n = b.shape().dim(1);

  const auto& a_data = a.data();
  const auto& b_data = b.data();
  std::int32_t a_zp = a.params().zero_point;
  std::int32_t b_zp = b.params().zero_point;
  float out_scale = a.params().scale * b.params().scale;

  Tensor out(Shape{m, n});
  auto o = out.data();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        std::int32_t av = static_cast<std::int32_t>(a_data[i * k + p]) - a_zp;
        std::int32_t bv = static_cast<std::int32_t>(b_data[p * n + j]) - b_zp;
        acc += static_cast<std::int64_t>(av) * bv;
      }
      o[i * n + j] = out_scale * static_cast<float>(acc);
    }
  }
  return out;
}

float quantization_step_error(const QuantParams& p) { return p.scale * 0.5F; }

}  // namespace openei::tensor
