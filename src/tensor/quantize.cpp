#include "tensor/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/parallel.h"
#include "tensor/pack.h"

namespace openei::tensor {

namespace {
constexpr std::int32_t kQMin = -128;
constexpr std::int32_t kQMax = 127;
/// Below this many int8 MACs the fork/join overhead dominates; run serial.
constexpr std::size_t kQgemmSerialMacs = 1ULL << 16;
/// int32 accumulation of k products bounded by 128*128 each stays exact for
/// k <= 2^16 (|acc| <= 2^30 < 2^31).  The VNNI kernel's biased-unsigned
/// accumulation is bounded by 255*128*k <= 2.14e9 < 2^31 at the same limit.
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

namespace {

__attribute__((always_inline)) inline void quantize_bulk_body(
    const float* src, std::size_t n, const QuantParams p, std::int8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = quantize_one(src[i], p);
}

#if OPENEI_X86_SIMD_DISPATCH
__attribute__((target("avx512f,avx512bw,avx512vl"))) void quantize_bulk_avx512(
    const float* src, std::size_t n, const QuantParams p, std::int8_t* dst) {
  quantize_bulk_body(src, n, p, dst);
}
#endif

}  // namespace

void quantize_to_int8(const float* src, std::size_t n, const QuantParams& p,
                      std::int8_t* dst) {
#if OPENEI_X86_SIMD_DISPATCH
  // AVX2 shows no gain here (the blend-heavy clamp chain stays divps-bound);
  // the masked 512-bit form is ~8x faster than the baseline loop.
  if (simd_level() >= 2) {
    quantize_bulk_avx512(src, n, p, dst);
    return;
  }
#endif
  quantize_bulk_body(src, n, p, dst);
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
                                               bool per_channel) {
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
  packed.finalize();
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
                                     bool per_channel)
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
  finalize();
}

void PackedQuantMatrix::finalize() {
  row_sums_.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::int32_t sum = 0;
    const std::int8_t* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) sum += row[c];
    row_sums_[r] = sum;
  }
  // Kernel view: pad each row with zeros to a 16-lane boundary so the GEMM
  // inner loop is tail-free.  Zero weights are exact no-ops in the affine
  // sum, so only ragged matrices pay the (tiny) shadow copy.
  kernel_cols_ = (cols_ + 15) / 16 * 16;
  if (kernel_cols_ == cols_) {
    kernel_data_.clear();
  } else {
    kernel_data_.assign(rows_ * kernel_cols_, 0);
    for (std::size_t r = 0; r < rows_; ++r) {
      std::copy(data_.data() + r * cols_, data_.data() + (r + 1) * cols_,
                kernel_data_.data() + r * kernel_cols_);
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
/// clamp.  One function so every GEMM path (and the test reference, which
/// spells out the same expression) applies bit-identical float arithmetic.
inline float requantize_epilogue(std::int64_t corrected, float combined_scale,
                                 const float* bias, std::size_t r,
                                 bool fuse_relu) {
  float v = combined_scale * static_cast<float>(corrected);
  if (bias != nullptr) v += bias[r];
  if (fuse_relu && v < 0.0F) v = 0.0F;
  return v;
}

/// Stack tile sizes for the GEMM inner kernel: activations widen into an
/// int16 tile (pmaddwd-friendly), raw int32 accumulators collect per row
/// tile before the float epilogue runs.
constexpr std::size_t kWidenTile = 4096;  // 8 KB int16 on the stack
constexpr std::size_t kRowTile = 256;     // 1 KB int32 on the stack

/// Accumulates `nrows` length-`chunk` dot products into acc[0..nrows):
/// pre-widened int16 activations x int8 weight rows, int32 accumulation,
/// two rows per pass so the activation loads amortize.  This body is the
/// hot loop of the engine; it is compiled at several ISA levels below.
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

/// One vpdpbusd step: 64 unsigned-activation x signed-weight byte products
/// accumulated into 16 int32 lanes in a single instruction.  Each lane sums
/// 4 products bounded by 255*128, so the lane arithmetic is exact.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"),
               always_inline)) inline __m512i dp64(__m512i sum,
                                                   const std::uint8_t* a,
                                                   const std::int8_t* w) {
  return _mm512_dpbusd_epi32(
      sum, _mm512_loadu_si512(reinterpret_cast<const void*>(a)),
      _mm512_loadu_si512(reinterpret_cast<const void*>(w)));
}

/// VNNI kernel: activations are pre-offset to unsigned (a + 128), so
/// acc[r] accumulates sum((a+128) * w); the caller removes the constant
/// 128 * row_sums[r] in the (exact, integer) epilogue correction.  Handles
/// any chunk via a masked final step; masked-off lanes contribute zero.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
qgemm_rows_vnni(const std::uint8_t* au8, const std::int8_t* w,
                std::size_t stride, std::size_t chunk, std::size_t nrows,
                std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 1 < nrows; r += 2) {
    const std::int8_t* w0 = w + r * stride;
    const std::int8_t* w1 = w0 + stride;
    __m512i s0a = _mm512_setzero_si512();
    __m512i s0b = _mm512_setzero_si512();
    __m512i s1a = _mm512_setzero_si512();
    __m512i s1b = _mm512_setzero_si512();
    std::size_t p = 0;
    for (; p + 128 <= chunk; p += 128) {
      s0a = dp64(s0a, au8 + p, w0 + p);
      s0b = dp64(s0b, au8 + p + 64, w0 + p + 64);
      s1a = dp64(s1a, au8 + p, w1 + p);
      s1b = dp64(s1b, au8 + p + 64, w1 + p + 64);
    }
    for (; p + 64 <= chunk; p += 64) {
      s0a = dp64(s0a, au8 + p, w0 + p);
      s1a = dp64(s1a, au8 + p, w1 + p);
    }
    if (p < chunk) {
      const __mmask64 mask = (1ULL << (chunk - p)) - 1;
      const __m512i av = _mm512_maskz_loadu_epi8(mask, au8 + p);
      s0b = _mm512_dpbusd_epi32(s0b, av,
                                _mm512_maskz_loadu_epi8(mask, w0 + p));
      s1b = _mm512_dpbusd_epi32(s1b, av,
                                _mm512_maskz_loadu_epi8(mask, w1 + p));
    }
    acc[r] += _mm512_reduce_add_epi32(_mm512_add_epi32(s0a, s0b));
    acc[r + 1] += _mm512_reduce_add_epi32(_mm512_add_epi32(s1a, s1b));
  }
  if (r < nrows) {
    const std::int8_t* wr = w + r * stride;
    __m512i sa = _mm512_setzero_si512();
    __m512i sb = _mm512_setzero_si512();
    std::size_t p = 0;
    for (; p + 128 <= chunk; p += 128) {
      sa = dp64(sa, au8 + p, wr + p);
      sb = dp64(sb, au8 + p + 64, wr + p + 64);
    }
    for (; p + 64 <= chunk; p += 64) sa = dp64(sa, au8 + p, wr + p);
    if (p < chunk) {
      const __mmask64 mask = (1ULL << (chunk - p)) - 1;
      sb = _mm512_dpbusd_epi32(sb, _mm512_maskz_loadu_epi8(mask, au8 + p),
                               _mm512_maskz_loadu_epi8(mask, wr + p));
    }
    acc[r] += _mm512_reduce_add_epi32(_mm512_add_epi32(sa, sb));
  }
}

/// i-blocked VNNI kernel for batched GEMMs (m >= 16): `at4` stages 16 rows
/// of A in 4-byte-interleaved layout — dword p4 of lane ii holds bytes
/// a[i0+ii, 4*p4 .. 4*p4+3] biased to unsigned — so every vpdpbusd lane
/// accumulates a *different output row of A* against a broadcast weight
/// dword.  After the k loop the 16 lanes ARE out[i0..i0+16, r]: zero
/// horizontal reductions, the structural cost of the per-i kernels above.
/// `acc` is [nrows][16] int32; `first_chunk` seeds it.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
qgemm_tile16_vnni(const std::uint8_t* at4, std::size_t chunk,
                  const std::int8_t* w, std::size_t wstride,
                  std::size_t nrows, bool first_chunk, std::int32_t* acc) {
  const std::size_t q = chunk / 4;  // callers pad chunk to a multiple of 16
  std::size_t r = 0;
  for (; r + 1 < nrows; r += 2) {
    const std::int8_t* w0 = w + r * wstride;
    const std::int8_t* w1 = w0 + wstride;
    __m512i s0 = first_chunk
                     ? _mm512_setzero_si512()
                     : _mm512_loadu_si512(acc + r * 16);
    __m512i s1 = first_chunk
                     ? _mm512_setzero_si512()
                     : _mm512_loadu_si512(acc + (r + 1) * 16);
    for (std::size_t p4 = 0; p4 < q; ++p4) {
      const __m512i av = _mm512_loadu_si512(at4 + p4 * 64);
      std::int32_t wd0;
      std::int32_t wd1;
      std::memcpy(&wd0, w0 + 4 * p4, 4);
      std::memcpy(&wd1, w1 + 4 * p4, 4);
      s0 = _mm512_dpbusd_epi32(s0, av, _mm512_set1_epi32(wd0));
      s1 = _mm512_dpbusd_epi32(s1, av, _mm512_set1_epi32(wd1));
    }
    _mm512_storeu_si512(acc + r * 16, s0);
    _mm512_storeu_si512(acc + (r + 1) * 16, s1);
  }
  if (r < nrows) {
    const std::int8_t* wr = w + r * wstride;
    __m512i s = first_chunk
                    ? _mm512_setzero_si512()
                    : _mm512_loadu_si512(acc + r * 16);
    for (std::size_t p4 = 0; p4 < q; ++p4) {
      std::int32_t wd4;
      std::memcpy(&wd4, wr + 4 * p4, 4);
      s = _mm512_dpbusd_epi32(s, _mm512_loadu_si512(at4 + p4 * 64),
                              _mm512_set1_epi32(wd4));
    }
    _mm512_storeu_si512(acc + r * 16, s);
  }
}

/// Stages one 4x16 group of the interleaved VNNI tile straight from the
/// transposed [k, m] activation layout: rows p..p+3 each contribute 16
/// contiguous bytes (columns i0..i0+15), byte-transposed so dword lane ii
/// holds bytes a[i0+ii, p..p+3], XOR 0x80 biased to unsigned.  Pure SSE2 —
/// baseline on x86-64, so no target attribute / dispatch needed.
inline void transpose4x16_bias(const std::int8_t* r0, const std::int8_t* r1,
                               const std::int8_t* r2, const std::int8_t* r3,
                               std::uint8_t* dst) {
  const __m128i sign = _mm_set1_epi8(static_cast<char>(0x80));
  const __m128i v0 = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0)), sign);
  const __m128i v1 = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1)), sign);
  const __m128i v2 = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r2)), sign);
  const __m128i v3 = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r3)), sign);
  // Two unpack levels build the byte transpose: after epi8 interleave,
  // 16-bit units are (r0[i], r1[i]) / (r2[i], r3[i]) pairs; interleaving
  // those yields dwords r0[i],r1[i],r2[i],r3[i] in column order.
  const __m128i t0 = _mm_unpacklo_epi8(v0, v1);
  const __m128i t1 = _mm_unpackhi_epi8(v0, v1);
  const __m128i t2 = _mm_unpacklo_epi8(v2, v3);
  const __m128i t3 = _mm_unpackhi_epi8(v2, v3);
  __m128i* d = reinterpret_cast<__m128i*>(dst);
  _mm_storeu_si128(d + 0, _mm_unpacklo_epi16(t0, t2));
  _mm_storeu_si128(d + 1, _mm_unpackhi_epi16(t0, t2));
  _mm_storeu_si128(d + 2, _mm_unpacklo_epi16(t1, t3));
  _mm_storeu_si128(d + 3, _mm_unpackhi_epi16(t1, t3));
}
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

/// Copies column `col` of the [k, m] activations (stride `m`) into a
/// contiguous staging buffer through `convert`.  At m == 1 — single-sample
/// dense layers — the column is contiguous and the copy vectorizes.
template <typename T, typename Convert>
__attribute__((always_inline)) inline void gather_column(
    const std::int8_t* col, std::size_t m, std::size_t n, T* dst,
    Convert convert) {
  if (m == 1) {
    for (std::size_t p = 0; p < n; ++p) dst[p] = convert(col[p]);
    return;
  }
  for (std::size_t p = 0; p < n; ++p) dst[p] = convert(col[p * m]);
}

}  // namespace

/// The int8 GEMM driver: int32 dot products over packed weight rows,
/// zero-point corrections via precomputed row sums, then the shared float
/// epilogue per output element.  Parallel partitions only split (i, r)
/// space; each element's integer accumulation is exact, so results are
/// bit-identical at any thread count (and at any SIMD dispatch level).  The
/// batched VNNI tile stages its 4-byte-interleaved lanes from `at` with
/// contiguous 16-byte loads and an in-register byte transpose; the
/// per-sample path gathers one activation column.
void qgemm_t(const std::int8_t* at, std::size_t m, std::size_t k,
             const QuantParams& a_params, const PackedQuantMatrix& w,
             const float* bias, bool fuse_relu, float* out) {
  OPENEI_CHECK(k == w.cols(), "qgemm_t inner dims differ: ", k, " vs ",
               w.cols());
  OPENEI_CHECK(k <= kQgemmMaxK, "qgemm_t k ", k, " exceeds int32-exact bound");
  // The kernel view is zero-padded to 16-lane rows; matching zero-padded
  // activations contribute nothing, so all correction terms keep real k.
  const std::int8_t* wd = w.kernel_data();
  const std::size_t k_pad = w.kernel_cols();
  const float* ws = w.scales().data();
  const std::int32_t* row_sums = w.row_sums().data();
  const std::size_t rows = w.rows();
  const auto a_zp = static_cast<std::int64_t>(a_params.zero_point);
  const auto w_zp = static_cast<std::int64_t>(w.weight_zero_point());
  const std::int64_t zp_cross = a_zp * w_zp * static_cast<std::int64_t>(k);
#if OPENEI_X86_SIMD_DISPATCH
  // The VNNI kernels consume activations offset to unsigned (a + 128); their
  // raw accumulation therefore carries an extra 128 * row_sums[r], removed
  // below via acc_zp.  Integer arithmetic throughout, so still exact.
  const bool use_vnni = simd_level() >= 3;
#else
  constexpr bool use_vnni = false;
#endif
  const std::int64_t acc_zp = a_zp + (use_vnni ? 128 : 0);

  // Zero-point correction of one raw accumulation, then the epilogue.
  auto emit = [&](std::size_t i, std::size_t r, std::int32_t acc,
                  std::int64_t a_sum) {
    std::int64_t corrected = static_cast<std::int64_t>(acc) -
                             acc_zp * static_cast<std::int64_t>(row_sums[r]) -
                             w_zp * a_sum + zp_cross;
    out[i * rows + r] = requantize_epilogue(corrected, a_params.scale * ws[r],
                                            bias, r, fuse_relu);
  };

  // Per-sample path: stage activation column i, then run the per-i kernels
  // over weight rows [r0, r1).
  auto row_block = [&](std::size_t i, std::size_t r0, std::size_t r1) {
    const std::int8_t* col = at + i;
    std::int64_t a_sum = 0;
    if (w_zp != 0) {
      for (std::size_t p = 0; p < k; ++p) a_sum += col[p * m];
    }
    std::int16_t a16[kWidenTile];
#if OPENEI_X86_SIMD_DISPATCH
    std::uint8_t au8[kWidenTile];
#endif
    std::int32_t acc[kRowTile];
    for (std::size_t rt = r0; rt < r1; rt += kRowTile) {
      const std::size_t nrows = std::min(kRowTile, r1 - rt);
      std::fill(acc, acc + nrows, 0);
      // Tile k so the staged activations stay in the stack buffer; the
      // integer accumulators carry across chunks, so the sum is exact.
      // Activations beyond real k stage to (offset) zero, mirroring the
      // weight pad.
      for (std::size_t p0 = 0; p0 < k_pad; p0 += kWidenTile) {
        const std::size_t chunk = std::min(kWidenTile, k_pad - p0);
        const std::size_t real = p0 < k ? std::min(chunk, k - p0) : 0;
        const std::int8_t* src = col + p0 * m;
#if OPENEI_X86_SIMD_DISPATCH
        if (use_vnni) {
          // Two's-complement +128 is XOR 0x80: int8 -> biased uint8.
          gather_column(src, m, real, au8, [](std::int8_t v) {
            return static_cast<std::uint8_t>(static_cast<std::uint8_t>(v) ^
                                             0x80U);
          });
          std::fill(au8 + real, au8 + chunk, 0x80U);
          qgemm_rows_vnni(au8, wd + rt * k_pad + p0, k_pad, chunk, nrows,
                          acc);
          continue;
        }
#endif
        gather_column(src, m, real, a16,
                      [](std::int8_t v) { return std::int16_t{v}; });
        std::fill(a16 + real, a16 + chunk, 0);
        qgemm_rows(a16, wd + rt * k_pad + p0, k_pad, chunk, nrows, acc);
      }
      for (std::size_t j = 0; j < nrows; ++j) emit(i, rt + j, acc[j], a_sum);
    }
  };

#if OPENEI_X86_SIMD_DISPATCH
  if (use_vnni && m >= 16) {
    // Batched path: 16-sample tiles of A through the lane-parallel kernel.
    // kPackTile bounds the staged tile (16 * 1024 = 16 KB on the stack).
    constexpr std::size_t kPackTile = 1024;
    auto tile_block = [&](std::size_t i0, std::size_t ni) {
      std::int64_t a_sums[16] = {};
      if (w_zp != 0) {
        for (std::size_t p = 0; p < k; ++p) {
          const std::int8_t* arow = at + p * m + i0;
          for (std::size_t ii = 0; ii < ni; ++ii) a_sums[ii] += arow[ii];
        }
      }
      std::uint8_t at4[16 * kPackTile];
      std::int32_t acc[kRowTile * 16];
      for (std::size_t rt = 0; rt < rows; rt += kRowTile) {
        const std::size_t nrows = std::min(kRowTile, rows - rt);
        bool first = true;
        for (std::size_t p0 = 0; p0 < k_pad; p0 += kPackTile) {
          const std::size_t chunk = std::min(kPackTile, k_pad - p0);
          // Stage groups of 4 activation rows into the interleaved tile.
          // Full 16-lane groups use the SSE byte transpose (contiguous
          // loads from the [k, m] layout); k-boundary and ragged-width
          // groups fall back to the scalar fill with biased-zero padding
          // (unused lanes' outputs are never emitted).
          for (std::size_t p = 0; p < chunk; p += 4) {
            const std::size_t gp = p0 + p;
            std::uint8_t* dst = at4 + (p / 4) * 64;
            if (ni == 16 && gp + 4 <= k) {
              const std::int8_t* base = at + gp * m + i0;
              transpose4x16_bias(base, base + m, base + 2 * m, base + 3 * m,
                                 dst);
            } else {
              for (std::size_t j = 0; j < 4; ++j) {
                const std::size_t gpj = gp + j;
                for (std::size_t ii = 0; ii < 16; ++ii) {
                  dst[ii * 4 + j] =
                      (gpj < k && ii < ni)
                          ? static_cast<std::uint8_t>(at[gpj * m + i0 + ii]) ^
                                0x80U
                          : 0x80U;
                }
              }
            }
          }
          qgemm_tile16_vnni(at4, chunk, wd + rt * k_pad + p0, k_pad, nrows,
                            first, acc);
          first = false;
        }
        if (first) std::fill(acc, acc + nrows * 16, 0);  // k == 0 guard
        for (std::size_t j = 0; j < nrows; ++j) {
          for (std::size_t ii = 0; ii < ni; ++ii) {
            emit(i0 + ii, rt + j, acc[j * 16 + ii], a_sums[ii]);
          }
        }
      }
    };
    const std::size_t tiles = (m + 15) / 16;
    common::parallel_for(
        0, tiles,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            tile_block(t * 16, std::min<std::size_t>(16, m - t * 16));
          }
        },
        /*grain=*/std::max<std::size_t>(
            1, kQgemmSerialMacs / std::max<std::size_t>(1, 16 * k * rows)));
    return;
  }
#endif
  if (m * rows * k < kQgemmSerialMacs) {
    for (std::size_t i = 0; i < m; ++i) row_block(i, 0, rows);
    return;
  }
  if (m == 1) {
    // Single-sample inference: split the packed weight rows across the pool.
    common::parallel_for(
        0, rows, [&](std::size_t lo, std::size_t hi) { row_block(0, lo, hi); },
        /*grain=*/std::max<std::size_t>(
            1, kQgemmSerialMacs / std::max<std::size_t>(1, k)));
    return;
  }
  common::parallel_for(
      0, m,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) row_block(i, 0, rows);
      },
      /*grain=*/std::max<std::size_t>(
          1, kQgemmSerialMacs / std::max<std::size_t>(1, k * rows)));
}

void im2col_q8t(const std::int8_t* input, std::size_t n, std::size_t in_h,
                std::size_t in_w, const Conv2dSpec& spec,
                std::int8_t pad_value, std::int8_t* out) {
  const std::size_t out_h = spec.out_size(in_h);
  const std::size_t out_w = spec.out_size(in_w);
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  const std::size_t image_elems = spec.in_channels * in_h * in_w;
  const std::size_t m = n * out_h * out_w;
  const auto fill = static_cast<unsigned char>(pad_value);
  const std::size_t plane_elems = in_h * in_w;
  const bool same = spec.stride == 1 && out_h == in_h && out_w == in_w;
  const long h = static_cast<long>(in_h);
  const long w = static_cast<long>(in_w);

  // In the [patch, m] layout each (patch row, image, output row) triple is
  // one contiguous out_w-byte run: padding becomes memset and — at stride
  // 1, the common conv case — the interior becomes a straight memcpy from
  // the input row.  That is the whole point of the transposed layout; the
  // [m, patch] form can only scatter strided single bytes here.
  common::parallel_for(
      0, patch,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          const std::size_t ic = p / (spec.kernel * spec.kernel);
          const std::size_t kh = (p / spec.kernel) % spec.kernel;
          const std::size_t kw = p % spec.kernel;
          // Valid output-column range: iw = ow*stride + kw - padding must
          // land in [0, in_w).
          const long shift =
              static_cast<long>(kw) - static_cast<long>(spec.padding);
          std::size_t ow_lo =
              shift < 0 ? (static_cast<std::size_t>(-shift) + spec.stride - 1) /
                              spec.stride
                        : 0;
          ow_lo = std::min(ow_lo, out_w);
          const long limit = static_cast<long>(in_w) - 1 - shift;
          const std::size_t ow_hi = std::max(
              ow_lo,
              limit < 0 ? 0
                        : std::min(out_w, static_cast<std::size_t>(limit) /
                                              spec.stride +
                                          1));
          std::int8_t* prow = out + p * m;
          for (std::size_t b = 0; b < n; ++b) {
            const std::int8_t* plane =
                input + b * image_elems + ic * in_h * in_w;
            if (same) {
              // Stride 1, out == in: this patch row is the whole plane
              // shifted by (kh - pad, kw - pad) — one memcpy, then the rows
              // and columns shifted in from outside get the pad value.
              std::int8_t* dst = prow + b * plane_elems;
              const long dy =
                  static_cast<long>(kh) - static_cast<long>(spec.padding);
              const long d = dy * w + shift;
              const long rows_lo = std::max(0L, -dy);
              const long rows_hi = std::min(h, h - dy);
              const long lo = std::min(h * w, std::max(rows_lo * w, -d));
              const long hi = std::max(lo, std::min(rows_hi * w, h * w - d));
              std::memset(dst, fill, static_cast<std::size_t>(lo));
              if (hi > lo) {
                std::memcpy(dst + lo, plane + lo + d,
                            static_cast<std::size_t>(hi - lo));
              }
              std::memset(dst + hi, fill, static_cast<std::size_t>(h * w - hi));
              for (long y = rows_lo; y < rows_hi; ++y) {  // edges: <= pad bytes
                std::int8_t* row = dst + y * w;
                for (std::size_t x = 0; x < ow_lo; ++x) row[x] = pad_value;
                for (std::size_t x = ow_hi; x < out_w; ++x) row[x] = pad_value;
              }
              continue;
            }
            for (std::size_t oh = 0; oh < out_h; ++oh) {
              std::int8_t* dst = prow + (b * out_h + oh) * out_w;
              const long ih = static_cast<long>(oh * spec.stride + kh) -
                              static_cast<long>(spec.padding);
              if (ih < 0 || static_cast<std::size_t>(ih) >= in_h) {
                std::memset(dst, fill, out_w);
                continue;
              }
              const std::int8_t* irow =
                  plane + static_cast<std::size_t>(ih) * in_w;
              if (ow_lo > 0) std::memset(dst, fill, ow_lo);
              const std::size_t span = ow_hi - ow_lo;
              if (span != 0) {
                const std::int8_t* src = irow + ow_lo * spec.stride + shift;
                if (spec.stride == 1) {
                  std::memcpy(dst + ow_lo, src, span);
                } else {
                  for (std::size_t t = 0; t < span; ++t) {
                    dst[ow_lo + t] = src[t * spec.stride];
                  }
                }
              }
              if (ow_hi < out_w) {
                std::memset(dst + ow_hi, fill, out_w - ow_hi);
              }
            }
          }
        }
      },
      /*grain=*/std::max<std::size_t>(1, 4096 / std::max<std::size_t>(1, m)));
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
