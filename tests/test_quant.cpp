// The int8 execution engine's regression suite (`ctest -L quant`): QuantParams
// edge cases, the int8 GEMM (exactness vs an integer reference, thread-count
// bit-identity, fused epilogues, legacy zero-point correction), quantized
// conv, activation calibration, the new/legacy serialized formats, the
// zero-alloc forward arena's bitwise equivalence with Model::forward, and the
// zero-allocation guarantee on steady-state InferenceSession calls.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "compress/quantize_model.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/factored_conv.h"
#include "nn/residual.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "runtime/arena.h"
#include "runtime/inference.h"
#include "tensor/ops.h"
#include "tensor/pack.h"
#include "tensor/quantize.h"

namespace openei {
namespace {

using common::Rng;
using tensor::PackedQuantMatrix;
using tensor::QuantizedTensor;
using tensor::QuantParams;
using tensor::Shape;
using tensor::Tensor;

/// Restores the previous thread count when a test scope ends.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : previous_(common::thread_count()) {
    common::set_thread_count(n);
  }
  ~ScopedThreads() { common::set_thread_count(previous_); }

 private:
  std::size_t previous_;
};

/// Clamps both engines' dispatch level for the scope, so one host can drive
/// every int8 kernel it supports.
class ScopedIsaCap {
 public:
  explicit ScopedIsaCap(int cap) : previous_(tensor::detail::set_isa_cap(cap)) {}
  ~ScopedIsaCap() { tensor::detail::set_isa_cap(previous_); }

 private:
  int previous_;
};

/// The rows qgemm takes, from row-major [m, k] int8 activations: biased
/// bytes, row stride qgemm_row_bytes(k), tails biased(0).
std::vector<std::uint8_t> biased_rows(const std::vector<std::int8_t>& a,
                                      std::size_t m, std::size_t k) {
  const std::size_t lda = tensor::qgemm_row_bytes(k);
  std::vector<std::uint8_t> rows(m * lda, tensor::biased(0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      rows[i * lda + p] = tensor::biased(a[i * k + p]);
    }
  }
  return rows;
}

float dequant_one(std::int8_t q, const QuantParams& p) {
  return p.scale * static_cast<float>(static_cast<std::int32_t>(q) - p.zero_point);
}

// ---------------------------------------------------------------------------
// QuantParams::choose edge cases (satellite: constant tensors, straddling
// ranges, saturation round-trip).
// ---------------------------------------------------------------------------

TEST(QuantParamsEdge, ConstantPositiveTensorKeepsFiniteNonzeroScale) {
  QuantParams p = QuantParams::choose(5.0F, 5.0F);  // widened to [0, 5]
  EXPECT_TRUE(std::isfinite(p.scale));
  EXPECT_GT(p.scale, 0.0F);
  // 5.0 must survive the round trip to within half a step.
  float back = dequant_one(tensor::quantize_one(5.0F, p), p);
  EXPECT_NEAR(back, 5.0F, tensor::quantization_step_error(p));
}

TEST(QuantParamsEdge, AllZeroTensorQuantizesZeroExactly) {
  QuantParams p = QuantParams::choose(0.0F, 0.0F);
  EXPECT_EQ(p.scale, 1.0F);
  EXPECT_EQ(p.zero_point, 0);
  EXPECT_EQ(tensor::quantize_one(0.0F, p), 0);
  EXPECT_EQ(dequant_one(tensor::quantize_one(0.0F, p), p), 0.0F);
}

TEST(QuantParamsEdge, ConstantNegativeTensorStaysRepresentable) {
  QuantParams p = QuantParams::choose(-3.0F, -3.0F);  // widened to [-3, 0]
  EXPECT_GT(p.scale, 0.0F);
  float back = dequant_one(tensor::quantize_one(-3.0F, p), p);
  EXPECT_NEAR(back, -3.0F, tensor::quantization_step_error(p));
}

TEST(QuantParamsEdge, DenormalSpanFlooredAtSmallestNormal) {
  QuantParams p = QuantParams::choose(0.0F, 1e-44F);
  EXPECT_TRUE(std::isfinite(p.scale));
  EXPECT_GE(p.scale, std::numeric_limits<float>::min());
}

TEST(QuantParamsEdge, AsymmetricStraddlingRangeHasExactZeroPoint) {
  for (auto [lo, hi] : {std::pair<float, float>{-0.1F, 10.0F},
                        {-7.3F, 0.2F},
                        {-1e-3F, 1e3F},
                        {-100.0F, 1.0F}}) {
    QuantParams p = QuantParams::choose(lo, hi);
    // zero_point is an int8 value, and 0.0 must encode/decode exactly.
    EXPECT_GE(p.zero_point, -128);
    EXPECT_LE(p.zero_point, 127);
    std::int8_t q0 = tensor::quantize_one(0.0F, p);
    EXPECT_EQ(static_cast<std::int32_t>(q0), p.zero_point);
    EXPECT_EQ(dequant_one(q0, p), 0.0F);
  }
}

TEST(QuantParamsEdge, SaturationRoundTripClampsToInt8Range) {
  QuantParams p = QuantParams::choose(-1.0F, 1.0F);
  EXPECT_EQ(static_cast<std::int32_t>(tensor::quantize_one(1e6F, p)), 127);
  EXPECT_EQ(static_cast<std::int32_t>(tensor::quantize_one(-1e6F, p)), -128);
  // Saturated values decode to the range edges, not garbage.
  EXPECT_NEAR(dequant_one(tensor::quantize_one(1e6F, p), p), 1.0F,
              2.0F * tensor::quantization_step_error(p));
}

TEST(QuantParamsEdge, RejectsNonFiniteAndReversedRanges) {
  EXPECT_THROW(QuantParams::choose(std::numeric_limits<float>::quiet_NaN(), 1.0F),
               InvalidArgument);
  EXPECT_THROW(QuantParams::choose(0.0F, std::numeric_limits<float>::infinity()),
               InvalidArgument);
  EXPECT_THROW(QuantParams::choose(2.0F, 1.0F), InvalidArgument);
}

// The bulk quantizers equal quantize_one element by element at every ISA
// level: exact half-step ties of both signs, signed zeros, values past the
// +-512-step clamp, subnormals, and every length 1-67 (each masked tail).
TEST(QuantizeBulk, MatchesQuantizeOneAtEveryIsaLevel) {
  const float tiny = std::numeric_limits<float>::denorm_min();
  std::vector<float> pool = {0.0F, -0.0F, tiny, -tiny, 1e-40F, -1e-40F,
                             std::numeric_limits<float>::min(), 1e30F, -1e30F};
  for (int k = -140; k <= 140; ++k) {
    pool.push_back((static_cast<float>(k) + 0.5F) * 0.25F);  // ties at 0.25
    // Near-ties at 0.0123, one ulp either side too: a multiply by the
    // reciprocal rounds about one in six of them to the other integer.
    const float near = (static_cast<float>(k) + 0.5F) * 0.0123F;
    pool.push_back(near);
    pool.push_back(std::nextafter(near, 1e30F));
    pool.push_back(std::nextafter(near, -1e30F));
  }
  for (float steps : {511.5F, 512.0F, 512.5F, 513.0F, 600.0F, 5000.0F}) {
    pool.push_back(steps * 0.25F);
    pool.push_back(-steps * 0.25F);
  }
  Rng rng(211);
  for (int i = 0; i < 64; ++i) pool.push_back(rng.uniform_float(-40.0F, 40.0F));

  std::vector<QuantParams> params(4);
  params[0].scale = 0.25F;  // zero point 0: every tie above is exact
  params[1].scale = 0.25F;
  params[1].zero_point = -128;
  params[2].scale = 0.25F;
  params[2].zero_point = 127;
  params[3].scale = 0.0123F;
  params[3].zero_point = 37;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 67; ++n) lengths.push_back(n);
  lengths.push_back(pool.size());
  for (int level = 0; level <= tensor::int8_isa_level(); ++level) {
    ScopedIsaCap cap(level);
    for (const QuantParams& p : params) {
      for (std::size_t n : lengths) {
        const std::size_t start = n * 31 % (pool.size() - n + 1);
        const float* src = pool.data() + start;
        std::vector<std::int8_t> q(n + 1, 99);  // the sentinel must survive
        std::vector<std::uint8_t> b(n + 1, 99);
        tensor::quantize_to_int8(src, n, p, q.data());
        tensor::quantize_biased(src, n, p, b.data());
        for (std::size_t i = 0; i < n; ++i) {
          const std::int8_t want = tensor::quantize_one(src[i], p);
          ASSERT_EQ(q[i], want) << "level " << level << " n " << n << " v "
                                << src[i] << " scale " << p.scale;
          ASSERT_EQ(b[i], tensor::biased(want))
              << "level " << level << " n " << n << " v " << src[i];
        }
        ASSERT_EQ(q[n], 99) << "level " << level << " n " << n;
        ASSERT_EQ(b[n], 99) << "level " << level << " n " << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Packed weights.
// ---------------------------------------------------------------------------

TEST(PackedQuantMatrixTest, PerChannelScalesTrackRowMagnitudes) {
  Rng rng(7);
  Tensor w(Shape{3, 8});
  auto d = w.data();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      d[r * 8 + c] = rng.uniform_float(-1.0F, 1.0F) *
                     static_cast<float>(1 << (2 * r));  // rows span 1x,4x,16x
    }
  }
  PackedQuantMatrix packed = PackedQuantMatrix::pack_rows(w, /*per_channel=*/true);
  ASSERT_EQ(packed.scales().size(), 3U);
  EXPECT_LT(packed.scales()[0], packed.scales()[1]);
  EXPECT_LT(packed.scales()[1], packed.scales()[2]);
  EXPECT_EQ(packed.weight_zero_point(), 0);
  // Symmetric quantization keeps every row within [-127, 127].
  for (std::int8_t v : packed.data()) EXPECT_GE(static_cast<int>(v), -127);
}

TEST(PackedQuantMatrixTest, AllZeroRowGetsUsableScale) {
  Tensor w(Shape{2, 4});
  auto d = w.data();
  for (std::size_t c = 0; c < 4; ++c) d[4 + c] = 0.5F;  // row 0 all zero
  PackedQuantMatrix packed = PackedQuantMatrix::pack_rows(w, true);
  EXPECT_EQ(packed.scales()[0], 1.0F);
  Tensor back = packed.dequantize();
  for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(back.data()[c], 0.0F);
}

TEST(PackedQuantMatrixTest, RowSumsMatchData) {
  Rng rng(11);
  Tensor w = Tensor::random_uniform(Shape{5, 9}, rng, -2.0F, 2.0F);
  PackedQuantMatrix packed = PackedQuantMatrix::pack_rows(w, true);
  for (std::size_t r = 0; r < 5; ++r) {
    std::int32_t sum = 0;
    for (std::size_t c = 0; c < 9; ++c) {
      sum += packed.data()[r * 9 + c];
    }
    EXPECT_EQ(packed.row_sums()[r], sum);
  }
}

TEST(PackedQuantMatrixTest, StorageIsInt8PlusScales) {
  Rng rng(3);
  Tensor w = Tensor::random_uniform(Shape{16, 32}, rng, -1.0F, 1.0F);
  PackedQuantMatrix packed = PackedQuantMatrix::pack_rows(w, true);
  EXPECT_EQ(packed.storage_bytes(), 16U * 32U + 16U * sizeof(float));
}

// ---------------------------------------------------------------------------
// int8 GEMM.
// ---------------------------------------------------------------------------

/// Naive integer reference over row-major [m, k] activations applying the
/// exact epilogue arithmetic; qgemm on the biased rows must match it
/// bit-for-bit (same int math, same float expression order).
std::vector<float> qgemm_reference(const std::vector<std::int8_t>& a,
                                   std::size_t m, std::size_t k,
                                   const QuantParams& a_params,
                                   const PackedQuantMatrix& w,
                                   const float* bias, bool fuse_relu) {
  std::vector<float> out(m * w.rows());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t r = 0; r < w.rows(); ++r) {
      std::int64_t acc = 0;
      std::int64_t a_sum = 0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[i * k + p]) *
               static_cast<std::int32_t>(w.data()[r * k + p]);
        a_sum += a[i * k + p];
      }
      auto a_zp = static_cast<std::int64_t>(a_params.zero_point);
      auto w_zp = static_cast<std::int64_t>(w.weight_zero_point());
      std::int64_t corrected = acc - a_zp * w.row_sums()[r] - w_zp * a_sum +
                               a_zp * w_zp * static_cast<std::int64_t>(k);
      float v = a_params.scale * w.scales()[r] * static_cast<float>(corrected);
      if (bias != nullptr) v += bias[r];
      if (fuse_relu && v < 0.0F) v = 0.0F;
      out[i * w.rows() + r] = v;
    }
  }
  return out;
}

struct QgemmCase {
  std::size_t m, k, rows;
  bool per_channel;
};

class QgemmTest : public ::testing::TestWithParam<QgemmCase> {};

TEST_P(QgemmTest, MatchesIntegerReferenceExactly) {
  auto [m, k, rows, per_channel] = GetParam();
  Rng rng(13 + m + k + rows);
  Tensor aw = Tensor::random_uniform(Shape{m, k}, rng, -3.0F, 2.0F);
  Tensor w = Tensor::random_uniform(Shape{rows, k}, rng, -1.5F, 1.5F);
  Tensor bias = Tensor::random_uniform(Shape{rows}, rng, -0.5F, 0.5F);

  QuantParams a_params = QuantParams::choose(aw.min(), aw.max());
  std::vector<std::int8_t> a(m * k);
  tensor::quantize_to_int8(aw.data().data(), a.size(), a_params, a.data());
  PackedQuantMatrix packed = PackedQuantMatrix::pack_rows(w, per_channel);

  std::vector<std::uint8_t> qa = biased_rows(a, m, k);
  std::vector<float> ref = qgemm_reference(a, m, k, a_params, packed,
                                           bias.data().data(), false);
  // Every kernel this host reaches (scalar, AVX2, AVX-512 pmaddwd, VNNI)
  // must reproduce the integer reference bit for bit.
  for (int level = 0; level <= tensor::int8_isa_level(); ++level) {
    ScopedIsaCap cap(level);
    std::vector<float> out(m * rows);
    tensor::qgemm(qa.data(), m, k, a_params, packed, bias.data().data(),
                  /*fuse_relu=*/false, out.data());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                std::bit_cast<std::uint32_t>(ref[i]))
          << i << " level " << level;
    }
  }
}

TEST_P(QgemmTest, BitIdenticalAcrossThreadCounts) {
  auto [m, k, rows, per_channel] = GetParam();
  Rng rng(29 + m);
  Tensor aw = Tensor::random_uniform(Shape{m, k}, rng, -2.0F, 2.0F);
  Tensor w = Tensor::random_uniform(Shape{rows, k}, rng, -1.0F, 1.0F);
  QuantParams a_params = QuantParams::choose(aw.min(), aw.max());
  std::vector<std::int8_t> a(m * k);
  tensor::quantize_to_int8(aw.data().data(), a.size(), a_params, a.data());
  PackedQuantMatrix packed = PackedQuantMatrix::pack_rows(w, per_channel);

  std::vector<std::uint8_t> qa = biased_rows(a, m, k);
  std::vector<float> baseline(m * rows);
  {
    ScopedThreads threads(1);
    tensor::qgemm(qa.data(), m, k, a_params, packed, nullptr, false,
                  baseline.data());
  }
  for (std::size_t n : {2U, 4U, 8U}) {
    ScopedThreads threads(n);
    std::vector<float> out(m * rows);
    tensor::qgemm(qa.data(), m, k, a_params, packed, nullptr, false,
                  out.data());
    EXPECT_EQ(std::memcmp(out.data(), baseline.data(),
                          out.size() * sizeof(float)),
              0)
        << "threads=" << n;
  }
}

// Named for the transposed-activation GEMM it once checked; it now pins
// the biased rows that quantize_biased writes, with bias and fused ReLU, to
// the reference on the plain int8 values.
TEST_P(QgemmTest, TransposedVariantBitIdentical) {
  auto [m, k, rows, per_channel] = GetParam();
  Rng rng(57 + m + rows);
  Tensor aw = Tensor::random_uniform(Shape{m, k}, rng, -2.5F, 2.0F);
  Tensor w = Tensor::random_uniform(Shape{rows, k}, rng, -1.2F, 1.2F);
  Tensor bias = Tensor::random_uniform(Shape{rows}, rng, -0.5F, 0.5F);
  QuantParams a_params = QuantParams::choose(aw.min(), aw.max());
  std::vector<std::int8_t> a(m * k);
  tensor::quantize_to_int8(aw.data().data(), a.size(), a_params, a.data());
  const std::size_t lda = tensor::qgemm_row_bytes(k);
  std::vector<std::uint8_t> qa(m * lda, tensor::biased(0));
  for (std::size_t i = 0; i < m; ++i) {
    tensor::quantize_biased(aw.data().data() + i * k, k, a_params,
                            qa.data() + i * lda);
  }
  EXPECT_EQ(qa, biased_rows(a, m, k));
  PackedQuantMatrix packed = PackedQuantMatrix::pack_rows(w, per_channel);

  std::vector<float> ref = qgemm_reference(a, m, k, a_params, packed,
                                           bias.data().data(),
                                           /*fuse_relu=*/true);
  for (std::size_t n : {1U, 4U}) {
    ScopedThreads threads(n);
    std::vector<float> out(m * rows);
    tensor::qgemm(qa.data(), m, k, a_params, packed, bias.data().data(),
                  /*fuse_relu=*/true, out.data());
    EXPECT_EQ(std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)),
              0)
        << "threads=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QgemmTest,
    ::testing::Values(QgemmCase{1, 16, 8, true},     // serial path
                      QgemmCase{1, 256, 512, true},  // m==1 parallel rows
                      QgemmCase{64, 128, 96, true},  // general parallel
                      QgemmCase{64, 128, 96, false},
                      QgemmCase{7, 33, 5, true}));  // odd sizes

// m across the 8-row register tile (1, 2, 7, 8, 9, 256), k across the
// 4-byte dword tail (1, 3, 27, 144, 289), output channels across the
// 16-channel blocks and 64-channel task groups (4, 10, 16, 17, 32, 96),
// without and with bias + fused ReLU, at every ISA level the host reaches
// and at 1 and 4 threads (the largest shapes fork).
TEST(QgemmSweep, ExactAtEveryIsaLevelAndThreadCount) {
  Rng rng(19);
  for (std::size_t m : {1U, 2U, 7U, 8U, 9U, 256U}) {
    for (std::size_t k : {1U, 3U, 27U, 144U, 289U}) {
      for (std::size_t oc : {4U, 10U, 16U, 17U, 32U, 96U}) {
        Tensor aw = Tensor::random_uniform(Shape{m, k}, rng, -2.0F, 3.0F);
        Tensor w = Tensor::random_uniform(Shape{oc, k}, rng, -1.0F, 1.0F);
        Tensor bias = Tensor::random_uniform(Shape{oc}, rng, -0.5F, 0.5F);
        QuantParams a_params = QuantParams::choose(aw.min(), aw.max());
        std::vector<std::int8_t> a(m * k);
        tensor::quantize_to_int8(aw.data().data(), a.size(), a_params,
                                 a.data());
        std::vector<std::uint8_t> qa = biased_rows(a, m, k);
        PackedQuantMatrix packed = PackedQuantMatrix::pack_rows(w, true);
        for (bool epilogue : {false, true}) {
          const float* b = epilogue ? bias.data().data() : nullptr;
          std::vector<float> ref =
              qgemm_reference(a, m, k, a_params, packed, b, epilogue);
          for (int level = 0; level <= tensor::int8_isa_level(); ++level) {
            ScopedIsaCap cap(level);
            for (std::size_t threads : {1U, 4U}) {
              ScopedThreads scope(threads);
              std::vector<float> out(m * oc);
              tensor::qgemm(qa.data(), m, k, a_params, packed, b, epilogue,
                            out.data());
              ASSERT_EQ(std::memcmp(out.data(), ref.data(),
                                    out.size() * sizeof(float)),
                        0)
                  << "m=" << m << " k=" << k << " oc=" << oc
                  << " epilogue=" << epilogue << " level=" << level
                  << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

// Legacy per-tensor weights (nonzero weight zero point, full int8 range)
// keep the scalar int64 correction at every level; it must be exact too.
TEST(QgemmSweep, LegacyPerTensorWeightsExactAtEveryIsaLevel) {
  Rng rng(21);
  for (auto [m, k, oc] : {std::array<std::size_t, 3>{1, 27, 17},
                          std::array<std::size_t, 3>{9, 144, 32},
                          std::array<std::size_t, 3>{256, 289, 96}}) {
    Tensor wt = Tensor::random_uniform(Shape{k, oc}, rng, 0.1F, 1.3F);
    QuantizedTensor qw = QuantizedTensor::quantize(wt);
    ASSERT_NE(qw.params().zero_point, 0);
    PackedQuantMatrix packed = PackedQuantMatrix::from_per_tensor(qw);
    Tensor aw = Tensor::random_uniform(Shape{m, k}, rng, -1.0F, 2.0F);
    Tensor bias = Tensor::random_uniform(Shape{oc}, rng, -0.5F, 0.5F);
    QuantParams a_params = QuantParams::choose(aw.min(), aw.max());
    std::vector<std::int8_t> a(m * k);
    tensor::quantize_to_int8(aw.data().data(), a.size(), a_params, a.data());
    std::vector<std::uint8_t> qa = biased_rows(a, m, k);
    std::vector<float> ref = qgemm_reference(a, m, k, a_params, packed,
                                             bias.data().data(), true);
    for (int level = 0; level <= tensor::int8_isa_level(); ++level) {
      ScopedIsaCap cap(level);
      for (std::size_t threads : {1U, 4U}) {
        ScopedThreads scope(threads);
        std::vector<float> out(m * oc);
        tensor::qgemm(qa.data(), m, k, a_params, packed, bias.data().data(),
                      true, out.data());
        ASSERT_EQ(std::memcmp(out.data(), ref.data(),
                              out.size() * sizeof(float)),
                  0)
            << "m=" << m << " level=" << level << " threads=" << threads;
      }
    }
  }
}

/// Checks im2col_nhwc_q8 against the float channels-last gather on the same
/// values shifted by the pad byte: every byte v becomes the exact float
/// v - pad, so the float gather's 0.0 padding maps back to `pad`.
void expect_gather_matches_float(std::size_t n, std::size_t c, std::size_t h,
                                 std::size_t w, std::size_t kernel,
                                 std::size_t stride, std::size_t padding) {
  tensor::Conv2dSpec spec;
  spec.in_channels = c;
  spec.kernel = kernel;
  spec.stride = stride;
  spec.padding = padding;
  Rng rng(61 + h * 10 + w + kernel + stride);
  std::vector<std::uint8_t> input(n * h * w * c);
  for (auto& v : input) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const std::uint8_t pad = 131;
  std::vector<float> shifted(input.size());
  for (std::size_t j = 0; j < input.size(); ++j) {
    shifted[j] = static_cast<float>(input[j]) - static_cast<float>(pad);
  }
  const std::size_t patch = c * kernel * kernel;
  const std::size_t lda = tensor::qgemm_row_bytes(patch);
  const std::size_t m = n * spec.out_size(h) * spec.out_size(w);
  std::vector<float> rows(m * patch);
  tensor::im2col_nhwc_into(shifted.data(), n, h, w, spec, rows.data());
  // Levels below AVX-512 take the memcpy gather, the rest the masked one.
  for (int level : {0, tensor::int8_isa_level()}) {
    ScopedIsaCap cap(level);
    std::vector<std::uint8_t> q(m * lda, 7);
    tensor::im2col_nhwc_q8(input.data(), n, h, w, spec, pad, q.data());
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t p = 0; p < lda; ++p) {
        const std::uint8_t want =
            p < patch ? static_cast<std::uint8_t>(rows[i * patch + p] + pad)
                      : tensor::biased(0);
        ASSERT_EQ(q[i * lda + p], want)
            << "c" << c << " " << h << "x" << w << " k" << kernel << " s"
            << stride << " pad " << padding << " level " << level
            << " i=" << i << " p=" << p;
      }
    }
  }
}

TEST(Im2colNhwcQ8, MatchesFloatGatherOnNonSquareInputs) {
  for (std::size_t c : {3U, 16U}) {
    for (std::size_t kernel : {1U, 3U, 5U}) {
      for (std::size_t stride : {1U, 2U}) {
        for (std::size_t padding : {0U, 1U, 2U}) {
          expect_gather_matches_float(2, c, 7, 9, kernel, stride, padding);
        }
      }
    }
  }
}

// Runs longer than one 64-byte vector (k * C = 5 * 32 bytes per kernel row)
// and a 5x5 kernel on a 3x4 image, where every patch is mostly padding.
TEST(Im2colNhwcQ8, LongRunsAndPaddingDominatedPatches) {
  expect_gather_matches_float(1, 32, 6, 5, 5, 1, 2);
  expect_gather_matches_float(2, 3, 3, 4, 5, 1, 2);
  expect_gather_matches_float(1, 5, 4, 4, 3, 2, 1);
}

TEST(QgemmEpilogue, FusedReluMatchesSeparateRelu) {
  Rng rng(17);
  Tensor aw = Tensor::random_uniform(Shape{6, 24}, rng, -2.0F, 2.0F);
  Tensor w = Tensor::random_uniform(Shape{10, 24}, rng, -1.0F, 1.0F);
  Tensor bias = Tensor::random_uniform(Shape{10}, rng, -1.0F, 1.0F);
  QuantParams p = QuantParams::choose(aw.min(), aw.max());
  std::vector<std::int8_t> a(6 * 24);
  tensor::quantize_to_int8(aw.data().data(), a.size(), p, a.data());
  PackedQuantMatrix packed = PackedQuantMatrix::pack_rows(w, true);

  std::vector<std::uint8_t> qa = biased_rows(a, 6, 24);
  std::vector<float> plain(6 * 10);
  std::vector<float> fused(6 * 10);
  tensor::qgemm(qa.data(), 6, 24, p, packed, bias.data().data(), false,
                plain.data());
  tensor::qgemm(qa.data(), 6, 24, p, packed, bias.data().data(), true,
                fused.data());
  bool saw_negative = false;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    saw_negative = saw_negative || plain[i] < 0.0F;
    EXPECT_EQ(fused[i], plain[i] < 0.0F ? 0.0F : plain[i]);
  }
  EXPECT_TRUE(saw_negative);  // the case exercised clamping
}

TEST(QgemmEpilogue, LegacyWeightZeroPointIsCorrected) {
  // Route affine per-tensor weights (nonzero zero point) through the GEMM and
  // check the zero-point correction against the dequantized float product.
  Rng rng(23);
  Tensor w = Tensor::random_uniform(Shape{20, 15}, rng, 0.1F, 1.1F);  // skewed
  QuantizedTensor qw = QuantizedTensor::quantize(w);
  ASSERT_NE(qw.params().zero_point, 0);  // the point of this test
  PackedQuantMatrix packed = PackedQuantMatrix::from_per_tensor(qw);

  Tensor aw = Tensor::random_uniform(Shape{3, 20}, rng, -1.0F, 1.0F);
  QuantParams p = QuantParams::choose(aw.min(), aw.max());
  std::vector<std::int8_t> a(3 * 20);
  tensor::quantize_to_int8(aw.data().data(), a.size(), p, a.data());

  std::vector<std::uint8_t> qa = biased_rows(a, 3, 20);
  std::vector<float> out(3 * 15);
  tensor::qgemm(qa.data(), 3, 20, p, packed, nullptr, false, out.data());

  // Reference: dequantize both operands and multiply in float.  The integer
  // path differs only by quantization error, not by any zero-point bias.
  Tensor wq = packed.dequantize();  // [rows=15? no: rows=out=15, cols=20]
  float tol = 20.0F * 3.0F *
              (tensor::quantization_step_error(p) +
               tensor::quantization_step_error(qw.params()));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t r = 0; r < 15; ++r) {
      float acc = 0.0F;
      for (std::size_t c = 0; c < 20; ++c) {
        acc += dequant_one(a[i * 20 + c], p) * wq.data()[r * 20 + c];
      }
      EXPECT_NEAR(out[i * 15 + r], acc, tol);
    }
  }
}

TEST(QgemmEpilogue, RejectsKBeyondInt32ExactBound) {
  std::vector<std::int8_t> a(1, 1);
  PackedQuantMatrix packed(1, 1, {1}, {1.0F}, 0, true);
  std::vector<float> out(1);
  // k mismatch with w.cols() trips the dimension check; the k-bound check
  // needs a matching oversized matrix.
  std::size_t big = (1ULL << 16) + 1;
  std::vector<std::uint8_t> big_a(tensor::qgemm_row_bytes(big),
                                  tensor::biased(0));
  PackedQuantMatrix big_w(1, big, std::vector<std::int8_t>(big, 0), {1.0F}, 0,
                          true);
  EXPECT_THROW(tensor::qgemm(big_a.data(), 1, big, QuantParams{}, big_w,
                             nullptr, false, out.data()),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Quantized layers.
// ---------------------------------------------------------------------------

TEST(QuantizedConv2dTest, TracksFloatConvWithinQuantizationError) {
  Rng rng(31);
  tensor::Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 8;
  spec.kernel = 3;
  spec.padding = 1;
  nn::Conv2d conv(spec, rng);
  auto qconv = nn::QuantizedConv2d::from_conv(conv);

  Tensor input = Tensor::random_uniform(Shape{2, 3, 8, 8}, rng, -1.0F, 1.0F);
  Tensor exact = conv.forward(input, false);
  Tensor approx = qconv->forward(input, false);
  ASSERT_EQ(approx.shape(), exact.shape());
  float worst = 0.0F;
  float scale = 0.0F;
  for (std::size_t i = 0; i < exact.elements(); ++i) {
    worst = std::max(worst, std::abs(approx.data()[i] - exact.data()[i]));
    scale = std::max(scale, std::abs(exact.data()[i]));
  }
  // int8 conv error stays a small fraction of the activation magnitude.
  EXPECT_LT(worst, 0.05F * std::max(scale, 1.0F));
}

TEST(QuantizedConv2dTest, PaddingGathersTheExactZeroEncoding) {
  // A padded quantized conv must equal the same conv run without padding on
  // an input embedded in an explicit zero border — bit for bit, because the
  // pad value is the activation zero point (the exact int8 encoding of 0.0).
  Rng rng(37);
  tensor::Conv2dSpec padded;
  padded.in_channels = 2;
  padded.out_channels = 4;
  padded.kernel = 3;
  padded.padding = 1;
  nn::Conv2d conv(padded, rng);
  auto qconv = nn::QuantizedConv2d::from_conv(conv);

  tensor::Conv2dSpec unpadded = padded;
  unpadded.padding = 0;
  nn::Conv2d conv0(unpadded, conv.weights(), conv.bias());
  auto qconv0 = nn::QuantizedConv2d::from_conv(conv0);

  Tensor input = Tensor::random_uniform(Shape{1, 2, 6, 6}, rng, -1.0F, 1.0F);
  Tensor embedded(Shape{1, 2, 8, 8});
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t y = 0; y < 6; ++y) {
      for (std::size_t x = 0; x < 6; ++x) {
        embedded.at4(0, c, y + 1, x + 1) = input.at4(0, c, y, x);
      }
    }
  }
  // Pin identical activation params so the dynamic ranges cannot differ.
  QuantParams p = QuantParams::choose(input.min(), input.max());
  qconv->set_input_params(p);
  qconv0->set_input_params(p);

  Tensor via_padding = qconv->forward(input, false);
  Tensor via_border = qconv0->forward(embedded, false);
  ASSERT_EQ(via_padding.elements(), via_border.elements());
  for (std::size_t i = 0; i < via_padding.elements(); ++i) {
    EXPECT_EQ(via_padding.data()[i], via_border.data()[i]) << i;
  }
}

// A 1x1, stride-1, unpadded conv over C % 4 == 0 channels feeds its
// quantized input straight to the GEMM; over C = 3 it gathers rows padded
// to 4 bytes.  Both must equal the integer reference on the quantized
// pixels (a 1x1 patch's channel order is the stored weight order).
TEST(QuantizedConv2dTest, PointwiseConvSkipsTheGatherOnAlignedChannels) {
  for (std::size_t c : {3U, 16U}) {
    Rng rng(47 + c);
    tensor::Conv2dSpec spec;
    spec.in_channels = c;
    spec.out_channels = 10;
    spec.kernel = 1;
    auto qconv = nn::QuantizedConv2d::from_conv(nn::Conv2d(spec, rng));
    EXPECT_EQ(qconv->patch_row_bytes(),
              c % 4 == 0 ? 0U : tensor::qgemm_row_bytes(c));
    const std::size_t n = 2, h = 5, w = 3, pixels = n * h * w;
    Tensor nhwc = Tensor::random_uniform(Shape{pixels, c}, rng, -1.0F, 1.0F);
    QuantParams p = QuantParams::choose(nhwc.min(), nhwc.max());
    qconv->set_input_params(p);
    std::vector<std::int8_t> a(pixels * c);
    tensor::quantize_to_int8(nhwc.data().data(), a.size(), p, a.data());
    std::vector<float> ref =
        qgemm_reference(a, pixels, c, p, qconv->packed_weights(),
                        qconv->bias().data().data(), /*fuse_relu=*/true);
    std::vector<std::uint8_t> staging(pixels * c);
    std::vector<std::uint8_t> patches(pixels * qconv->patch_row_bytes());
    std::vector<float> out(pixels * 10);
    qconv->forward_into(nhwc.data().data(), n, h, w, staging.data(),
                        patches.data(), /*fuse_relu=*/true, out.data());
    EXPECT_EQ(std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)),
              0)
        << "C=" << c;
  }
}

TEST(QuantizedConv2dTest, BackwardThrowsAndClonePreservesCalibration) {
  Rng rng(41);
  tensor::Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 2;
  spec.kernel = 3;
  nn::Conv2d conv(spec, rng);
  auto qconv = nn::QuantizedConv2d::from_conv(conv);
  qconv->set_input_params(QuantParams::choose(-1.0F, 1.0F));
  EXPECT_THROW(qconv->backward(Tensor(Shape{1, 2, 3, 3})), InvalidArgument);

  auto copy = qconv->clone();
  auto* qcopy = dynamic_cast<nn::QuantizedConv2d*>(copy.get());
  ASSERT_NE(qcopy, nullptr);
  ASSERT_TRUE(qcopy->input_params().has_value());
  EXPECT_EQ(qcopy->input_params()->scale, qconv->input_params()->scale);
  EXPECT_EQ(qcopy->input_params()->zero_point,
            qconv->input_params()->zero_point);
}

TEST(QuantizedDenseTest, ForwardUsesCachedPackOnceBuilt) {
  Rng rng(43);
  nn::Dense dense(24, 10, rng);
  auto qd = nn::QuantizedDense::from_dense(dense);
  Tensor input = Tensor::random_uniform(Shape{5, 24}, rng, -1.0F, 1.0F);
  Tensor exact = dense.forward(input, false);
  Tensor approx = qd->forward(input, false);
  float tol = 24.0F * 2.5F *
              (tensor::quantization_step_error(
                   qd->effective_input_params(input.data().data(),
                                              input.elements())) +
               qd->packed_weights().scales()[0]);
  for (std::size_t i = 0; i < exact.elements(); ++i) {
    EXPECT_NEAR(approx.data()[i], exact.data()[i], tol);
  }
  // The pack is per-channel symmetric: one scale per output row, zp 0.
  EXPECT_TRUE(qd->packed_weights().per_channel());
  EXPECT_EQ(qd->packed_weights().scales().size(), 10U);
  EXPECT_EQ(qd->packed_weights().weight_zero_point(), 0);
}

// ---------------------------------------------------------------------------
// Calibration.
// ---------------------------------------------------------------------------

TEST(CalibrationTest, ObserverTracksRunningRangeAndRejectsEmpty) {
  compress::MinMaxObserver observer;
  EXPECT_FALSE(observer.seen());
  EXPECT_THROW(observer.params(), InvalidArgument);
  Tensor a(Shape{2}, {0.5F, 2.0F});
  Tensor b(Shape{2}, {-1.0F, 1.0F});
  observer.observe(a);
  observer.observe(b);
  ASSERT_TRUE(observer.seen());
  QuantParams p = observer.params();
  // Covers [-1, 2]: both endpoints survive the round trip.
  EXPECT_NEAR(dequant_one(tensor::quantize_one(-1.0F, p), p), -1.0F,
              tensor::quantization_step_error(p));
  EXPECT_NEAR(dequant_one(tensor::quantize_one(2.0F, p), p), 2.0F,
              tensor::quantization_step_error(p));
}

TEST(CalibrationTest, CalibratedQuantizationPinsEveryLayerBoundary) {
  Rng rng(47);
  nn::Model model = nn::zoo::make_mini_vgg({3, 16, 4}, rng);
  Tensor calibration = Tensor::random_uniform(Shape{8, 3, 16, 16}, rng, -1.0F, 1.0F);
  compress::CompressedModel quantized =
      compress::quantize_int8(model, calibration);

  std::size_t calibrated = 0;
  for (std::size_t i = 0; i < quantized.model.layer_count(); ++i) {
    nn::Layer& layer = quantized.model.layer(i);
    if (auto* qd = dynamic_cast<nn::QuantizedDense*>(&layer)) {
      EXPECT_TRUE(qd->input_params().has_value()) << "layer " << i;
      ++calibrated;
    } else if (auto* qc = dynamic_cast<nn::QuantizedConv2d*>(&layer)) {
      EXPECT_TRUE(qc->input_params().has_value()) << "layer " << i;
      ++calibrated;
    }
  }
  EXPECT_GE(calibrated, 3U);  // vgg: conv stacks + dense head
}

TEST(CalibrationTest, CalibratedMlpAgreesWithFloatModel) {
  Rng rng(53);
  nn::Model model = nn::zoo::make_mlp("m", 24, 5, {48, 32}, rng);
  Tensor calibration = Tensor::random_uniform(Shape{32, 24}, rng, -1.0F, 1.0F);
  compress::CompressedModel quantized =
      compress::quantize_int8(model, calibration);

  Tensor probe = Tensor::random_uniform(Shape{256, 24}, rng, -1.0F, 1.0F);
  auto expected = model.predict(probe);
  auto actual = quantized.model.predict(probe);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    agree += expected[i] == actual[i] ? 1 : 0;
  }
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(expected.size()),
            0.95);
}

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

TEST(QuantSerializeTest, NewFormatRoundTripsBitExactly) {
  Rng rng(59);
  nn::Model model = nn::zoo::make_mini_vgg({3, 16, 4}, rng);
  Tensor calibration = Tensor::random_uniform(Shape{4, 3, 16, 16}, rng, -1.0F, 1.0F);
  nn::Model quantized =
      std::move(compress::quantize_int8(model, calibration).model);

  nn::Model restored = nn::load_model(nn::save_model(quantized));
  Tensor probe = Tensor::random_uniform(Shape{2, 3, 16, 16}, rng, -1.0F, 1.0F);
  Tensor a = quantized.forward(probe, false);
  Tensor b = restored.forward(probe, false);
  ASSERT_EQ(a.elements(), b.elements());
  for (std::size_t i = 0; i < a.elements(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << i;
  }
  EXPECT_EQ(quantized.storage_bytes(), restored.storage_bytes());
}

TEST(QuantSerializeTest, LegacyPerTensorFormatStillLoads) {
  // Pre-per-channel documents carry [in, out] int8 weights with one
  // scale/zero_point pair in the config; the reader must adopt the exact
  // int8 values via the per-tensor compatibility path.
  using common::Json;
  using common::JsonArray;
  using common::JsonObject;

  Rng rng(61);
  Tensor w = Tensor::random_uniform(Shape{4, 3}, rng, -1.0F, 1.0F);
  QuantizedTensor qw = QuantizedTensor::quantize(w);

  Json weights{JsonObject{}};
  JsonArray shape;
  shape.emplace_back(4);
  shape.emplace_back(3);
  weights.set("shape", Json(std::move(shape)));
  JsonArray values;
  for (std::int8_t v : qw.data()) values.emplace_back(static_cast<int>(v));
  weights.set("values", Json(std::move(values)));

  Json bias{JsonObject{}};
  JsonArray bias_shape;
  bias_shape.emplace_back(3);
  bias.set("shape", Json(std::move(bias_shape)));
  JsonArray bias_values;
  for (int i = 0; i < 3; ++i) bias_values.emplace_back(0.25 * i);
  bias.set("values", Json(std::move(bias_values)));

  Json cfg{JsonObject{}};
  cfg.set("in", 4);
  cfg.set("out", 3);
  cfg.set("scale", static_cast<double>(qw.params().scale));
  cfg.set("zero_point", qw.params().zero_point);

  Json layer{JsonObject{}};
  layer.set("type", "quantized_dense");
  layer.set("config", std::move(cfg));
  layer.set("weights", std::move(weights));
  layer.set("bias", std::move(bias));

  Json doc{JsonObject{}};
  doc.set("format", "openei-model-v1");
  doc.set("name", "legacy");
  JsonArray input_shape;
  input_shape.emplace_back(4);
  doc.set("input_shape", Json(std::move(input_shape)));
  JsonArray layers;
  layers.push_back(std::move(layer));
  doc.set("layers", Json(std::move(layers)));

  nn::Model model = nn::model_from_json(doc);
  ASSERT_EQ(model.layer_count(), 1U);
  auto* qd = dynamic_cast<nn::QuantizedDense*>(&model.layer(0));
  ASSERT_NE(qd, nullptr);
  EXPECT_EQ(qd->in_features(), 4U);
  EXPECT_EQ(qd->out_features(), 3U);
  EXPECT_FALSE(qd->packed_weights().per_channel());
  EXPECT_EQ(qd->packed_weights().weight_zero_point(),
            qw.params().zero_point);

  // The adopted weights decode to the same float matrix the legacy affine
  // parameters describe.
  Tensor back = qd->packed_weights().dequantize();  // [out, in]
  Tensor reference = qw.dequantize();               // [in, out]
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(back.data()[r * 4 + c], reference.data()[c * 3 + r]);
    }
  }

  // Re-saving upgrades to the per-row-scales format and still round-trips.
  nn::Model again = nn::load_model(nn::save_model(model));
  Tensor probe = Tensor::random_uniform(Shape{2, 4}, rng, -1.0F, 1.0F);
  Tensor a = model.forward(probe, false);
  Tensor b = again.forward(probe, false);
  for (std::size_t i = 0; i < a.elements(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
}

// ---------------------------------------------------------------------------
// Forward arena: bitwise equivalence and the zero-allocation guarantee.
// ---------------------------------------------------------------------------

void expect_arena_matches_model(nn::Model& model, const Tensor& batch) {
  auto plan = runtime::ForwardPlan::plan(model);
  ASSERT_NE(plan, nullptr) << model.name();
  runtime::ForwardPlan::Scratch scratch(*plan);
  Tensor expected = model.forward(batch, false);
  std::size_t rows = batch.shape().dim(0);
  const float* actual = plan->run(batch.data().data(), rows, scratch);
  ASSERT_EQ(expected.elements(), rows * plan->classes());
  for (std::size_t i = 0; i < expected.elements(); ++i) {
    ASSERT_EQ(actual[i], expected.data()[i]) << model.name() << " @" << i;
  }

  // predict matches Model::predict exactly (first maximum wins).
  auto expected_pred = model.predict(batch);
  std::vector<std::size_t> actual_pred(rows);
  plan->predict(batch.data().data(), rows, actual_pred.data(), scratch);
  EXPECT_EQ(actual_pred, expected_pred);
}

TEST(ArenaTest, BitwiseEqualToModelForwardAcrossTheZoo) {
  for (std::size_t threads : {1U, 4U}) {
    ScopedThreads scope(threads);
    Rng rng(67);
    Tensor batch = Tensor::random_uniform(Shape{3, 3, 16, 16}, rng, -1.0F, 1.0F);
    for (const auto& entry : nn::zoo::image_catalog()) {
      Rng model_rng(71);
      nn::Model model = entry.build({3, 16, 4}, model_rng);
      expect_arena_matches_model(model, batch);
    }
  }
}

TEST(ArenaTest, BitwiseEqualForMlpAndQuantizedModels) {
  for (std::size_t threads : {1U, 4U}) {
    ScopedThreads scope(threads);
    Rng rng(73);
    nn::Model mlp = nn::zoo::make_mlp("m", 12, 4, {32, 16}, rng);
    Tensor batch = Tensor::random_uniform(Shape{5, 12}, rng, -1.0F, 1.0F);
    expect_arena_matches_model(mlp, batch);

    Tensor calibration = Tensor::random_uniform(Shape{16, 12}, rng, -1.0F, 1.0F);
    nn::Model qmlp =
        std::move(compress::quantize_int8(mlp, calibration).model);
    expect_arena_matches_model(qmlp, batch);

    Rng vgg_rng(79);
    nn::Model vgg = nn::zoo::make_mini_vgg({3, 16, 4}, vgg_rng);
    Tensor images = Tensor::random_uniform(Shape{2, 3, 16, 16}, rng, -1.0F, 1.0F);
    nn::Model qvgg = std::move(compress::quantize_int8(vgg).model);
    expect_arena_matches_model(qvgg, images);
  }
}

/// One table row: a model whose sample shape runs through the layer under
/// test, then a Flatten + Dense head down to three logits.
struct LayerRow {
  Shape sample;
  std::function<nn::LayerPtr(Rng&)> make;
};

Tensor random_conv_weights(const Shape& shape, Rng& rng) {
  return Tensor::random_uniform(shape, rng, -0.5F, 0.5F);
}

TEST(ArenaTest, PlansEveryLayerTypeAndRefusesStructuredOutput) {
  const Shape image{2, 8, 8};
  const Shape flat{16};
  tensor::Conv2dSpec conv3;
  conv3.in_channels = 2;
  conv3.out_channels = 3;
  conv3.kernel = 3;
  conv3.padding = 1;
  tensor::Conv2dSpec depthwise = conv3;
  depthwise.out_channels = 2;
  tensor::Conv2dSpec body2 = conv3;
  body2.in_channels = 3;
  tensor::Conv2dSpec project = conv3;
  project.kernel = 1;
  project.padding = 0;

  const std::vector<LayerRow> table = {
      {flat, [](Rng& r) { return std::make_unique<nn::Dense>(16, 8, r); }},
      {flat,
       [](Rng& r) { return nn::QuantizedDense::from_dense(nn::Dense(16, 8, r)); }},
      {flat,
       [](Rng& r) {
         return std::make_unique<nn::FactoredDense>(
             Tensor::random_uniform(Shape{16, 4}, r, -0.5F, 0.5F),
             Tensor::random_uniform(Shape{4, 8}, r, -0.5F, 0.5F),
             Tensor::random_uniform(Shape{8}, r, -0.1F, 0.1F));
       }},
      {image, [&](Rng& r) { return std::make_unique<nn::Conv2d>(conv3, r); }},
      {image,
       [&](Rng& r) {
         return nn::QuantizedConv2d::from_conv(nn::Conv2d(conv3, r));
       }},
      {image,
       [&](Rng& r) {
         return std::make_unique<nn::FactoredConv2d>(
             conv3, random_conv_weights(Shape{2, 2, 3, 3}, r),
             random_conv_weights(Shape{3, 2, 1, 1}, r),
             Tensor::random_uniform(Shape{3}, r, -0.1F, 0.1F));
       }},
      {image,
       [&](Rng& r) { return std::make_unique<nn::DepthwiseConv2d>(depthwise, r); }},
      {image, [](Rng&) { return std::make_unique<nn::MaxPool2d>(2); }},
      {image, [](Rng&) { return std::make_unique<nn::AvgPool2d>(2); }},
      {image, [](Rng&) { return std::make_unique<nn::GlobalAvgPool>(); }},
      {image,
       [](Rng& r) {
         auto bn = std::make_unique<nn::BatchNorm>(2);
         bn->running_mean() = Tensor::random_uniform(Shape{2}, r, -0.5F, 0.5F);
         bn->running_var() = Tensor::random_uniform(Shape{2}, r, 0.5F, 2.0F);
         return bn;
       }},
      {image,
       [&](Rng& r) {
         std::vector<nn::LayerPtr> body;
         body.push_back(std::make_unique<nn::Conv2d>(conv3, r));
         body.push_back(std::make_unique<nn::Relu>());
         body.push_back(std::make_unique<nn::Conv2d>(body2, r));
         return std::make_unique<nn::ResidualBlock>(
             std::move(body), std::make_unique<nn::Conv2d>(project, r));
       }},
      {image, [](Rng&) { return std::make_unique<nn::Relu>(); }},
      {image, [](Rng&) { return std::make_unique<nn::Sigmoid>(); }},
      {image, [](Rng&) { return std::make_unique<nn::Tanh>(); }},
      {image, [](Rng&) { return std::make_unique<nn::Dropout>(0.5F, 1); }},
      {image, [](Rng&) { return std::make_unique<nn::Flatten>(); }},
  };

  std::set<std::string> planned;
  for (const LayerRow& row : table) {
    Rng rng(83);
    nn::LayerPtr layer = row.make(rng);
    std::string type = layer->type();
    std::size_t features = layer->output_shape(row.sample).elements();
    nn::Model model(type, row.sample);
    model.add(std::move(layer));
    model.add(std::make_unique<nn::Flatten>());
    model.add(std::make_unique<nn::Dense>(features, 3, rng));
    std::vector<std::size_t> dims{4};
    for (std::size_t d : row.sample.dims()) dims.push_back(d);
    Tensor batch = Tensor::random_uniform(Shape(dims), rng, -1.0F, 1.0F);
    expect_arena_matches_model(model, batch);
    planned.insert(type);
  }
  EXPECT_EQ(planned.size(), 17U) << "every nn::Layer subclass has a row";

  // A conv-only model ends in a [2, 6, 6] feature map, not a logit vector:
  // the arena declines it, so no session can serve it.
  Rng rng(89);
  tensor::Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 2;
  spec.kernel = 3;
  nn::Model conv_only("conv_only", Shape{1, 8, 8});
  conv_only.add(std::make_unique<nn::Conv2d>(spec, rng));
  EXPECT_EQ(runtime::ForwardPlan::plan(conv_only), nullptr);
  EXPECT_THROW(runtime::InferenceSession(std::move(conv_only),
                                         hwsim::openei_package(),
                                         hwsim::raspberry_pi_4()),
               InvalidArgument);
}

TEST(ArenaTest, DynamicRangeInt8BatchMatchesSoloRuns) {
  // Without calibration each int8 layer fits its activation range to the
  // pass, so fusing a narrow-range request with a wide-range one would
  // quantize the narrow one coarsely.  predict_batch must run them apart.
  Rng rng(109);
  nn::Model mlp = nn::zoo::make_mlp("dynamic", 12, 4, {32, 16}, rng);
  runtime::InferenceSession session(
      std::move(compress::quantize_int8(mlp).model), hwsim::openei_package(),
      hwsim::raspberry_pi_4());
  std::vector<Tensor> requests;
  requests.push_back(Tensor::random_uniform(Shape{64, 12}, rng, -1.0F, 1.0F));
  requests.push_back(Tensor::random_uniform(Shape{2, 12}, rng, -100.0F, 100.0F));
  std::vector<runtime::InferenceResult> fused = session.predict_batch(requests);
  ASSERT_EQ(fused.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(fused[i].predictions, session.run(requests[i]).predictions)
        << "request " << i;
  }
}

// Every channels-last step against Model::forward, bitwise, on one
// non-square model: a stride-2 conv, a 1x1 conv (fed to its GEMM without a
// gather), depthwise, BatchNorm, a dynamic-range int8 conv, avg-pool, a
// residual block with a projection and global average pooling.
TEST(ArenaTest, ChannelsLastChainBitwiseEqualAcrossRowsAndThreads) {
  auto spec = [](std::size_t in, std::size_t out, std::size_t k,
                 std::size_t stride, std::size_t pad) {
    tensor::Conv2dSpec s;
    s.in_channels = in;
    s.out_channels = out;
    s.kernel = k;
    s.stride = stride;
    s.padding = pad;
    return s;
  };
  Rng rng(127);
  nn::Model model("channels_last_chain", Shape{3, 12, 10});
  model.add(std::make_unique<nn::Conv2d>(spec(3, 8, 3, 2, 1), rng));  // 8x6x5
  model.add(std::make_unique<nn::Relu>());
  model.add(std::make_unique<nn::Conv2d>(spec(8, 6, 1, 1, 0), rng));
  model.add(std::make_unique<nn::DepthwiseConv2d>(spec(6, 6, 3, 1, 1), rng));
  auto bn = std::make_unique<nn::BatchNorm>(6);
  bn->running_mean() = Tensor::random_uniform(Shape{6}, rng, -0.5F, 0.5F);
  bn->running_var() = Tensor::random_uniform(Shape{6}, rng, 0.5F, 2.0F);
  model.add(std::move(bn));
  model.add(nn::QuantizedConv2d::from_conv(nn::Conv2d(spec(6, 8, 3, 1, 1), rng)));
  model.add(std::make_unique<nn::Relu>());
  model.add(std::make_unique<nn::AvgPool2d>(2));  // 8x3x2
  std::vector<nn::LayerPtr> body;
  body.push_back(std::make_unique<nn::Conv2d>(spec(8, 12, 3, 1, 1), rng));
  body.push_back(std::make_unique<nn::Relu>());
  body.push_back(std::make_unique<nn::Conv2d>(spec(12, 12, 3, 1, 1), rng));
  model.add(std::make_unique<nn::ResidualBlock>(
      std::move(body), std::make_unique<nn::Conv2d>(spec(8, 12, 1, 1, 0), rng)));
  model.add(std::make_unique<nn::GlobalAvgPool>());
  model.add(std::make_unique<nn::Dense>(12, 5, rng));

  for (std::size_t threads : {1U, 4U}) {
    ScopedThreads scope(threads);
    for (std::size_t rows : {1U, 3U, 7U}) {
      Rng batch_rng(131 + rows);
      Tensor batch = Tensor::random_uniform(Shape{rows, 3, 12, 10}, batch_rng,
                                            -1.0F, 1.0F);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " rows=" + std::to_string(rows));
      expect_arena_matches_model(model, batch);
    }
  }
}

// The calibrated int8 twins of mini-VGG, mini-ResNet and mini-MobileNet:
// the arena equals Model::forward bitwise at rows 1/3/7, at 1 and 4 threads
// and at every ISA level the host reaches.
TEST(ArenaTest, Int8TwinsBitwiseEqualAcrossRowsThreadsAndIsaLevels) {
  const nn::zoo::ImageSpec spec{3, 16, 4};
  Rng rng(137);
  Tensor calibration =
      Tensor::random_uniform(Shape{8, 3, 16, 16}, rng, -1.0F, 1.0F);
  Rng model_rng(139);
  std::vector<nn::Model> floats;
  floats.push_back(nn::zoo::make_mini_vgg(spec, model_rng));
  floats.push_back(nn::zoo::make_mini_resnet(spec, model_rng));
  floats.push_back(nn::zoo::make_mini_mobilenet(spec, model_rng));
  std::vector<nn::Model> twins;
  for (const nn::Model& model : floats) {
    twins.push_back(
        std::move(compress::quantize_int8(model, calibration).model));
  }
  for (nn::Model& twin : twins) {
    for (int level = 0; level <= tensor::int8_isa_level(); ++level) {
      ScopedIsaCap cap(level);
      for (std::size_t threads : {1U, 4U}) {
        ScopedThreads scope(threads);
        for (std::size_t rows : {1U, 3U, 7U}) {
          Rng batch_rng(149 + rows);
          Tensor batch = Tensor::random_uniform(Shape{rows, 3, 16, 16},
                                                batch_rng, -1.0F, 1.0F);
          SCOPED_TRACE(twin.name() + " level=" + std::to_string(level) +
                       " threads=" + std::to_string(threads) +
                       " rows=" + std::to_string(rows));
          expect_arena_matches_model(twin, batch);
        }
      }
    }
  }
}

TEST(ArenaTest, ProfileLabelsEveryStepAndLeavesRunLogits) {
  Rng rng(113);
  nn::Model vgg = nn::zoo::make_mini_vgg({3, 16, 4}, rng);
  auto plan = runtime::ForwardPlan::plan(vgg);
  ASSERT_NE(plan, nullptr);
  runtime::ForwardPlan::Scratch scratch(*plan);
  Tensor images = Tensor::random_uniform(Shape{2, 3, 16, 16}, rng, -1.0F, 1.0F);
  const float* logits = plan->run(images.data().data(), 2, scratch);
  std::vector<float> expected(logits, logits + 2 * plan->classes());

  std::vector<std::string> labels;
  for (const auto& step : plan->profile(images.data().data(), 2, 5, scratch)) {
    labels.push_back(step.label);
    EXPECT_GE(step.median_us, 0.0) << step.label;
  }
  // Each ReLU folds into the GEMM before it, so it has no step of its own;
  // Flatten turns the channels-last activation back into CHW features.
  const std::vector<std::string> planned = {
      "conv2d[0] [3, 16, 16] -> [16, 16, 16] k3 +relu",
      "conv2d[1] [16, 16, 16] -> [16, 16, 16] k3 +relu",
      "maxpool2d[0] [16, 16, 16] -> [16, 8, 8]",
      "conv2d[2] [16, 8, 8] -> [32, 8, 8] k3 +relu",
      "conv2d[3] [32, 8, 8] -> [32, 8, 8] k3 +relu",
      "maxpool2d[1] [32, 8, 8] -> [32, 4, 4]",
      "flatten[0] [32, 4, 4] -> [512]",
      "dense[0] [512] -> [96] +relu",
      "dense[1] [96] -> [4]",
  };
  EXPECT_EQ(labels, planned);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(logits[i], expected[i]) << "@" << i;
  }
}

// One plan, four concurrent callers each on a Scratch of its own: every
// caller's logits equal the serial pass bit for bit, for mini-VGG fp32 and
// its calibrated int8 twin at rows 1 and 3.
TEST(ArenaTest, ConcurrentScratchesOnOnePlanMatchSerialBitwise) {
  Rng rng(151);
  nn::Model vgg = nn::zoo::make_mini_vgg({3, 16, 4}, rng);
  Tensor calibration =
      Tensor::random_uniform(Shape{8, 3, 16, 16}, rng, -1.0F, 1.0F);
  nn::Model qvgg = std::move(compress::quantize_int8(vgg, calibration).model);
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 20;
  for (const nn::Model* model : {&vgg, &qvgg}) {
    auto plan = runtime::ForwardPlan::plan(*model);
    ASSERT_NE(plan, nullptr) << model->name();
    for (std::size_t rows : {1U, 3U}) {
      std::vector<Tensor> inputs;
      std::vector<std::vector<float>> expected;
      runtime::ForwardPlan::Scratch serial(*plan);
      for (std::size_t t = 0; t < kThreads; ++t) {
        inputs.push_back(
            Tensor::random_uniform(Shape{rows, 3, 16, 16}, rng, -1.0F, 1.0F));
        const float* logits = plan->run(inputs[t].data().data(), rows, serial);
        expected.emplace_back(logits, logits + rows * plan->classes());
      }
      std::vector<int> mismatches(kThreads, 0);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          runtime::ForwardPlan::Scratch scratch(*plan);
          for (int round = 0; round < kRounds; ++round) {
            const float* logits =
                plan->run(inputs[t].data().data(), rows, scratch);
            if (std::memcmp(logits, expected[t].data(),
                            expected[t].size() * sizeof(float)) != 0) {
              ++mismatches[t];
            }
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(mismatches[t], 0)
            << model->name() << " rows " << rows << " thread " << t;
      }
    }
  }
}

/// The zero-allocation regression (satellite): after the first call warms the
/// arena, run() and predict_batch() must not allocate any tensor memory.
void expect_zero_alloc_steady_state(nn::Model model, const Tensor& batch) {
  std::string name = model.name();
  runtime::InferenceSession session(std::move(model), hwsim::openei_package(),
                                    hwsim::raspberry_pi_4());

  auto first = session.run(batch);  // warms the arena to batch rows
  std::vector<std::size_t> expected = first.predictions;
  {
    tensor::AllocationTrackingScope scope;
    for (int repeat = 0; repeat < 3; ++repeat) {
      auto result = session.run(batch);
      EXPECT_EQ(result.predictions, expected) << name;
    }
    EXPECT_EQ(scope.stats().allocations, 0U) << name;
    EXPECT_EQ(scope.stats().allocated_bytes, 0U) << name;
  }

  std::vector<Tensor> requests;
  requests.push_back(batch);
  requests.push_back(batch);
  auto warm = session.predict_batch(requests);  // warms the fused staging
  {
    tensor::AllocationTrackingScope scope;
    auto results = session.predict_batch(requests);
    ASSERT_EQ(results.size(), 2U) << name;
    EXPECT_EQ(results[0].predictions, expected) << name;
    EXPECT_EQ(results[1].predictions, expected) << name;
    EXPECT_EQ(scope.stats().allocations, 0U) << name;
    EXPECT_EQ(scope.stats().allocated_bytes, 0U) << name;
  }
}

TEST(ZeroAllocTest, SteadyStateFloatSessionsAllocateNothing) {
  Rng rng(89);
  expect_zero_alloc_steady_state(nn::zoo::make_mlp("mlp", 12, 4, {32, 16}, rng),
                                 Tensor::random_uniform(Shape{4, 12}, rng,
                                                        -1.0F, 1.0F));
  Rng vgg_rng(97);
  expect_zero_alloc_steady_state(
      nn::zoo::make_mini_vgg({3, 16, 4}, vgg_rng),
      Tensor::random_uniform(Shape{2, 3, 16, 16}, rng, -1.0F, 1.0F));
}

TEST(ZeroAllocTest, SteadyStateInt8SessionsAllocateNothing) {
  Rng rng(101);
  nn::Model mlp = nn::zoo::make_mlp("mlp8", 12, 4, {32, 16}, rng);
  Tensor calibration = Tensor::random_uniform(Shape{16, 12}, rng, -1.0F, 1.0F);
  expect_zero_alloc_steady_state(
      std::move(compress::quantize_int8(mlp, calibration).model),
      Tensor::random_uniform(Shape{4, 12}, rng, -1.0F, 1.0F));

  Rng vgg_rng(103);
  nn::Model vgg = nn::zoo::make_mini_vgg({3, 16, 4}, vgg_rng);
  Tensor images = Tensor::random_uniform(Shape{8, 3, 16, 16}, rng, -1.0F, 1.0F);
  expect_zero_alloc_steady_state(
      std::move(compress::quantize_int8(vgg, images).model),
      Tensor::random_uniform(Shape{2, 3, 16, 16}, rng, -1.0F, 1.0F));
}

}  // namespace
}  // namespace openei
