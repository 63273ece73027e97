// fp32 SIMD GEMM suite (label: simd): packing round-trips, the accuracy
// contract of the dispatched microkernels against the exact scalar
// reference, thread-count bit-identity at every ISA level the host
// supports, fused epilogue equivalence, the 64-byte tensor alignment
// regression, and prepacked weights round-tripping through session
// hot-swap/rollback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/zoo.h"
#include "runtime/model_registry.h"
#include "runtime/session_cache.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"
#include "tensor/pack.h"
#include "tensor/tensor.h"

namespace openei {
namespace {

using common::Rng;
using tensor::PackedMatrix;
using tensor::Shape;
using tensor::Tensor;

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : previous_(common::thread_count()) {
    common::set_thread_count(n);
  }
  ~ScopedThreads() { common::set_thread_count(previous_); }

 private:
  std::size_t previous_;
};

/// Clamps the fp32 dispatch level for the scope, so one host can drive the
/// scalar, AVX2, and AVX-512 kernels (up to what it supports).
class ScopedIsaCap {
 public:
  explicit ScopedIsaCap(int cap)
      : previous_(tensor::detail::set_isa_cap(cap)) {}
  ~ScopedIsaCap() { tensor::detail::set_isa_cap(previous_); }

 private:
  int previous_;
};

/// Exact-reference product via gemm_ref into a zeroed buffer.
Tensor ref_product(const Tensor& a, const Tensor& b) {
  std::size_t m = a.shape().dim(0);
  std::size_t k = a.shape().dim(1);
  std::size_t n = b.shape().dim(1);
  Tensor out(Shape{m, n});
  tensor::gemm_ref(a.data().data(), b.data().data(), out.data().data(), m, k,
                   n);
  return out;
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

TEST(PackedMatrixTest, PackUnpackRoundTripIsExact) {
  Rng rng(21);
  // Widths crossing every panel-tail case: full panels, one ragged panel,
  // sub-panel, single column.
  for (auto [k, n] : {std::pair<std::size_t, std::size_t>{7, 16},
                      {12, 32},
                      {5, 17},
                      {9, 3},
                      {1, 1},
                      {33, 95}}) {
    Tensor b = Tensor::random_normal(Shape{k, n}, rng);
    PackedMatrix packed = PackedMatrix::pack(b);
    EXPECT_EQ(packed.rows(), k);
    EXPECT_EQ(packed.cols(), n);
    EXPECT_EQ(packed.panels(), (n + 15) / 16);
    EXPECT_EQ(packed.unpack(), b) << k << "x" << n;
  }
}

TEST(PackedMatrixTest, PackTransposedMatchesExplicitTranspose) {
  Rng rng(22);
  for (auto [n, k] : {std::pair<std::size_t, std::size_t>{8, 27},
                      {17, 5},
                      {40, 33}}) {
    Tensor bt = Tensor::random_normal(Shape{n, k}, rng);  // [n, k] source
    PackedMatrix packed = PackedMatrix::pack_transposed(bt);
    EXPECT_EQ(packed.rows(), k);
    EXPECT_EQ(packed.cols(), n);
    EXPECT_EQ(packed.unpack(), tensor::transpose(bt));
  }
}

TEST(PackedMatrixTest, PanelsAreCacheLineAligned) {
  Rng rng(23);
  PackedMatrix packed =
      PackedMatrix::pack(Tensor::random_normal(Shape{11, 37}, rng));
  for (std::size_t j = 0; j < packed.panels(); ++j) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(packed.panel(j)) % 64, 0U);
  }
}

TEST(PackedMatrixTest, RepackReusesGrownStorage) {
  Rng rng(24);
  Tensor big = Tensor::random_normal(Shape{32, 48}, rng);
  Tensor small = Tensor::random_normal(Shape{4, 5}, rng);
  PackedMatrix scratch;
  scratch.repack(big.data().data(), 32, 48);
  EXPECT_EQ(scratch.unpack(), big);
  scratch.repack(small.data().data(), 4, 5);
  EXPECT_EQ(scratch.unpack(), small);
  scratch.repack(big.data().data(), 32, 48);
  EXPECT_EQ(scratch.unpack(), big);
}

// ---------------------------------------------------------------------------
// Tensor alignment regression
// ---------------------------------------------------------------------------

bool is_aligned64(const float* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(TensorAlignmentTest, AllTensorBuffersAre64ByteAligned) {
  Rng rng(25);
  for (std::size_t elems : {1UL, 2UL, 15UL, 16UL, 17UL, 63UL, 257UL}) {
    Tensor t = Tensor::random_normal(Shape{elems}, rng);
    EXPECT_TRUE(is_aligned64(t.data().data())) << elems;

    Tensor copy = t;
    EXPECT_TRUE(is_aligned64(copy.data().data()));

    Tensor moved = std::move(copy);
    EXPECT_TRUE(is_aligned64(moved.data().data()));

    Tensor reshaped = t.reshaped(Shape{elems, 1});
    EXPECT_TRUE(is_aligned64(reshaped.data().data()));

    Tensor from_vec(Shape{elems}, std::vector<float>(elems, 0.5F));
    EXPECT_TRUE(is_aligned64(from_vec.data().data()));
  }
}

// ---------------------------------------------------------------------------
// Accuracy contract: dispatched kernels vs exact scalar reference
// ---------------------------------------------------------------------------

/// Absolute tolerance for a length-k fp32 FMA chain over ~unit-magnitude
/// operands: rounding error grows linearly in chain length.
float gemm_tolerance(std::size_t k) {
  return 1e-5F + 2e-7F * static_cast<float>(k);
}

TEST(SimdGemmTest, EveryIsaLevelMatchesReferenceWithinTolerance) {
  Rng rng(26);
  const int detected = tensor::fp32_isa_level_detected();
  // Shapes hitting both partition regimes, all row-tail MR cases, ragged
  // panels, and single-row (m == 1) GEMV.
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 64, 17},  {3, 128, 16}, {7, 33, 95},   {37, 301, 53},
      {64, 96, 80}, {129, 65, 33}, {256, 64, 16}, {5, 40, 512}};
  for (const auto& s : shapes) {
    auto [m, k, n] = std::tuple{s[0], s[1], s[2]};
    Tensor a = Tensor::random_normal(Shape{m, k}, rng);
    Tensor b = Tensor::random_normal(Shape{k, n}, rng);
    Tensor expected = ref_product(a, b);
    PackedMatrix bp = PackedMatrix::pack(b);
    for (int level = 0; level <= detected; ++level) {
      ScopedIsaCap cap(level);
      Tensor got(Shape{m, n});
      tensor::gemm_packed(a.data().data(), m, bp, nullptr, false,
                          /*accumulate=*/false, got.data().data());
      float tol = gemm_tolerance(k);
      for (std::size_t i = 0; i < got.elements(); ++i) {
        ASSERT_NEAR(got[i], expected[i], tol)
            << m << "x" << k << "x" << n << " level " << level << " flat " << i;
      }
    }
  }
}

TEST(SimdGemmTest, ScalarLevelMatchesReferenceExactly) {
  Rng rng(27);
  ScopedIsaCap cap(0);
  ScopedThreads serial(1);
  for (auto [m, k, n] : {std::array<std::size_t, 3>{13, 57, 29},
                         {1, 300, 16},
                         {37, 301, 53}}) {
    Tensor a = Tensor::random_normal(Shape{m, k}, rng);
    Tensor b = Tensor::random_normal(Shape{k, n}, rng);
    Tensor expected = ref_product(a, b);
    Tensor got(Shape{m, n});
    tensor::gemm_packed(a.data().data(), m, PackedMatrix::pack(b), nullptr,
                        false, /*accumulate=*/false, got.data().data());
    // Same multiply-then-add arithmetic in the same ascending-k order:
    // the scalar microkernel is bit-identical to the reference (float ==
    // treats the only possible difference, zero sign, as equal).
    for (std::size_t i = 0; i < got.elements(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "flat " << i;
    }
  }
}

TEST(SimdGemmTest, ThreadCountBitIdenticalAtEveryLevel) {
  Rng rng(28);
  const int detected = tensor::fp32_isa_level_detected();
  // Row-dominant and panel-dominant shapes: both parallel partitions.
  for (auto [m, k, n] : {std::array<std::size_t, 3>{256, 64, 48},
                         {8, 64, 512},
                         {61, 77, 130}}) {
    Tensor a = Tensor::random_normal(Shape{m, k}, rng);
    Tensor b = Tensor::random_normal(Shape{k, n}, rng);
    Tensor bias = Tensor::random_normal(Shape{n}, rng);
    PackedMatrix bp = PackedMatrix::pack(b);
    for (int level = 0; level <= detected; ++level) {
      ScopedIsaCap cap(level);
      Tensor one(Shape{m, n}), four(Shape{m, n});
      {
        ScopedThreads threads(1);
        tensor::gemm_packed(a.data().data(), m, bp, bias.data().data(),
                            /*fuse_relu=*/true, false, one.data().data());
      }
      {
        ScopedThreads threads(4);
        tensor::gemm_packed(a.data().data(), m, bp, bias.data().data(),
                            /*fuse_relu=*/true, false, four.data().data());
      }
      EXPECT_EQ(one, four) << m << "x" << k << "x" << n << " level " << level;
    }
  }
}

TEST(SimdGemmTest, FusedBiasReluEpilogueMatchesSeparateOps) {
  Rng rng(29);
  const int detected = tensor::fp32_isa_level_detected();
  const std::size_t m = 23, k = 65, n = 43;
  Tensor a = Tensor::random_normal(Shape{m, k}, rng);
  Tensor b = Tensor::random_normal(Shape{k, n}, rng);
  Tensor bias = Tensor::random_normal(Shape{n}, rng);
  PackedMatrix bp = PackedMatrix::pack(b);
  for (int level = 0; level <= detected; ++level) {
    ScopedIsaCap cap(level);
    Tensor plain(Shape{m, n});
    tensor::gemm_packed(a.data().data(), m, bp, nullptr, false, false,
                        plain.data().data());
    // Separate epilogue: one bias add, one ReLU clamp per element.
    Tensor expected = plain;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        float v = expected.at2(i, j) + bias[j];
        expected.at2(i, j) = v > 0.0F ? v : 0.0F;
      }
    }
    Tensor fused(Shape{m, n});
    tensor::gemm_packed(a.data().data(), m, bp, bias.data().data(),
                        /*fuse_relu=*/true, false, fused.data().data());
    EXPECT_EQ(fused, expected) << "level " << level;
  }
}

TEST(SimdGemmTest, AccumulateModeAddsOntoExistingValues) {
  Rng rng(30);
  const std::size_t m = 19, k = 31, n = 37;
  Tensor a = Tensor::random_normal(Shape{m, k}, rng);
  Tensor b = Tensor::random_normal(Shape{k, n}, rng);
  Tensor base = Tensor::random_normal(Shape{m, n}, rng);
  PackedMatrix bp = PackedMatrix::pack(b);

  Tensor product(Shape{m, n});
  tensor::gemm_packed(a.data().data(), m, bp, nullptr, false, false,
                      product.data().data());

  Tensor acc = base;
  tensor::gemm_packed(a.data().data(), m, bp, nullptr, false,
                      /*accumulate=*/true, acc.data().data());
  // accumulate applies exactly one add of the kernel total per element.
  for (std::size_t i = 0; i < acc.elements(); ++i) {
    ASSERT_EQ(acc[i], base[i] + product[i]) << "flat " << i;
  }
}

TEST(SimdGemmTest, MatmulAndConvRouteThroughPackedKernels) {
  Rng rng(31);
  // matmul == prepacked gemm_packed (same kernels, per-call packing).
  Tensor a = Tensor::random_normal(Shape{9, 50}, rng);
  Tensor b = Tensor::random_normal(Shape{50, 21}, rng);
  Tensor via_matmul = tensor::matmul(a, b);
  Tensor direct(Shape{9, 21});
  tensor::gemm_packed(a.data().data(), 9, PackedMatrix::pack(b), nullptr,
                      false, false, direct.data().data());
  EXPECT_EQ(via_matmul, direct);

  // conv2d_im2col still agrees with direct convolution numerically.
  tensor::Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 10;
  spec.kernel = 3;
  spec.padding = 1;
  Tensor input = Tensor::random_normal(Shape{2, 3, 9, 9}, rng);
  Tensor weights = Tensor::random_normal(Shape{10, 3, 3, 3}, rng);
  Tensor bias = Tensor::random_normal(Shape{10}, rng);
  Tensor im2col_out = tensor::conv2d_im2col(input, weights, bias, spec);
  Tensor direct_out = tensor::conv2d(input, weights, bias, spec);
  EXPECT_TRUE(im2col_out.all_close(direct_out, 1e-3F));
}

// ---------------------------------------------------------------------------
// Prepacked weights through the session lifecycle
// ---------------------------------------------------------------------------

TEST(SimdLifecycleTest, PrepackedWeightsSurviveHotSwapAndRollback) {
  Rng rng(32);
  hwsim::DeviceProfile device = hwsim::raspberry_pi_4();
  hwsim::PackageSpec package = hwsim::openei_package();

  runtime::ModelRegistry registry;
  registry.put({"s", "a", nn::zoo::make_mlp("m", 12, 4, {32, 16}, rng), 0.5});
  runtime::SessionCache cache(registry, package, device,
                              runtime::SessionCache::Options{});

  Rng data_rng(33);
  Tensor batch = Tensor::random_uniform(Shape{8, 12}, data_rng);

  // v1 predictions through the cache (arena-planned, weights prepacked at
  // session build) must match a fresh session built from the same entry.
  std::vector<std::size_t> v1_pred;
  {
    runtime::SessionCache::Lease lease = cache.acquire("m");
    v1_pred = lease.session->run(batch).predictions;
    runtime::InferenceSession fresh(registry.get("m")->model.clone(),
                                    package, device);
    EXPECT_EQ(v1_pred, fresh.run(batch).predictions);
  }

  // Hot-swap to v2: the next acquire retires the stale session and prepacks
  // the new weights.
  registry.put({"s", "a", nn::zoo::make_mlp("m", 12, 4, {32, 16}, rng), 0.6});
  std::vector<std::size_t> v2_pred;
  {
    runtime::SessionCache::Lease lease = cache.acquire("m");
    v2_pred = lease.session->run(batch).predictions;
    runtime::InferenceSession fresh(registry.get("m")->model.clone(),
                                    package, device);
    EXPECT_EQ(v2_pred, fresh.run(batch).predictions);
  }

  // Rollback restores v1 — and the re-planned, re-packed session reproduces
  // the original v1 predictions bit-for-bit.
  ASSERT_TRUE(registry.rollback("m"));
  {
    runtime::SessionCache::Lease lease = cache.acquire("m");
    EXPECT_EQ(lease.session->run(batch).predictions, v1_pred);
  }
}

}  // namespace
}  // namespace openei
