// fp32 packed GEMM: kernel-shaped weight panels plus runtime-dispatched
// register-tiled SIMD microkernels — the float twin of the int8 engine's
// qgemm (tensor/quantize.h).
//
// B is packed into 16-float-wide column panels (one 512-bit vector, two
// 256-bit vectors) in 64-byte-aligned storage; the microkernels stream one
// panel row per k step and keep an MRx16 (or MRx32) accumulator tile in
// registers.  Model weights are packed once per session by the forward
// plan; tensor::gemm packs per call into reusable scratch.
//
// Accuracy contract: unlike the int8 engine (exact integer accumulation,
// bit-identical across ISA levels), the FMA kernels reassociate nothing but
// DO contract multiply+add, so results differ from the scalar reference by
// normal rounding.  Within one ISA level every C element accumulates in
// ascending-k order in a single chain and each output tile is computed by
// exactly one microkernel invocation, so results are bit-identical across
// thread counts at any fixed level.  tensor::gemm_ref (linalg.h) is the
// exact-math baseline the property suite bounds this against.
#pragma once

#include <cstddef>

#include "common/aligned.h"
#include "tensor/tensor.h"

namespace openei::tensor {

/// Packed panel width: 16 floats = one zmm = two ymm.
inline constexpr std::size_t kPanelWidth = 16;

/// A [k, n] float matrix repacked into kPanelWidth-wide column panels.
/// Panel j holds rows 0..k of columns [16j, 16j+16) contiguously (row p at
/// offset p*16), zero-padded past cols(); storage is 64-byte aligned and
/// every panel row starts on a 64-byte boundary, so kernels use aligned
/// vector loads unconditionally.
class PackedMatrix {
 public:
  PackedMatrix() = default;

  /// Packs a row-major [k, n] buffer / rank-2 tensor.
  static PackedMatrix pack(const float* b, std::size_t k, std::size_t n);
  static PackedMatrix pack(const Tensor& b);
  /// Packs the transpose of a row-major [n, k] tensor (conv weights are
  /// [out_channels, patch]; the GEMM wants [patch, out_channels]) without
  /// materializing the transposed matrix.
  static PackedMatrix pack_transposed(const Tensor& bt);

  /// Re-packs in place, reusing storage capacity — the grow-only per-call
  /// scratch path under tensor::gemm.
  void repack(const float* b, std::size_t k, std::size_t n);

  std::size_t rows() const { return k_; }  // inner (reduction) dimension
  std::size_t cols() const { return n_; }
  std::size_t panels() const { return (n_ + kPanelWidth - 1) / kPanelWidth; }
  const float* panel(std::size_t j) const {
    return data_.data() + j * k_ * kPanelWidth;
  }
  std::size_t storage_bytes() const { return data_.size() * sizeof(float); }

  /// Reconstructs the [rows, cols] row-major matrix.  Packing is a pure
  /// copy, so the round trip is exact.
  Tensor unpack() const;

 private:
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  common::aligned_vector<float> data_;
};

/// C(m x b.cols()) = A(m x b.rows()) * B through the dispatched microkernels.
/// accumulate=true adds into `c` (bias must be null, fuse_relu false — the
/// tensor::gemm contract); accumulate=false overwrites, optionally fusing a
/// per-column bias add and a ReLU clamp into the epilogue.  Bit-identical at
/// any thread count within one ISA level; a fused bias+ReLU epilogue emits
/// the same values as gemm-into-zeroed-C + add_row_bias + relu.
void gemm_packed(const float* a, std::size_t m, const PackedMatrix& b,
                 const float* bias, bool fuse_relu, bool accumulate, float* c);

/// fp32 dispatch level in effect: 0 = scalar, 1 = AVX2+FMA, 2 = AVX-512.
int fp32_isa_level();
/// Probed hardware level, ignoring any test cap.
int fp32_isa_level_detected();
const char* fp32_isa_name(int level);
inline const char* fp32_isa_name() { return fp32_isa_name(fp32_isa_level()); }

namespace detail {
/// Test hook: clamps the dispatch level of both engines — fp32_isa_level()
/// here and int8_isa_level() (tensor/quantize.h) — so the equivalence and
/// bit-identity suites can drive every kernel the host supports.  Returns
/// the previous cap; pass a large value to uncap.
int set_isa_cap(int cap);
/// The cap in effect (INT_MAX when uncapped).
int isa_cap();
}  // namespace detail

}  // namespace openei::tensor
