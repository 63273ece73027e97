#include "tensor/pack.h"

#include <algorithm>
#include <atomic>
#include <climits>

#include "common/parallel.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OPENEI_F32_SIMD_DISPATCH 1
#include <immintrin.h>
#else
#define OPENEI_F32_SIMD_DISPATCH 0
#endif

namespace openei::tensor {

namespace {

constexpr std::size_t kNR = kPanelWidth;

/// Test-only clamp on both engines' dispatch levels (INT_MAX = uncapped).
std::atomic<int> g_isa_cap{INT_MAX};

}  // namespace

int fp32_isa_level_detected() {
#if OPENEI_F32_SIMD_DISPATCH
  static const int level = [] {
    if (__builtin_cpu_supports("avx512f")) return 2;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return 1;
    }
    return 0;
  }();
  return level;
#else
  return 0;
#endif
}

int fp32_isa_level() {
  return std::min(fp32_isa_level_detected(), detail::isa_cap());
}

const char* fp32_isa_name(int level) {
  switch (level) {
    case 2:
      return "avx512";
    case 1:
      return "avx2";
    default:
      return "scalar";
  }
}

namespace detail {
int set_isa_cap(int cap) { return g_isa_cap.exchange(cap); }
int isa_cap() { return g_isa_cap.load(std::memory_order_relaxed); }
}  // namespace detail

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

void PackedMatrix::repack(const float* b, std::size_t k, std::size_t n) {
  k_ = k;
  n_ = n;
  const std::size_t np = panels();
  data_.resize(np * k * kNR);
  for (std::size_t jp = 0; jp < np; ++jp) {
    float* dst = data_.data() + jp * k * kNR;
    const std::size_t j0 = jp * kNR;
    const std::size_t jn = std::min(kNR, n - j0);
    for (std::size_t p = 0; p < k; ++p) {
      const float* src = b + p * n + j0;
      float* d = dst + p * kNR;
      std::size_t j = 0;
      for (; j < jn; ++j) d[j] = src[j];
      for (; j < kNR; ++j) d[j] = 0.0F;  // padded lanes must stay inert
    }
  }
}

PackedMatrix PackedMatrix::pack(const float* b, std::size_t k, std::size_t n) {
  PackedMatrix out;
  out.repack(b, k, n);
  return out;
}

PackedMatrix PackedMatrix::pack(const Tensor& b) {
  OPENEI_CHECK(b.shape().rank() == 2, "PackedMatrix::pack requires rank 2");
  return pack(b.data().data(), b.shape().dim(0), b.shape().dim(1));
}

PackedMatrix PackedMatrix::pack_transposed(const Tensor& bt) {
  OPENEI_CHECK(bt.shape().rank() == 2,
               "PackedMatrix::pack_transposed requires rank 2");
  const std::size_t n = bt.shape().dim(0);  // packed cols = source rows
  const std::size_t k = bt.shape().dim(1);
  const float* src = bt.data().data();
  PackedMatrix out;
  out.k_ = k;
  out.n_ = n;
  const std::size_t np = out.panels();
  out.data_.assign(np * k * kNR, 0.0F);
  // Stream each source row (contiguous k floats) into its panel column.
  for (std::size_t j = 0; j < n; ++j) {
    const float* row = src + j * k;
    float* col = out.data_.data() + (j / kNR) * k * kNR + (j % kNR);
    for (std::size_t p = 0; p < k; ++p) col[p * kNR] = row[p];
  }
  return out;
}

Tensor PackedMatrix::unpack() const {
  Tensor out(Shape{k_, n_});
  float* dst = out.data().data();
  const std::size_t np = panels();
  for (std::size_t jp = 0; jp < np; ++jp) {
    const float* p_base = panel(jp);
    const std::size_t j0 = jp * kNR;
    const std::size_t jn = std::min(kNR, n_ - j0);
    for (std::size_t p = 0; p < k_; ++p) {
      for (std::size_t j = 0; j < jn; ++j) {
        dst[p * n_ + j0 + j] = p_base[p * kNR + j];
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Microkernels.  Each computes one MR x (16 or 32) C tile: accumulators live
// in registers across the whole k loop, so every C element is one
// ascending-k chain — the determinism unit the thread partition never
// splits.  Epilogues either add the tile into C (accumulate: the gemm
// contract over zero-initialized C) or overwrite with optional fused
// bias/ReLU.  Ragged column tails spill through a local buffer and apply
// the scalar epilogue; ragged row tails use smaller MR instantiations.
// ---------------------------------------------------------------------------

namespace {

template <int MR>
void kern_scalar(const float* a, std::size_t lda, std::size_t k,
                 const float* panel, float* c, std::size_t ldc,
                 const float* bias, std::size_t jn, bool relu,
                 bool accumulate) {
  float acc[MR][kNR] = {};
  for (std::size_t p = 0; p < k; ++p) {
    const float* br = panel + p * kNR;
    for (int i = 0; i < MR; ++i) {
      const float av = a[static_cast<std::size_t>(i) * lda + p];
      for (std::size_t j = 0; j < kNR; ++j) acc[i][j] += av * br[j];
    }
  }
  for (int i = 0; i < MR; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    if (accumulate) {
      for (std::size_t j = 0; j < jn; ++j) crow[j] += acc[i][j];
    } else {
      for (std::size_t j = 0; j < jn; ++j) {
        float v = acc[i][j];
        if (bias != nullptr) v += bias[j];
        if (relu) v = v > 0.0F ? v : 0.0F;
        crow[j] = v;
      }
    }
  }
}

#if OPENEI_F32_SIMD_DISPATCH

template <int MR>
__attribute__((target("avx2,fma"))) void kern_avx2(
    const float* a, std::size_t lda, std::size_t k, const float* panel,
    float* c, std::size_t ldc, const float* bias, std::size_t jn, bool relu,
    bool accumulate) {
  __m256 acc0[MR];
  __m256 acc1[MR];
  for (int i = 0; i < MR; ++i) {
    acc0[i] = _mm256_setzero_ps();
    acc1[i] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_load_ps(panel + p * kNR);
    const __m256 b1 = _mm256_load_ps(panel + p * kNR + 8);
    for (int i = 0; i < MR; ++i) {
      const __m256 av = _mm256_set1_ps(a[static_cast<std::size_t>(i) * lda + p]);
      acc0[i] = _mm256_fmadd_ps(av, b0, acc0[i]);
      acc1[i] = _mm256_fmadd_ps(av, b1, acc1[i]);
    }
  }
  if (jn == kNR) {
    const __m256 zero = _mm256_setzero_ps();
    for (int i = 0; i < MR; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      __m256 v0 = acc0[i];
      __m256 v1 = acc1[i];
      if (accumulate) {
        v0 = _mm256_add_ps(_mm256_loadu_ps(crow), v0);
        v1 = _mm256_add_ps(_mm256_loadu_ps(crow + 8), v1);
      } else {
        if (bias != nullptr) {
          v0 = _mm256_add_ps(v0, _mm256_loadu_ps(bias));
          v1 = _mm256_add_ps(v1, _mm256_loadu_ps(bias + 8));
        }
        if (relu) {
          v0 = _mm256_max_ps(v0, zero);
          v1 = _mm256_max_ps(v1, zero);
        }
      }
      _mm256_storeu_ps(crow, v0);
      _mm256_storeu_ps(crow + 8, v1);
    }
  } else {
    alignas(32) float tmp[kNR];
    for (int i = 0; i < MR; ++i) {
      _mm256_store_ps(tmp, acc0[i]);
      _mm256_store_ps(tmp + 8, acc1[i]);
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      if (accumulate) {
        for (std::size_t j = 0; j < jn; ++j) crow[j] += tmp[j];
      } else {
        for (std::size_t j = 0; j < jn; ++j) {
          float v = tmp[j];
          if (bias != nullptr) v += bias[j];
          if (relu) v = v > 0.0F ? v : 0.0F;
          crow[j] = v;
        }
      }
    }
  }
}

/// One full-width panel (16 columns, possibly ragged) in zmm registers.
template <int MR>
__attribute__((target("avx512f"))) void kern_avx512(
    const float* a, std::size_t lda, std::size_t k, const float* panel,
    float* c, std::size_t ldc, const float* bias, std::size_t jn, bool relu,
    bool accumulate) {
  __m512 acc[MR];
  for (int i = 0; i < MR; ++i) acc[i] = _mm512_setzero_ps();
  for (std::size_t p = 0; p < k; ++p) {
    const __m512 bv = _mm512_load_ps(panel + p * kNR);
    for (int i = 0; i < MR; ++i) {
      const __m512 av = _mm512_set1_ps(a[static_cast<std::size_t>(i) * lda + p]);
      acc[i] = _mm512_fmadd_ps(av, bv, acc[i]);
    }
  }
  if (jn == kNR) {
    const __m512 zero = _mm512_setzero_ps();
    for (int i = 0; i < MR; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      __m512 v = acc[i];
      if (accumulate) {
        v = _mm512_add_ps(_mm512_loadu_ps(crow), v);
      } else {
        if (bias != nullptr) v = _mm512_add_ps(v, _mm512_loadu_ps(bias));
        if (relu) v = _mm512_max_ps(v, zero);
      }
      _mm512_storeu_ps(crow, v);
    }
  } else {
    alignas(64) float tmp[kNR];
    for (int i = 0; i < MR; ++i) {
      _mm512_store_ps(tmp, acc[i]);
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      if (accumulate) {
        for (std::size_t j = 0; j < jn; ++j) crow[j] += tmp[j];
      } else {
        for (std::size_t j = 0; j < jn; ++j) {
          float v = tmp[j];
          if (bias != nullptr) v += bias[j];
          if (relu) v = v > 0.0F ? v : 0.0F;
          crow[j] = v;
        }
      }
    }
  }
}

/// Two adjacent full panels (32 columns): MRx2 zmm accumulators amortize the
/// per-k broadcast over twice the FMA work.  Only called when both panels
/// cover 16 real columns, so the epilogue is always the vector form.
template <int MR>
__attribute__((target("avx512f"))) void kern_avx512x2(
    const float* a, std::size_t lda, std::size_t k, const float* panel0,
    const float* panel1, float* c, std::size_t ldc, const float* bias,
    bool relu, bool accumulate) {
  __m512 acc0[MR];
  __m512 acc1[MR];
  for (int i = 0; i < MR; ++i) {
    acc0[i] = _mm512_setzero_ps();
    acc1[i] = _mm512_setzero_ps();
  }
  for (std::size_t p = 0; p < k; ++p) {
    const __m512 b0 = _mm512_load_ps(panel0 + p * kNR);
    const __m512 b1 = _mm512_load_ps(panel1 + p * kNR);
    for (int i = 0; i < MR; ++i) {
      const __m512 av = _mm512_set1_ps(a[static_cast<std::size_t>(i) * lda + p]);
      acc0[i] = _mm512_fmadd_ps(av, b0, acc0[i]);
      acc1[i] = _mm512_fmadd_ps(av, b1, acc1[i]);
    }
  }
  const __m512 zero = _mm512_setzero_ps();
  for (int i = 0; i < MR; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    __m512 v0 = acc0[i];
    __m512 v1 = acc1[i];
    if (accumulate) {
      v0 = _mm512_add_ps(_mm512_loadu_ps(crow), v0);
      v1 = _mm512_add_ps(_mm512_loadu_ps(crow + kNR), v1);
    } else {
      if (bias != nullptr) {
        v0 = _mm512_add_ps(v0, _mm512_loadu_ps(bias));
        v1 = _mm512_add_ps(v1, _mm512_loadu_ps(bias + kNR));
      }
      if (relu) {
        v0 = _mm512_max_ps(v0, zero);
        v1 = _mm512_max_ps(v1, zero);
      }
    }
    _mm512_storeu_ps(crow, v0);
    _mm512_storeu_ps(crow + kNR, v1);
  }
}

#endif  // OPENEI_F32_SIMD_DISPATCH

// ---------------------------------------------------------------------------
// Span runners: one per ISA level, walking rows in MR blocks and columns in
// panels over a [i_begin, i_end) x [jp_begin, jp_end) rectangle.  Row
// blocks are absolute (i0 is always a multiple of MR), so a C tile is
// computed by the same kernel instantiation no matter how the parallel
// partition sliced the space.
// ---------------------------------------------------------------------------

struct GemmArgs {
  const float* a;
  std::size_t lda;  // == k
  std::size_t k;
  std::size_t n;
  const PackedMatrix* b;
  float* c;
  std::size_t ldc;  // == n
  const float* bias;
  bool relu;
  bool accumulate;
};

void run_span_scalar(const GemmArgs& g, std::size_t i_begin, std::size_t i_end,
                     std::size_t jp_begin, std::size_t jp_end) {
  constexpr std::size_t kMR = 4;
  for (std::size_t i0 = i_begin; i0 < i_end; i0 += kMR) {
    const std::size_t mr = std::min(kMR, i_end - i0);
    const float* arow = g.a + i0 * g.lda;
    float* cblock = g.c + i0 * g.ldc;
    for (std::size_t jp = jp_begin; jp < jp_end; ++jp) {
      const std::size_t j0 = jp * kNR;
      const std::size_t jn = std::min(kNR, g.n - j0);
      const float* bp = g.b->panel(jp);
      const float* bj = g.bias != nullptr ? g.bias + j0 : nullptr;
      float* cj = cblock + j0;
      switch (mr) {
        case 4:
          kern_scalar<4>(arow, g.lda, g.k, bp, cj, g.ldc, bj, jn, g.relu,
                         g.accumulate);
          break;
        case 3:
          kern_scalar<3>(arow, g.lda, g.k, bp, cj, g.ldc, bj, jn, g.relu,
                         g.accumulate);
          break;
        case 2:
          kern_scalar<2>(arow, g.lda, g.k, bp, cj, g.ldc, bj, jn, g.relu,
                         g.accumulate);
          break;
        default:
          kern_scalar<1>(arow, g.lda, g.k, bp, cj, g.ldc, bj, jn, g.relu,
                         g.accumulate);
          break;
      }
    }
  }
}

#if OPENEI_F32_SIMD_DISPATCH

void run_span_avx2(const GemmArgs& g, std::size_t i_begin, std::size_t i_end,
                   std::size_t jp_begin, std::size_t jp_end) {
  constexpr std::size_t kMR = 6;
  for (std::size_t i0 = i_begin; i0 < i_end; i0 += kMR) {
    const std::size_t mr = std::min(kMR, i_end - i0);
    const float* arow = g.a + i0 * g.lda;
    float* cblock = g.c + i0 * g.ldc;
    for (std::size_t jp = jp_begin; jp < jp_end; ++jp) {
      const std::size_t j0 = jp * kNR;
      const std::size_t jn = std::min(kNR, g.n - j0);
      const float* bp = g.b->panel(jp);
      const float* bj = g.bias != nullptr ? g.bias + j0 : nullptr;
      float* cj = cblock + j0;
      switch (mr) {
        case 6:
          kern_avx2<6>(arow, g.lda, g.k, bp, cj, g.ldc, bj, jn, g.relu,
                       g.accumulate);
          break;
        case 5:
          kern_avx2<5>(arow, g.lda, g.k, bp, cj, g.ldc, bj, jn, g.relu,
                       g.accumulate);
          break;
        case 4:
          kern_avx2<4>(arow, g.lda, g.k, bp, cj, g.ldc, bj, jn, g.relu,
                       g.accumulate);
          break;
        case 3:
          kern_avx2<3>(arow, g.lda, g.k, bp, cj, g.ldc, bj, jn, g.relu,
                       g.accumulate);
          break;
        case 2:
          kern_avx2<2>(arow, g.lda, g.k, bp, cj, g.ldc, bj, jn, g.relu,
                       g.accumulate);
          break;
        default:
          kern_avx2<1>(arow, g.lda, g.k, bp, cj, g.ldc, bj, jn, g.relu,
                       g.accumulate);
          break;
      }
    }
  }
}

template <int MR>
void run_block_avx512(const GemmArgs& g, std::size_t i0, std::size_t jp_begin,
                      std::size_t jp_end) {
  const float* arow = g.a + i0 * g.lda;
  float* cblock = g.c + i0 * g.ldc;
  std::size_t jp = jp_begin;
  // Panel pairs while both cover 16 real columns; each C element is still a
  // single ascending-k chain, so pairing never changes values.
  for (; jp + 1 < jp_end && (jp + 2) * kNR <= g.n; jp += 2) {
    const std::size_t j0 = jp * kNR;
    kern_avx512x2<MR>(arow, g.lda, g.k, g.b->panel(jp), g.b->panel(jp + 1),
                      cblock + j0, g.ldc,
                      g.bias != nullptr ? g.bias + j0 : nullptr, g.relu,
                      g.accumulate);
  }
  for (; jp < jp_end; ++jp) {
    const std::size_t j0 = jp * kNR;
    const std::size_t jn = std::min(kNR, g.n - j0);
    kern_avx512<MR>(arow, g.lda, g.k, g.b->panel(jp), cblock + j0, g.ldc,
                    g.bias != nullptr ? g.bias + j0 : nullptr, jn, g.relu,
                    g.accumulate);
  }
}

void run_span_avx512(const GemmArgs& g, std::size_t i_begin, std::size_t i_end,
                     std::size_t jp_begin, std::size_t jp_end) {
  constexpr std::size_t kMR = 8;
  for (std::size_t i0 = i_begin; i0 < i_end; i0 += kMR) {
    switch (std::min(kMR, i_end - i0)) {
      case 8:
        run_block_avx512<8>(g, i0, jp_begin, jp_end);
        break;
      case 7:
        run_block_avx512<7>(g, i0, jp_begin, jp_end);
        break;
      case 6:
        run_block_avx512<6>(g, i0, jp_begin, jp_end);
        break;
      case 5:
        run_block_avx512<5>(g, i0, jp_begin, jp_end);
        break;
      case 4:
        run_block_avx512<4>(g, i0, jp_begin, jp_end);
        break;
      case 3:
        run_block_avx512<3>(g, i0, jp_begin, jp_end);
        break;
      case 2:
        run_block_avx512<2>(g, i0, jp_begin, jp_end);
        break;
      default:
        run_block_avx512<1>(g, i0, jp_begin, jp_end);
        break;
    }
  }
}

#endif  // OPENEI_F32_SIMD_DISPATCH

}  // namespace

void gemm_packed(const float* a, std::size_t m, const PackedMatrix& b,
                 const float* bias, bool fuse_relu, bool accumulate,
                 float* c) {
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  if (m == 0 || n == 0) return;
  OPENEI_CHECK(!accumulate || (bias == nullptr && !fuse_relu),
               "accumulate mode cannot fuse bias/ReLU");

  const int level = fp32_isa_level();
  const std::size_t mr = level == 2 ? 8 : level == 1 ? 6 : 4;
  const GemmArgs g{a, k, k, n, &b, c, n, bias, fuse_relu, accumulate};

  auto span = [&g, level](std::size_t i_begin, std::size_t i_end,
                          std::size_t jp_begin, std::size_t jp_end) {
#if OPENEI_F32_SIMD_DISPATCH
    if (level == 2) {
      run_span_avx512(g, i_begin, i_end, jp_begin, jp_end);
      return;
    }
    if (level == 1) {
      run_span_avx2(g, i_begin, i_end, jp_begin, jp_end);
      return;
    }
#else
    (void)level;
#endif
    run_span_scalar(g, i_begin, i_end, jp_begin, jp_end);
  };

  const std::size_t np = b.panels();
  if (m * k * n <= common::kForkMacs) {
    span(0, m, 0, np);
    return;
  }
  // Parallel partition at tile granularity: every job is a whole number of
  // MR row blocks (or whole panels), so a C tile never splits across
  // threads and results are thread-count-invariant within the ISA level.
  const std::size_t row_blocks = (m + mr - 1) / mr;
  if (row_blocks >= np) {
    common::parallel_for(
        0, row_blocks,
        [&](std::size_t lo, std::size_t hi) {
          span(lo * mr, std::min(hi * mr, m), 0, np);
        },
        common::grain_for(common::kForkMacs, mr * k * n));
  } else {
    common::parallel_for(
        0, np, [&](std::size_t lo, std::size_t hi) { span(0, m, lo, hi); },
        common::grain_for(common::kForkMacs, m * k * kNR));
  }
}

}  // namespace openei::tensor
