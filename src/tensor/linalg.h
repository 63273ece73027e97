// Dense linear-algebra routines: the blocked/multi-threaded GEMM under
// tensor::matmul (and therefore every dense, conv-im2col, and training
// path), plus the compression-suite kernels — singular value decomposition
// (low-rank factorization, paper Table I) and 1-D k-means (weight sharing /
// vector quantization, Gong et al. [21]).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace openei::tensor {

/// C(m x n) += A(m x k) * B(k x n) over raw row-major buffers.  `c` must be
/// zero-initialized (or hold a partial sum to accumulate onto).  Packs B
/// into kernel-shaped panels and runs the runtime-dispatched SIMD
/// microkernels (tensor/pack.h); bit-identical across thread counts within
/// one ISA level, tolerance-equivalent to gemm_ref across levels.
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n);

/// Exact-math scalar reference GEMM, serial: cache-blocked over k,
/// register-blocked two output rows at a time.  Each C element accumulates
/// in ascending-k order with plain multiply-then-add (no FMA contraction),
/// so the result is bit-identical to the naive i-k-j loop.  The
/// equivalence suite bounds the dispatched gemm against this.
void gemm_ref(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n);

/// Thin SVD A = U diag(S) V^T of a rank-2 tensor A (m x n).
/// U: [m, r], S: r singular values (descending), V: [n, r], r = min(m, n).
struct SvdResult {
  Tensor u;
  std::vector<float> singular_values;
  Tensor v;
};

/// One-sided Jacobi SVD.  Deterministic; converges to `tolerance` of
/// off-diagonal mass or stops after `max_sweeps`.
SvdResult svd(const Tensor& a, int max_sweeps = 60, float tolerance = 1e-7F);

/// Reconstructs U[:, :rank] diag(S[:rank]) V[:, :rank]^T.
Tensor svd_reconstruct(const SvdResult& result, std::size_t rank);

/// Lloyd's k-means on scalars.  Returns centroids (size k, sorted ascending)
/// and per-value assignment indices.  Deterministic given `rng`.
struct Kmeans1dResult {
  std::vector<float> centroids;
  std::vector<std::size_t> assignment;
};

Kmeans1dResult kmeans_1d(const std::vector<float>& values, std::size_t k,
                         common::Rng& rng, int max_iterations = 50);

}  // namespace openei::tensor
