#include "tensor/linalg.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/ops.h"
#include "tensor/pack.h"

namespace openei::tensor {

namespace {

/// k-dimension cache block: one block of B rows (kKc x n floats) stays hot
/// in L2 while the row panel streams over it.
constexpr std::size_t kKc = 256;

}  // namespace

void gemm_ref(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n) {
  // k-blocked, two A rows per sweep so each loaded B row feeds two output
  // rows.  For any fixed C element the adds happen in ascending-k order —
  // the same order as the naive i-k-j loop — so blocking changes nothing
  // bitwise.
  for (std::size_t kk = 0; kk < k; kk += kKc) {
    std::size_t k_end = std::min(k, kk + kKc);
    std::size_t i = 0;
    for (; i + 1 < m; i += 2) {
      float* c0 = c + i * n;
      float* c1 = c0 + n;
      for (std::size_t p = kk; p < k_end; ++p) {
        float a0 = a[i * k + p];
        float a1 = a[(i + 1) * k + p];
        if (a0 == 0.0F && a1 == 0.0F) continue;  // benefits pruned weights
        const float* b_row = b + p * n;
        for (std::size_t j = 0; j < n; ++j) {
          float bj = b_row[j];
          c0[j] += a0 * bj;
          c1[j] += a1 * bj;
        }
      }
    }
    if (i < m) {
      float* c0 = c + i * n;
      for (std::size_t p = kk; p < k_end; ++p) {
        float a0 = a[i * k + p];
        if (a0 == 0.0F) continue;
        const float* b_row = b + p * n;
        for (std::size_t j = 0; j < n; ++j) c0[j] += a0 * b_row[j];
      }
    }
  }
}

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n) {
  if (m == 0 || k == 0 || n == 0) return;
  // Per-call packing into grow-only thread-local scratch: steady-state
  // callers (training loops, ops::matmul) re-use the same buffer, so no
  // allocation after warm-up at a fixed shape.
  thread_local PackedMatrix scratch;
  scratch.repack(b, k, n);
  gemm_packed(a, m, scratch, /*bias=*/nullptr, /*fuse_relu=*/false,
              /*accumulate=*/true, c);
}

namespace {

/// One-sided Jacobi on the columns of `a` (m x n, m >= n not required):
/// rotates column pairs of A while accumulating the same rotations into V
/// until all pairs are orthogonal; then A's columns are U * S.
SvdResult jacobi_svd(const Tensor& input, int max_sweeps, float tolerance) {
  std::size_t m = input.shape().dim(0);
  std::size_t n = input.shape().dim(1);
  Tensor a = input;       // working copy; columns become U*S
  Tensor v(Shape{n, n});  // accumulated right rotations
  for (std::size_t i = 0; i < n; ++i) v.at2(i, i) = 1.0F;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off_diagonal = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        // Compute the 2x2 Gram entries for columns p, q.
        double app = 0.0;
        double aqq = 0.0;
        double apq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          double ap = a.at2(i, p);
          double aq = a.at2(i, q);
          app += ap * ap;
          aqq += aq * aq;
          apq += ap * aq;
        }
        off_diagonal += std::fabs(apq);
        if (std::fabs(apq) < 1e-30) continue;

        // Jacobi rotation zeroing the (p, q) Gram entry.
        double tau = (aqq - app) / (2.0 * apq);
        double t = (tau >= 0.0 ? 1.0 : -1.0) /
                   (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
        double c = 1.0 / std::sqrt(1.0 + t * t);
        double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          float ap = a.at2(i, p);
          float aq = a.at2(i, q);
          a.at2(i, p) = static_cast<float>(c * ap - s * aq);
          a.at2(i, q) = static_cast<float>(s * ap + c * aq);
        }
        for (std::size_t i = 0; i < n; ++i) {
          float vp = v.at2(i, p);
          float vq = v.at2(i, q);
          v.at2(i, p) = static_cast<float>(c * vp - s * vq);
          v.at2(i, q) = static_cast<float>(s * vp + c * vq);
        }
      }
    }
    if (off_diagonal < tolerance) break;
  }

  // Extract singular values (column norms) and normalize U's columns.
  std::vector<float> sigma(n);
  Tensor u(Shape{m, n});
  for (std::size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      norm += static_cast<double>(a.at2(i, j)) * a.at2(i, j);
    }
    norm = std::sqrt(norm);
    sigma[j] = static_cast<float>(norm);
    if (norm > 1e-30) {
      for (std::size_t i = 0; i < m; ++i) {
        u.at2(i, j) = static_cast<float>(a.at2(i, j) / norm);
      }
    }
  }

  // Sort by descending singular value.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&sigma](std::size_t x, std::size_t y) { return sigma[x] > sigma[y]; });

  SvdResult result{Tensor(Shape{m, n}), std::vector<float>(n), Tensor(Shape{n, n})};
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t src = order[j];
    result.singular_values[j] = sigma[src];
    for (std::size_t i = 0; i < m; ++i) result.u.at2(i, j) = u.at2(i, src);
    for (std::size_t i = 0; i < n; ++i) result.v.at2(i, j) = v.at2(i, src);
  }
  return result;
}

}  // namespace

SvdResult svd(const Tensor& a, int max_sweeps, float tolerance) {
  OPENEI_CHECK(a.shape().rank() == 2, "svd requires a rank-2 tensor");
  std::size_t m = a.shape().dim(0);
  std::size_t n = a.shape().dim(1);
  if (m >= n) return jacobi_svd(a, max_sweeps, tolerance);
  // For wide matrices, factor the transpose and swap U/V.
  SvdResult t = jacobi_svd(transpose(a), max_sweeps, tolerance);
  return SvdResult{std::move(t.v), std::move(t.singular_values), std::move(t.u)};
}

Tensor svd_reconstruct(const SvdResult& result, std::size_t rank) {
  std::size_t full = result.singular_values.size();
  OPENEI_CHECK(rank > 0 && rank <= full, "svd rank ", rank, " out of range ", full);
  std::size_t m = result.u.shape().dim(0);
  std::size_t n = result.v.shape().dim(0);
  Tensor out(Shape{m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < rank; ++r) {
        acc += static_cast<double>(result.u.at2(i, r)) * result.singular_values[r] *
               result.v.at2(j, r);
      }
      out.at2(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

Kmeans1dResult kmeans_1d(const std::vector<float>& values, std::size_t k,
                         common::Rng& rng, int max_iterations) {
  OPENEI_CHECK(!values.empty(), "kmeans on empty input");
  OPENEI_CHECK(k > 0 && k <= values.size(), "kmeans k=", k, " invalid for ",
               values.size(), " values");

  // Init: k quantiles of the sorted values (deterministic, well spread);
  // jitter duplicates apart with rng so identical quantiles still separate.
  std::vector<float> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<float> centroids(k);
  for (std::size_t j = 0; j < k; ++j) {
    std::size_t idx = (j * (values.size() - 1)) / std::max<std::size_t>(1, k - 1);
    centroids[j] = sorted[idx];
  }
  for (std::size_t j = 1; j < k; ++j) {
    if (centroids[j] <= centroids[j - 1]) {
      centroids[j] = centroids[j - 1] + rng.uniform_float(1e-6F, 1e-5F);
    }
  }

  std::vector<std::size_t> assignment(values.size(), 0);
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    // Assign.
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::size_t best = 0;
      float best_dist = std::fabs(values[i] - centroids[0]);
      for (std::size_t j = 1; j < k; ++j) {
        float dist = std::fabs(values[i] - centroids[j]);
        if (dist < best_dist) {
          best_dist = dist;
          best = j;
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    // Update.
    std::vector<double> sums(k, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < values.size(); ++i) {
      sums[assignment[i]] += values[i];
      ++counts[assignment[i]];
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (counts[j] > 0) {
        centroids[j] = static_cast<float>(sums[j] / static_cast<double>(counts[j]));
      }
    }
    if (!changed && iter > 0) break;
  }

  // Sort centroids ascending and remap assignments.
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&centroids](std::size_t x, std::size_t y) {
    return centroids[x] < centroids[y];
  });
  std::vector<std::size_t> rank_of(k);
  std::vector<float> sorted_centroids(k);
  for (std::size_t j = 0; j < k; ++j) {
    rank_of[order[j]] = j;
    sorted_centroids[j] = centroids[order[j]];
  }
  for (auto& a : assignment) a = rank_of[a];
  return {std::move(sorted_centroids), std::move(assignment)};
}

}  // namespace openei::tensor
