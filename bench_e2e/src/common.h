// Shared helpers for the end-to-end benchmark: clocks, order statistics,
// the metric record every report line is made of, and the append-only span
// log the traced run's benchmark-owned servers write into.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/http.h"

namespace openei::bench_e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// A value and the time it was taken.
struct Timed {
  std::int64_t ns;
  double value;
};

/// The median, over the whole seconds since the first sample, of each
/// second's median.  A slow spell of the shared host that covers fewer than
/// half of the seconds leaves it where the rest of the run puts it; the
/// median of the pooled sample shifts with the share of slow seconds.
inline double median_of_seconds(const std::vector<Timed>& samples) {
  if (samples.empty()) return 0.0;
  std::int64_t first = samples.front().ns;
  for (const Timed& s : samples) first = std::min(first, s.ns);
  std::vector<std::vector<double>> seconds;
  for (const Timed& s : samples) {
    auto second = static_cast<std::size_t>((s.ns - first) / 1'000'000'000);
    if (seconds.size() <= second) seconds.resize(second + 1);
    seconds[second].push_back(s.value);
  }
  std::vector<double> medians;
  for (const std::vector<double>& values : seconds) {
    if (!values.empty()) medians.push_back(median(values));
  }
  return median(std::move(medians));
}

/// Interquartile mean: the mean of the middle half of the sample.  Per-layer
/// times use it because a workload that mixes two model variants gives a
/// bimodal sample whose median jumps between the modes run to run.
inline double iqm(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t lo = values.size() / 4;
  std::size_t hi = values.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Append-only (request id, duration) log filled concurrently by server
/// handler threads: one atomic increment per record, no lock.  Storage is
/// reserved up front but only touched as records land.
class SpanLog {
 public:
  struct Span {
    std::uint64_t rid;
    std::int64_t ns;
  };

  explicit SpanLog(std::size_t capacity)
      : capacity_(capacity), spans_(new Span[capacity]) {}

  void record(std::uint64_t rid, std::int64_t ns) {
    std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot < capacity_) spans_[slot] = Span{rid, ns};
  }

  /// Every record so far, indexed by request id (0 = no span).
  std::vector<std::int64_t> by_rid(std::uint64_t max_rid) const {
    std::vector<std::int64_t> out(max_rid + 1, 0);
    std::size_t n = std::min(next_.load(), capacity_);
    for (std::size_t i = 0; i < n; ++i) {
      if (spans_[i].rid <= max_rid) out[spans_[i].rid] = spans_[i].ns;
    }
    return out;
  }

 private:
  std::size_t capacity_;
  std::unique_ptr<Span[]> spans_;
  std::atomic<std::size_t> next_{0};
};

/// The `rid` query parameter every generated request carries (0 if absent).
inline std::uint64_t request_id(const net::HttpRequest& request) {
  auto it = request.query.find("rid");
  if (it == request.query.end()) return 0;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

}  // namespace openei::bench_e2e
