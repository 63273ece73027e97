// Memory-governed model lifecycle: the session pool between the model
// registry (deployed weights) and the serving path (warm InferenceSessions
// + micro-batchers).
//
// The paper's package manager must "load and execute models under the
// resource constraints of the edge" — Eq. 1 makes memory (M <= M_pro) a
// first-class constraint.  The SessionCache enforces it at runtime:
//
//   - Residency is bounded by a byte budget derived from the device's ALEM
//     memory (DeviceProfile::model_memory_budget) — weights + activation
//     arenas + package runtime per session, the same number the selector's
//     memory constraint reasons about.
//   - Sessions materialize lazily on first use (one forward plan over the
//     registry entry's own model per deployment version) and are reused.
//   - When admitting a session would exceed the budget, cold sessions are
//     evicted in strict LRU order; a model that cannot fit even into an
//     empty cache is refused with MemoryPressureError (libei answers 503
//     with a JSON memory_pressure body).
//   - Hot-swap safety: a resident session is keyed to its registry snapshot
//     by pointer identity.  When the registry replaces the model (POST
//     /ei_models, rollback, peer fetch), the next acquire retires the stale
//     session — but in-flight requests hold shared ownership, so the old
//     snapshot drains before its memory is really released.  Retired
//     micro-batchers drain their queues before their sessions die.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hwsim/device.h"
#include "hwsim/package.h"
#include "obs/metrics_registry.h"
#include "runtime/batcher.h"
#include "runtime/inference.h"
#include "runtime/model_registry.h"

namespace openei::runtime {

/// Thrown when a session cannot be admitted within the memory budget even
/// with every other resident session evicted.  libei maps this to HTTP 503
/// with the documented {"error":"memory_pressure", ...} JSON body.
class MemoryPressureError : public ResourceExhausted {
 public:
  MemoryPressureError(const std::string& model, std::size_t needed_bytes,
                      std::size_t budget_bytes, std::size_t resident_bytes);

  const std::string& model() const { return model_; }
  std::size_t needed_bytes() const { return needed_bytes_; }
  std::size_t budget_bytes() const { return budget_bytes_; }
  std::size_t resident_bytes() const { return resident_bytes_; }

 private:
  std::string model_;
  std::size_t needed_bytes_;
  std::size_t budget_bytes_;
  std::size_t resident_bytes_;
};

class SessionCache {
 public:
  struct Options {
    /// Resident-session byte budget; 0 derives it from the device profile:
    /// device.model_memory_budget(package, ram_fraction).
    std::size_t budget_bytes = 0;
    double ram_fraction = 0.5;
    /// Per-model micro-batcher knobs (batchers are created lazily, only for
    /// acquire(..., with_batcher=true) callers).
    MicroBatcher::Options batching;
    /// Shared batcher counters (may be null).
    std::shared_ptr<BatcherMetrics> batcher_metrics;
  };

  /// What one request holds while serving: shared ownership of the model
  /// snapshot, its warm session, and (when requested) its batcher.  Holding
  /// a lease pins this deployment version across evictions and hot-swaps.
  struct Lease {
    ModelEntryPtr entry;
    std::shared_ptr<InferenceSession> session;
    std::shared_ptr<MicroBatcher> batcher;  // null unless requested
  };

  /// Lifecycle counters for /ei_status and the property suite.  Snapshot is
  /// internally consistent (taken under the cache lock).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Stale sessions retired because the registry hot-swapped their model.
    std::uint64_t invalidations = 0;
    std::uint64_t admission_rejections = 0;
    std::size_t resident_sessions = 0;
    std::size_t resident_bytes = 0;
    std::size_t budget_bytes = 0;
  };

  /// Borrows the registry (the owning node outlives the cache); copies the
  /// profiles.  `meter` (may be null) receives lifecycle counters/gauges:
  /// ei_session_cache_{hits,misses,evictions,invalidations}_total,
  /// ei_admission_rejections_total, ei_session_resident_bytes,
  /// ei_session_resident_count.
  SessionCache(ModelRegistry& registry, hwsim::PackageSpec package,
               hwsim::DeviceProfile device, Options options,
               obs::MetricsRegistry* meter = nullptr);
  ~SessionCache();
  SessionCache(const SessionCache&) = delete;
  SessionCache& operator=(const SessionCache&) = delete;

  /// Warm hit: shared session for the model's current registry version.
  /// Cold miss: materializes (forward plan) under admission control.
  /// Throws NotFound when the registry lacks the model, MemoryPressureError
  /// when the budget cannot admit it, ResourceExhausted when the model does
  /// not fit the device at all.
  Lease acquire(const std::string& name, bool with_batcher = false);

  /// Retires every resident session (batchers drain their queues first).
  void clear();

  Stats stats() const;
  std::size_t budget_bytes() const { return budget_; }
  /// Resident model names, coldest first — the eviction order.
  std::vector<std::string> resident_by_recency() const;

  /// Per-resident detail for /ei_status, coldest first.
  struct ResidentInfo {
    std::string name;
    std::size_t bytes = 0;
  };
  std::vector<ResidentInfo> resident_info() const;

  const hwsim::PackageSpec& package() const { return package_; }
  const hwsim::DeviceProfile& device() const { return device_; }

 private:
  struct Resident {
    ModelEntryPtr entry;  // identity token: stale when != registry snapshot
    std::shared_ptr<InferenceSession> session;
    std::shared_ptr<MicroBatcher> batcher;  // lazily created
    std::size_t bytes = 0;
    std::uint64_t last_used = 0;
  };

  Lease lease_of(Resident& resident, bool with_batcher);
  /// Moves one resident into `retired` and fixes accounting.  Lock held.
  void retire_locked(std::map<std::string, Resident>::iterator it,
                     std::vector<Resident>& retired);
  /// Evicts coldest residents until `incoming_bytes` fits.  Lock held.
  void evict_for_locked(std::size_t incoming_bytes,
                        std::vector<Resident>& retired);
  void update_gauges_locked();

  ModelRegistry& registry_;
  hwsim::PackageSpec package_;
  hwsim::DeviceProfile device_;
  Options options_;
  std::size_t budget_ = 0;

  mutable std::mutex mutex_;
  std::map<std::string, Resident> resident_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t admission_rejections_ = 0;

  // Cached metric series (references are stable for the meter's lifetime);
  // all null when no meter is attached.
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
  obs::Counter* rejections_counter_ = nullptr;
  obs::Gauge* resident_bytes_gauge_ = nullptr;
  obs::Gauge* resident_count_gauge_ = nullptr;
};

}  // namespace openei::runtime
