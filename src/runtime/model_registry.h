// Model registry: the package manager's store of deployed models.
//
// Models are registered under (scenario, algorithm) — the same two fields
// libei's URL scheme addresses (paper Fig. 6: /ei_algorithms/{scenario}/
// {algorithm}) — plus free-form variants (e.g. compressed versions) that the
// model selector ranks.
//
// Lifecycle semantics (the memory-governed serving path depends on these):
//   - Readers receive shared_ptr<const ModelEntry> *snapshots*.  No model is
//     ever cloned on the read path, and a snapshot stays valid (weights
//     frozen) for as long as the caller holds it — an in-flight inference
//     pins the version it started with even while a hot-swap replaces it.
//   - put() on an existing name is an atomic hot-swap: the previous version
//     is retained (one level deep) so rollback() can restore it.
//   - Every put/erase/rollback bumps the version counter; session caches,
//     capability-row caches, and micro-batchers invalidate off it (or off
//     snapshot pointer identity, which is equivalent per model).
//
// The read path never waits on a writer: lookups copy the shared_ptr to an
// immutable copy-on-write table under a mutex held only for that pointer
// copy.  Writers copy the table under a separate writer mutex and publish
// the new one with a pointer swap under the same short lock.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/model.h"

namespace openei::runtime {

struct ModelEntry {
  std::string scenario;   // e.g. "safety", "home", "vehicles", "health"
  std::string algorithm;  // e.g. "detection", "power_monitor"
  nn::Model model;
  /// Test accuracy recorded when the model was registered (the A in ALEM).
  double accuracy = 0.0;
};

/// Immutable snapshot of one deployed model version.  Pointer identity is
/// the version identity: two snapshots of the same name compare equal iff
/// they are the same deployment.
using ModelEntryPtr = std::shared_ptr<const ModelEntry>;

/// Thread-safe name-keyed model store.  Keys are model names; scenario and
/// algorithm index lookups used by libei route handlers.
class ModelRegistry {
 public:
  /// Registers (or hot-swaps) a model under its own name.  Replacing an
  /// existing name retains the prior version for rollback(); registering a
  /// fresh name clears any stale prior retained under it.
  void put(ModelEntry entry);

  /// True if a model with this name exists.
  bool contains(const std::string& name) const;

  /// Snapshot of the named model's entry; throws NotFound when absent.
  ModelEntryPtr get(const std::string& name) const;

  /// Snapshot of the named model's entry, or nullptr when absent — the
  /// no-throw hot-path variant session caches use to validate residency.
  ModelEntryPtr get_if(const std::string& name) const;

  /// All models registered for a (scenario, algorithm) pair — the candidate
  /// set the model selector chooses from.  Empty when none.
  std::vector<ModelEntryPtr> find(const std::string& scenario,
                                  const std::string& algorithm) const;

  /// Names of all registered models (sorted).
  std::vector<std::string> names() const;

  std::size_t size() const;

  /// Removes a model (and its retained prior version); returns false when
  /// absent.  In-flight snapshot holders keep the entry alive until they
  /// drain.
  bool erase(const std::string& name);

  /// Restores the version put() replaced: the current entry is dropped and
  /// the retained prior becomes current again (the prior slot empties — a
  /// second rollback of the same name fails).  Returns false when no prior
  /// version is retained under this name.
  bool rollback(const std::string& name);

  /// True when rollback(name) would succeed.
  bool has_prior(const std::string& name) const;

  /// Monotonic change counter: bumped by every put/erase/rollback.  Lets
  /// caches (the session cache, libei's capability rows) detect staleness
  /// cheaply without comparing snapshots.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  struct Table {
    std::map<std::string, ModelEntryPtr> current;
    /// Last replaced version per name (rollback target), one level deep.
    std::map<std::string, ModelEntryPtr> prior;
  };

  std::shared_ptr<const Table> snapshot() const {
    std::lock_guard<std::mutex> lock(table_mutex_);
    return table_;
  }
  /// Swaps `next` in as the current table and bumps the version.  The
  /// caller holds write_mutex_.
  void publish(std::shared_ptr<const Table> next);

  /// Serializes writers; readers never take it.
  mutable std::mutex write_mutex_;
  /// Guards the table_ pointer only, never a table copy.  (Not
  /// std::atomic<std::shared_ptr>: libstdc++ 12's load() releases its lock
  /// bit with relaxed order, so a later store() races with it under TSan.)
  mutable std::mutex table_mutex_;
  std::shared_ptr<const Table> table_ = std::make_shared<const Table>();
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace openei::runtime
