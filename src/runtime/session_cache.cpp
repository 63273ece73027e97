#include "runtime/session_cache.h"

#include <algorithm>
#include <utility>

#include "hwsim/cost_model.h"

namespace openei::runtime {

MemoryPressureError::MemoryPressureError(const std::string& model,
                                         std::size_t needed_bytes,
                                         std::size_t budget_bytes,
                                         std::size_t resident_bytes)
    : ResourceExhausted(detail::concat(
          "memory pressure: session for '", model, "' needs ", needed_bytes,
          " bytes; budget ", budget_bytes, ", resident ", resident_bytes)),
      model_(model),
      needed_bytes_(needed_bytes),
      budget_bytes_(budget_bytes),
      resident_bytes_(resident_bytes) {}

SessionCache::SessionCache(ModelRegistry& registry, hwsim::PackageSpec package,
                           hwsim::DeviceProfile device, Options options,
                           obs::MetricsRegistry* meter)
    : registry_(registry),
      package_(std::move(package)),
      device_(std::move(device)),
      options_(std::move(options)) {
  budget_ = options_.budget_bytes != 0
                ? options_.budget_bytes
                : device_.model_memory_budget(package_, options_.ram_fraction);
  if (meter != nullptr) {
    hits_counter_ = &meter->counter("ei_session_cache_hits_total");
    misses_counter_ = &meter->counter("ei_session_cache_misses_total");
    evictions_counter_ = &meter->counter("ei_session_cache_evictions_total");
    invalidations_counter_ =
        &meter->counter("ei_session_cache_invalidations_total");
    rejections_counter_ = &meter->counter("ei_admission_rejections_total");
    resident_bytes_gauge_ = &meter->gauge("ei_session_resident_bytes");
    resident_count_gauge_ = &meter->gauge("ei_session_resident_count");
    meter->gauge("ei_session_budget_bytes")
        .set(static_cast<double>(budget_));
  }
}

SessionCache::~SessionCache() { clear(); }

SessionCache::Lease SessionCache::lease_of(Resident& resident,
                                           bool with_batcher) {
  if (with_batcher && resident.batcher == nullptr) {
    resident.batcher = std::make_shared<MicroBatcher>(
        resident.session, options_.batching, options_.batcher_metrics);
  }
  return Lease{resident.entry, resident.session,
               with_batcher ? resident.batcher : nullptr};
}

void SessionCache::retire_locked(std::map<std::string, Resident>::iterator it,
                                 std::vector<Resident>& retired) {
  resident_bytes_ -= it->second.bytes;
  retired.push_back(std::move(it->second));
  resident_.erase(it);
  update_gauges_locked();
}

void SessionCache::evict_for_locked(std::size_t incoming_bytes,
                                    std::vector<Resident>& retired) {
  while (!resident_.empty() && resident_bytes_ + incoming_bytes > budget_) {
    auto coldest = resident_.begin();
    for (auto it = std::next(resident_.begin()); it != resident_.end(); ++it) {
      if (it->second.last_used < coldest->second.last_used) coldest = it;
    }
    ++evictions_;
    if (evictions_counter_ != nullptr) evictions_counter_->increment();
    retire_locked(coldest, retired);
  }
}

void SessionCache::update_gauges_locked() {
  if (resident_bytes_gauge_ != nullptr) {
    resident_bytes_gauge_->set(static_cast<double>(resident_bytes_));
  }
  if (resident_count_gauge_ != nullptr) {
    resident_count_gauge_->set(static_cast<double>(resident_.size()));
  }
}

SessionCache::Lease SessionCache::acquire(const std::string& name,
                                          bool with_batcher) {
  ModelEntryPtr entry = registry_.get(name);  // throws NotFound
  // Retired residents are destroyed *after* the lock is released: a
  // micro-batcher destructor drains its queue (in-flight requests complete
  // against the old model version), which must not run under the cache lock.
  std::vector<Resident> retired;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = resident_.find(name);
    if (it != resident_.end()) {
      if (it->second.entry == entry) {
        ++hits_;
        if (hits_counter_ != nullptr) hits_counter_->increment();
        it->second.last_used = ++tick_;
        return lease_of(it->second, with_batcher);
      }
      // The registry hot-swapped this model since the session was built.
      ++invalidations_;
      if (invalidations_counter_ != nullptr) {
        invalidations_counter_->increment();
      }
      retire_locked(it, retired);
    }
    ++misses_;
    if (misses_counter_ != nullptr) misses_counter_->increment();
  }
  retired.clear();  // drain stale batcher (if any) before materializing

  // Admission control happens *before* the expensive materialization: the
  // estimate is the same roofline number the session itself computes.
  std::size_t bytes =
      hwsim::estimate_inference(entry->model, package_, device_).memory_bytes;
  if (bytes > budget_) {
    std::size_t resident_now;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++admission_rejections_;
      if (rejections_counter_ != nullptr) rejections_counter_->increment();
      resident_now = resident_bytes_;
    }
    throw MemoryPressureError(name, bytes, budget_, resident_now);
  }

  // Materialize outside the lock (planning is the slow part of a cold miss);
  // the session shares the snapshot's model.  Misses for other models overlap.
  auto session = std::make_shared<InferenceSession>(
      std::shared_ptr<const nn::Model>(entry, &entry->model), package_,
      device_);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = resident_.find(name);
    if (it != resident_.end() && it->second.entry == entry) {
      // A concurrent miss won the race; use its session, drop ours.
      it->second.last_used = ++tick_;
      return lease_of(it->second, with_batcher);
    }
    if (it == resident_.end() && registry_.get_if(name) == entry) {
      evict_for_locked(bytes, retired);
      Resident resident{entry, std::move(session), nullptr, bytes, ++tick_};
      auto inserted = resident_.emplace(name, std::move(resident)).first;
      resident_bytes_ += bytes;
      update_gauges_locked();
      return lease_of(inserted->second, with_batcher);
    }
    // Either the model was hot-swapped while we materialized (our snapshot
    // is no longer current) or another version became resident meanwhile.
    // Never overwrite a possibly-newer resident with an older session:
    // serve this request from the pinned snapshot without caching it — the
    // next acquire materializes the fresh version.
  }
  std::shared_ptr<MicroBatcher> transient;
  if (with_batcher) {
    transient = std::make_shared<MicroBatcher>(session, options_.batching,
                                               options_.batcher_metrics);
  }
  return Lease{std::move(entry), std::move(session), std::move(transient)};
}

void SessionCache::clear() {
  std::vector<Resident> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = resident_.begin(); it != resident_.end();) {
      auto next = std::next(it);
      retire_locked(it, retired);
      it = next;
    }
  }
}

SessionCache::Stats SessionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.invalidations = invalidations_;
  out.admission_rejections = admission_rejections_;
  out.resident_sessions = resident_.size();
  out.resident_bytes = resident_bytes_;
  out.budget_bytes = budget_;
  return out;
}

std::vector<std::string> SessionCache::resident_by_recency() const {
  std::vector<std::string> names;
  for (ResidentInfo& info : resident_info()) names.push_back(std::move(info.name));
  return names;
}

std::vector<SessionCache::ResidentInfo> SessionCache::resident_info() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::uint64_t, ResidentInfo>> order;
  order.reserve(resident_.size());
  for (const auto& [name, resident] : resident_) {
    order.emplace_back(resident.last_used, ResidentInfo{name, resident.bytes});
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<ResidentInfo> out;
  out.reserve(order.size());
  for (auto& [tick, info] : order) out.push_back(std::move(info));
  return out;
}

}  // namespace openei::runtime
