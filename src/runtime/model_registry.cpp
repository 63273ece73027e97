#include "runtime/model_registry.h"

#include "common/error.h"

namespace openei::runtime {

void ModelRegistry::put(ModelEntry entry) {
  OPENEI_CHECK(!entry.model.name().empty(), "model needs a name");
  std::string name = entry.model.name();
  auto snapshot_entry = std::make_shared<const ModelEntry>(std::move(entry));
  std::lock_guard<std::mutex> lock(write_mutex_);
  auto next = std::make_shared<Table>(*snapshot());
  auto it = next->current.find(name);
  if (it != next->current.end()) {
    next->prior[name] = std::move(it->second);  // hot-swap: retain for rollback
    it->second = std::move(snapshot_entry);
  } else {
    next->prior.erase(name);  // fresh install has no prior
    next->current.emplace(name, std::move(snapshot_entry));
  }
  publish(std::move(next));
}

bool ModelRegistry::contains(const std::string& name) const {
  auto table = snapshot();
  return table->current.count(name) > 0;
}

ModelEntryPtr ModelRegistry::get(const std::string& name) const {
  ModelEntryPtr entry = get_if(name);
  if (entry == nullptr) throw NotFound("no model named '" + name + "'");
  return entry;
}

ModelEntryPtr ModelRegistry::get_if(const std::string& name) const {
  auto table = snapshot();
  auto it = table->current.find(name);
  return it == table->current.end() ? nullptr : it->second;
}

std::vector<ModelEntryPtr> ModelRegistry::find(
    const std::string& scenario, const std::string& algorithm) const {
  auto table = snapshot();
  std::vector<ModelEntryPtr> out;
  for (const auto& [name, entry] : table->current) {
    if (entry->scenario == scenario && entry->algorithm == algorithm) {
      out.push_back(entry);
    }
  }
  return out;
}

std::vector<std::string> ModelRegistry::names() const {
  auto table = snapshot();
  std::vector<std::string> out;
  out.reserve(table->current.size());
  for (const auto& [name, entry] : table->current) out.push_back(name);
  return out;
}

std::size_t ModelRegistry::size() const { return snapshot()->current.size(); }

bool ModelRegistry::erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  auto table = snapshot();
  if (table->current.count(name) == 0) return false;
  auto next = std::make_shared<Table>(*table);
  next->current.erase(name);
  next->prior.erase(name);
  publish(std::move(next));
  return true;
}

bool ModelRegistry::rollback(const std::string& name) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  auto table = snapshot();
  auto it = table->prior.find(name);
  if (it == table->prior.end()) return false;
  auto next = std::make_shared<Table>(*table);
  next->current[name] = it->second;
  next->prior.erase(name);
  publish(std::move(next));
  return true;
}

void ModelRegistry::publish(std::shared_ptr<const Table> next) {
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    table_.swap(next);
  }
  // `next` now holds the replaced table; readers that still hold it keep it
  // alive, and whoever drops it last frees it outside table_mutex_.
  version_.fetch_add(1, std::memory_order_acq_rel);
}

bool ModelRegistry::has_prior(const std::string& name) const {
  return snapshot()->prior.count(name) > 0;
}

}  // namespace openei::runtime
