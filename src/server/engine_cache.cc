#include "src/server/engine_cache.h"

#include <sstream>
#include <utility>

namespace agmdp::server {

void EngineCache::Remove(std::map<std::string, Entry>::iterator it) {
  stats_.bytes_in_use -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

util::Status EngineCache::MakeRoom(uint64_t needed) {
  if (byte_budget_ == 0) return util::Status();
  if (needed > byte_budget_) {
    std::ostringstream msg;
    msg << "engine cache: engine needs " << needed
        << " bytes but the cache budget is " << byte_budget_;
    ++stats_.rejections;
    return util::Status::ResourceExhausted(msg.str());
  }
  // Victim scan from the LRU tail, skipping pinned entries.
  auto victim = lru_.end();
  while (stats_.bytes_in_use + needed > byte_budget_) {
    if (victim == lru_.begin()) {
      std::ostringstream msg;
      msg << "engine cache: engine needs " << needed << " bytes, "
          << (byte_budget_ - stats_.bytes_in_use)
          << " free of budget " << byte_budget_
          << ", and every resident entry is pinned";
      ++stats_.rejections;
      return util::Status::ResourceExhausted(msg.str());
    }
    --victim;
    auto it = entries_.find(*victim);
    if (it->second.pinned) continue;
    victim = lru_.end();  // list mutated below; restart the scan from tail
    Remove(it);
    ++stats_.evictions;
  }
  return util::Status();
}

util::Status EngineCache::Insert(
    const std::string& name, std::shared_ptr<pipeline::ReleaseEngine> engine,
    uint64_t release_key) {
  if (engine == nullptr) {
    return util::Status::InvalidArgument("engine cache: null engine");
  }
  const uint64_t bytes = engine->ApproxBytes();
  const std::lock_guard<std::mutex> lock(mu_);
  auto existing = entries_.find(name);
  if (existing != entries_.end()) {
    if (existing->second.pinned) {
      return util::Status::FailedPrecondition(
          "engine cache: entry '" + name +
          "' is pinned; unpin it before replacing");
    }
    Remove(existing);
  }
  if (auto st = MakeRoom(bytes); !st.ok()) return st;
  lru_.push_front(name);
  Entry& entry = entries_[name];
  entry.lease = {std::move(engine), release_key};
  entry.bytes = bytes;
  entry.lru_pos = lru_.begin();
  stats_.bytes_in_use += bytes;
  ++stats_.insertions;
  return util::Status();
}

util::Result<EngineLease> EngineCache::Lookup(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    ++stats_.misses;
    return util::Status::NotFound("engine cache: no engine named '" + name +
                                  "' is loaded");
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.lease;
}

bool EngineCache::Contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(name) != 0;
}

util::Status EngineCache::Pin(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return util::Status::NotFound("engine cache: no engine named '" + name +
                                  "' is loaded");
  }
  it->second.pinned = true;
  return util::Status();
}

util::Status EngineCache::Unpin(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return util::Status::NotFound("engine cache: no engine named '" + name +
                                  "' is loaded");
  }
  it->second.pinned = false;
  return util::Status();
}

util::Status EngineCache::Erase(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return util::Status::NotFound("engine cache: no engine named '" + name +
                                  "' is loaded");
  }
  if (it->second.pinned) {
    return util::Status::FailedPrecondition(
        "engine cache: entry '" + name + "' is pinned; unpin it first");
  }
  Remove(it);
  return util::Status();
}

EngineCacheStats EngineCache::Stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  EngineCacheStats snapshot = stats_;
  snapshot.byte_budget = byte_budget_;
  snapshot.entries = entries_.size();
  snapshot.pinned_entries = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.pinned) ++snapshot.pinned_entries;
  }
  return snapshot;
}

}  // namespace agmdp::server
