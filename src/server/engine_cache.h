// Byte-budgeted LRU cache of serving engines — the daemon's buffer pool.
//
// Entries are ReleaseEngines keyed by the client-chosen name. Each entry
// charges ReleaseEngine::ApproxBytes() against a fixed byte budget;
// admitting an engine that does not fit evicts least-recently-used
// *unpinned* entries until it does, and fails with a typed
// ResourceExhausted when even a fully drained cache cannot hold it (or
// everything still resident is pinned). The same idiom as a database
// buffer pool: budget, LRU victim scan, pin counts, typed rejection.
//
// Pinning has two layers:
//   * a lease (shared_ptr) taken per request keeps the engine alive while
//     the request runs, even if the entry is evicted mid-flight — eviction
//     only drops the cache's reference;
//   * a sticky pin flag (the pin/unpin protocol ops) excludes the entry
//     from victim scans entirely, for artifacts a tenant wants resident.
//
// Thread-safe; all operations take one mutex. Engine *construction* is
// the caller's job and happens outside the lock — the cache only admits
// finished engines, so a slow fit never stalls serving for other entries.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/pipeline/release_engine.h"
#include "src/util/status.h"

namespace agmdp::server {

/// Monotone counters of cache behaviour, snapshot under the cache mutex.
struct EngineCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  /// Admissions rejected because the budget cannot hold the engine.
  uint64_t rejections = 0;
  uint64_t bytes_in_use = 0;
  uint64_t byte_budget = 0;
  uint64_t entries = 0;
  uint64_t pinned_entries = 0;
};

/// A request's hold on a cached engine: the engine, alive while the lease
/// is, and the release key its entry was admitted with.
struct EngineLease {
  std::shared_ptr<pipeline::ReleaseEngine> engine;
  uint64_t release_key = 0;
};

/// \brief Byte-budgeted LRU cache of named ReleaseEngines.
class EngineCache {
 public:
  /// A budget of 0 disables the cap (admission always succeeds).
  explicit EngineCache(uint64_t byte_budget) : byte_budget_(byte_budget) {}

  /// Admits `engine` under `name`, evicting LRU unpinned entries as needed.
  /// `release_key` is the release key of the engine's artifact
  /// (pipeline/release_artifact.h), computed once by the caller and
  /// handed back with every lease. Replacing an existing unpinned entry is
  /// allowed (the old engine and key are dropped first); replacing a
  /// pinned entry is FailedPrecondition. Returns ResourceExhausted — and
  /// leaves the cache unchanged except for evictions already performed —
  /// when the engine cannot fit.
  util::Status Insert(const std::string& name,
                      std::shared_ptr<pipeline::ReleaseEngine> engine,
                      uint64_t release_key = 0);

  /// Looks up `name`, marks it most-recently-used, and returns a lease
  /// that keeps the engine alive for the duration of the request. NotFound
  /// when absent (counted as a miss).
  util::Result<EngineLease> Lookup(const std::string& name);

  /// True if `name` is resident (no LRU touch, no counter change).
  bool Contains(const std::string& name) const;

  /// Sets / clears the sticky pin flag. NotFound when absent.
  util::Status Pin(const std::string& name);
  util::Status Unpin(const std::string& name);

  /// Drops `name`. NotFound when absent; FailedPrecondition when pinned.
  util::Status Erase(const std::string& name);

  EngineCacheStats Stats() const;

 private:
  struct Entry {
    EngineLease lease;
    uint64_t bytes = 0;
    bool pinned = false;
    /// Position in lru_ (front = most recently used).
    std::list<std::string>::iterator lru_pos;
  };

  /// Evicts LRU unpinned entries until `needed` bytes fit, or returns
  /// ResourceExhausted. Callers hold mu_.
  util::Status MakeRoom(uint64_t needed);
  /// Drops one entry (callers hold mu_ and count the eviction themselves).
  void Remove(std::map<std::string, Entry>::iterator it);

  const uint64_t byte_budget_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  /// Recency list of entry names; front = most recently used.
  std::list<std::string> lru_;
  EngineCacheStats stats_;
};

}  // namespace agmdp::server
