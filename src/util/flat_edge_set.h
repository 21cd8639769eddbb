// Open-addressing hash set over packed 64-bit edge keys — the flat-memory
// replacement for std::unordered_set on the sampler hot path.
//
// Layout: one contiguous power-of-two array of keys, linear probing, and
// backward-shift deletion (no tombstones, so probe chains never degrade
// under the insert/erase churn of the rewiring models). A membership test
// costs a handful of adjacent cache lines instead of a node allocation
// plus a pointer chase per bucket, which is where the FCL/TriCycLe inner
// loops spent their time before this existed.
//
// Key 0 is reserved as the empty-slot sentinel. Packed edge keys cannot be
// 0: graph::PackEdge(u, v) == 0 only for the self-loop {0, 0}, which every
// caller rejects before deduplicating.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace agmdp::util {

/// \brief Flat linear-probing set of non-zero uint64_t keys, growing under
/// a 5/8 max load factor.
class FlatEdgeSet {
 public:
  FlatEdgeSet() = default;

  /// Pre-sizes the table for `expected` keys without rehashing on the way.
  explicit FlatEdgeSet(size_t expected) { Reserve(expected); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return keys_.size(); }

  bool Contains(uint64_t key) const {
    if (keys_.empty()) return false;
    const size_t mask = keys_.size() - 1;
    size_t i = Hash(key) & mask;
    while (keys_[i] != 0) {
      if (keys_[i] == key) return true;
      i = (i + 1) & mask;
    }
    return false;
  }

  /// Drops every key, keeping the current capacity.
  void Clear() {
    std::fill(keys_.begin(), keys_.end(), uint64_t{0});
    size_ = 0;
  }

  /// Grows the table so `expected` keys fit under the 5/8 load limit.
  /// Overflow-safe: absurd hints stop at the largest representable
  /// power-of-two capacity instead of wrapping (callers bound `expected`
  /// semantically — e.g. by the maximum possible edge count).
  void Reserve(size_t expected) {
    size_t want = kMinCapacity;
    while (expected > want / 8 * 5 && want < kMaxCapacity) want *= 2;
    if (want > keys_.size()) Rehash(want);
  }

  /// Invokes fn(key) for every stored key, in unspecified table order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t key : keys_) {
      if (key != 0) fn(key);
    }
  }

  /// Inserts `key`; returns false if it was already present. `key` must be
  /// non-zero (0 is the empty-slot sentinel).
  bool Insert(uint64_t key) {
    AGMDP_CHECK(key != 0);
    if ((size_ + 1) * 8 > keys_.size() * 5) {
      Rehash(keys_.empty() ? kMinCapacity : keys_.size() * 2);
    }
    const size_t mask = keys_.size() - 1;
    size_t i = Hash(key) & mask;
    while (keys_[i] != 0) {
      if (keys_[i] == key) return false;
      i = (i + 1) & mask;
    }
    keys_[i] = key;
    ++size_;
    return true;
  }

  /// Removes `key`; returns false if it was not present. Deletion shifts
  /// the tail of the probe chain back over the hole, so no tombstones are
  /// left behind and lookups stay O(chain length) forever.
  bool Erase(uint64_t key) {
    if (keys_.empty()) return false;
    const size_t mask = keys_.size() - 1;
    size_t i = Hash(key) & mask;
    while (keys_[i] != key) {
      if (keys_[i] == 0) return false;
      i = (i + 1) & mask;
    }
    // Backward-shift: walk the chain after the hole; any key whose home
    // slot does not lie strictly inside (i, j] may be moved into the hole.
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      const uint64_t k = keys_[j];
      if (k == 0) break;
      const size_t home = Hash(k) & mask;
      // Cyclic distance from home to the occupied slot j vs to the hole i:
      // the key can fill the hole iff the hole is on its probe path.
      if (((j - home) & mask) >= ((j - i) & mask)) {
        keys_[i] = k;
        i = j;
      }
    }
    keys_[i] = 0;
    --size_;
    return true;
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kMaxCapacity = static_cast<size_t>(1) << 62;

  // SplitMix64 finalizer: packed edges are highly structured (node ids in
  // both halves), so the table index needs a full-avalanche mix.
  static size_t Hash(uint64_t key) {
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(key ^ (key >> 31));
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    keys_.assign(new_capacity, 0);
    const size_t mask = new_capacity - 1;
    for (uint64_t key : old_keys) {
      if (key == 0) continue;
      size_t i = Hash(key) & mask;
      while (keys_[i] != 0) i = (i + 1) & mask;
      keys_[i] = key;
    }
  }

  std::vector<uint64_t> keys_;
  size_t size_ = 0;
};

}  // namespace agmdp::util
