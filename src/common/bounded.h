// Bounded insertion-ordered set and map.
//
// Long simulations deliver millions of messages; dedup structures that only
// need to catch near-in-time duplicates (client retries, leader re-proposals)
// would otherwise grow without bound. These containers evict their oldest
// entries once `capacity` is exceeded — callers must tolerate a false "not
// seen" for entries older than the window, which all users here do (a stale
// duplicate re-executes an idempotent no-op path).
//
// Layout: a ring of keys in insertion order plus a common::FlatMap index from
// key to value. Both grow geometrically while the window fills (nothing is
// reserved up front); once full, each new key overwrites the oldest one in
// place after erasing it from the index, whose backward-shift erase leaves
// no tombstones. A warm container therefore allocates nothing per insert.
// Overwriting a live key keeps its place in the ring; a key re-inserted after
// eviction is a fresh, newest entry.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/flat_map.h"

namespace dssmr {

template <class K, class V, class Hash = std::hash<K>>
class BoundedMap {
 public:
  explicit BoundedMap(std::size_t capacity = 1 << 16) : capacity_(capacity) {
    DSSMR_ASSERT(capacity_ > 0);
  }

  /// Inserts (or overwrites) and evicts the oldest entry beyond capacity.
  /// Returns true if `key` was not present.
  bool put(const K& key, V value) {
    const std::size_t before = index_.size();
    index_[key] = std::move(value);
    if (index_.size() == before) return false;
    if (ring_.size() < capacity_) {
      ring_.push_back(key);
    } else {
      index_.erase(ring_[head_]);
      ring_[head_] = key;
      if (++head_ == capacity_) head_ = 0;
    }
    return true;
  }

  const V* find(const K& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second;
  }

  bool contains(const K& key) const { return index_.contains(key); }
  std::size_t size() const { return index_.size(); }

 private:
  std::size_t capacity_;
  common::FlatMap<K, V, Hash> index_;
  /// Live keys, oldest at head_ (which stays 0 until the ring is full).
  std::vector<K> ring_;
  std::size_t head_ = 0;
};

template <class T, class Hash = std::hash<T>>
class BoundedSet {
 public:
  explicit BoundedSet(std::size_t capacity = 1 << 17) : map_(capacity) {}

  /// Returns true if newly inserted.
  bool insert(const T& value) { return map_.put(value, {}); }

  bool contains(const T& value) const { return map_.contains(value); }
  std::size_t size() const { return map_.size(); }

 private:
  struct Unit {};
  BoundedMap<T, Unit, Hash> map_;
};

}  // namespace dssmr
