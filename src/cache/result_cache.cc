#include "cache/result_cache.h"

#include <utility>

#include "util/check.h"

namespace gyo {
namespace cache {

namespace {

// Independent seeds for the two key lanes (arbitrary odd constants).
constexpr uint64_t kSeedA = 0x7265736c74733161ULL;
constexpr uint64_t kSeedB = 0x7265736c74733262ULL;

}  // namespace

ResultKey MakeResultKey(const DatabaseSchema& d, const AttrSet& target,
                        const std::vector<Relation>& states,
                        uint64_t variant) {
  ResultKey key;
  FingerprintDatabasePair(d, target, states, kSeedA ^ variant,
                          kSeedB ^ Avalanche64(variant), &key.a, &key.b);
  return key;
}

// What every entry holds beyond its result's column arenas, with a 64-bit
// standard library (pointers and hash codes of 8 bytes):
//   sizeof(Entry)                     the key, the result Relation (its
//                                     schema and the headers of its
//                                     attribute and column vectors), the
//                                     Stats and the byte count
//   + 2 pointers                      the std::list node's two links
//   + sizeof(ResultKey) + 3 pointers  the index node: the key, the mapped
//                                     list iterator, the next link and the
//                                     cached hash code
//   + 1 pointer                       the index's bucket slot (the
//                                     unordered_map keeps its load factor
//                                     at most 1)
// Not counted: the Relation's heap arrays (one AttrId and one column
// vector header per attribute) and the allocator's block headers.
const int64_t ResultCache::kEntryOverheadBytes =
    static_cast<int64_t>(sizeof(Entry) + 2 * sizeof(void*) +
                         sizeof(ResultKey) + 3 * sizeof(void*) +
                         sizeof(void*));

ResultCache::ResultCache(const Options& options) : options_(options) {
  GYO_CHECK_MSG(options_.max_bytes >= 0, "ResultCache max_bytes must be >= 0");
}

std::optional<ResultCache::Value> ResultCache::Get(const ResultKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;  // copy under the lock
}

void ResultCache::Put(const ResultKey& key, const Value& value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Deterministic executions of the same key produce the same value —
    // keep the incumbent, just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  const int64_t bytes = value.result.ArenaBytes() + kEntryOverheadBytes;
  stats_.bytes += bytes;
  lru_.push_front(Entry{key, value, bytes});
  index_.emplace(key, lru_.begin());
  while (stats_.bytes > options_.max_bytes && lru_.size() > 1) {
    stats_.bytes -= lru_.back().bytes;
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_ = ResultCacheStats();
}

}  // namespace cache
}  // namespace gyo
