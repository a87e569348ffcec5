#ifndef GYO_CACHE_RESULT_CACHE_H_
#define GYO_CACHE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/fingerprint.h"
#include "rel/program.h"
#include "rel/relation.h"
#include "schema/schema.h"
#include "util/attr_set.h"

namespace gyo {
namespace cache {

/// Content-addressed key of a full query: two independently-seeded 128-bit
/// fingerprints (256 bits total) over schema, target, every base tuple, and
/// a caller-chosen variant word (strategy, determinism flags, ...). Unlike
/// the plan cache there is no stored-query exact compare — retaining every
/// base relation per entry would defeat the cache — so the key must make
/// collisions negligible: a false hit requires the same input to collide in
/// two unrelated 128-bit hashes at once.
struct ResultKey {
  Fingerprint a;
  Fingerprint b;

  friend bool operator==(const ResultKey& x, const ResultKey& y) {
    return x.a == y.a && x.b == y.b;
  }
  friend bool operator!=(const ResultKey& x, const ResultKey& y) {
    return !(x == y);
  }
};

struct ResultKeyHash {
  size_t operator()(const ResultKey& k) const {
    return static_cast<size_t>(k.a.lo);
  }
};

/// Fingerprints the full query content under both lanes' seeds, in one
/// sweep over the column arenas (FingerprintDatabasePair). `variant`
/// distinguishes executions that may differ on identical data (resolved
/// strategy, deterministic mode, ...).
ResultKey MakeResultKey(const DatabaseSchema& d, const AttrSet& target,
                        const std::vector<Relation>& states, uint64_t variant);

struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  /// Bytes currently charged against Options::max_bytes: every entry's
  /// result arena bytes (ArenaBytes) plus ResultCache::kEntryOverheadBytes.
  int64_t bytes = 0;
};

/// Memoizes complete query answers — the final result relation plus the
/// execution's Program::Stats — keyed by ResultKey. A hit replays the
/// original answer byte-for-byte, which is only sound for deterministic
/// executions; callers gate nondeterministic runs out (gyo_serve only
/// consults it for deterministic requests). Bounded by bytes — each
/// entry's result arenas plus a fixed per-entry overhead, so even empty
/// results count — LRU-evicted, thread-safe; Get returns copies made under
/// the lock.
class ResultCache {
 public:
  struct Options {
    /// Bound on charged bytes: the sum over entries of the result's arena
    /// bytes (ArenaBytes) plus kEntryOverheadBytes. One entry always fits.
    int64_t max_bytes = 32ll << 20;
  };

  /// Bytes charged per entry on top of its result's arena bytes: the entry
  /// and its list and index nodes (the arithmetic is in result_cache.cc).
  /// Without it an empty result, or π_∅'s one-row TRUE, would cost 0 bytes
  /// and never evict.
  static const int64_t kEntryOverheadBytes;

  struct Value {
    Relation result;
    Program::Stats stats;
  };

  ResultCache() : ResultCache(Options()) {}
  explicit ResultCache(const Options& options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  std::optional<Value> Get(const ResultKey& key);
  void Put(const ResultKey& key, const Value& value);

  ResultCacheStats stats() const;
  void Clear();

 private:
  struct Entry {
    ResultKey key;
    Value value;
    int64_t bytes = 0;
  };

  const Options options_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<ResultKey, std::list<Entry>::iterator, ResultKeyHash>
      index_;
  ResultCacheStats stats_;
};

}  // namespace cache
}  // namespace gyo

#endif  // GYO_CACHE_RESULT_CACHE_H_
