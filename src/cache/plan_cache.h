#ifndef GYO_CACHE_PLAN_CACHE_H_
#define GYO_CACHE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/fingerprint.h"
#include "exec/physical_plan.h"
#include "rel/program.h"
#include "schema/schema.h"
#include "util/attr_set.h"

namespace gyo {
namespace cache {

/// The solver strategies the plan cache memoizes — mirrors the serve wire
/// enum (serve/frame.h) without depending on it.
enum class PlanStrategy : uint8_t {
  kAuto = 0,
  kFullJoin = 1,
  kCcPruned = 2,
  kYannakakis = 3,
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
};

/// Memoizes the pure schema-level work of answering a query: the GYO
/// reduction / join-tree construction inside the strategy builders, the
/// resulting semijoin-join-project Program, and the PhysicalPlan dataflow
/// analysis (statement dependencies + reader counts). Keyed by the canonical
/// hypergraph fingerprint of (schema, target) plus the requested strategy,
/// with the canonical form stored and compared exactly on every lookup so a
/// fingerprint collision is a miss, never a wrong plan.
///
/// Entries are stored in *canonical* attribute space: on a hit the program's
/// projection targets are remapped through the query's inverse relabeling
/// (join/semijoin statements carry only relation indices, which are
/// rename-invariant, and so is the dataflow analysis). Both the hit and the
/// miss path therefore return the same caller-space program for the same
/// canonical query — byte-for-byte — which is what makes cached serve
/// replies bit-identical to first-time execution.
///
/// Bounded LRU, thread-safe: lookups and inserts take one mutex; builds run
/// outside it (two racing misses may both build — the second insert is
/// dropped in favor of the first).
class PlanCache {
 public:
  struct Options {
    /// Entry bound; evicting the least recently used beyond it. Must be >= 1.
    size_t max_entries = 128;
  };

  PlanCache() : PlanCache(Options()) {}
  explicit PlanCache(const Options& options);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  struct Result {
    /// True when the plan came out of the cache (including memoized
    /// "Yannakakis does not apply" verdicts).
    bool hit = false;
    /// True when the schema admitted a join tree (the GYO reduction
    /// succeeded) — memoized, so a kAuto hit resolves without re-reducing.
    bool acyclic = false;
    /// The strategy actually planned (kAuto resolved).
    PlanStrategy resolved = PlanStrategy::kAuto;
    /// Caller-attribute-space program and its compiled plan (analysis shared
    /// with the cache entry's memoized one).
    Program program;
    exec::PhysicalPlan plan;
  };

  /// Returns the memoized (or freshly built and inserted) plan for
  /// (d, target, strategy). nullopt iff strategy == kYannakakis and the
  /// schema is cyclic — that verdict is itself cached, so repeat rejections
  /// cost one fingerprint. kAuto resolves to Yannakakis on tree schemas and
  /// CC-pruned join-project otherwise, exactly like the serve front end.
  std::optional<Result> GetOrBuild(const DatabaseSchema& d,
                                   const AttrSet& target,
                                   PlanStrategy strategy);

  PlanCacheStats stats() const;
  void Clear();

 private:
  struct Entry {
    Fingerprint key;
    PlanStrategy requested;
    // Exact canonical identity (collision guard).
    DatabaseSchema schema;
    AttrSet target;
    // Memoized build products, canonical space.
    bool acyclic = false;
    PlanStrategy resolved = PlanStrategy::kAuto;
    bool has_program = false;
    Program program{0};
    std::vector<std::vector<int>> deps;
    std::vector<int> reader_counts;
  };

  // Builds the canonical-space entry body for (canon, strategy).
  static void Build(const CanonicalQuery& canon, PlanStrategy strategy,
                    Entry* entry);
  // Maps the entry's program/analysis into caller space as a Result.
  static Result ToResult(const Entry& entry, const CanonicalQuery& canon,
                         bool hit);

  const Options options_;
  mutable std::mutex mu_;
  // Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<Fingerprint, std::list<Entry>::iterator, FingerprintHash>
      index_;
  PlanCacheStats stats_;
};

}  // namespace cache
}  // namespace gyo

#endif  // GYO_CACHE_PLAN_CACHE_H_
