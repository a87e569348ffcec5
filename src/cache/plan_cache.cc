#include "cache/plan_cache.h"

#include <utility>

#include "rel/solver.h"
#include "util/check.h"

namespace gyo {
namespace cache {

namespace {

// The map key: the canonical query fingerprint with the requested strategy
// mixed in (one cache holds entries for every strategy).
Fingerprint KeyFor(const Fingerprint& canon, PlanStrategy strategy) {
  FingerprintMixer mixer(/*seed=*/canon.lo);
  mixer.Absorb(canon.hi);
  mixer.Absorb(static_cast<uint64_t>(strategy));
  return mixer.Digest();
}

// Replays `p` with projection targets remapped through canonical ->
// caller ids. Join/semijoin statements carry only relation indices, which
// the relabeling does not touch.
Program RemapProgram(const Program& p,
                     const std::vector<AttrId>& canonical_to_caller) {
  Program out(p.num_base());
  for (const Program::Statement& s : p.Statements()) {
    switch (s.kind) {
      case Program::Statement::Kind::kJoin:
        out.AddJoin(s.lhs, s.rhs);
        break;
      case Program::Statement::Kind::kSemijoin:
        out.AddSemijoin(s.lhs, s.rhs);
        break;
      case Program::Statement::Kind::kProject: {
        AttrSet target;
        s.target.ForEach([&](AttrId c) {
          GYO_CHECK(static_cast<size_t>(c) < canonical_to_caller.size());
          target.Insert(canonical_to_caller[static_cast<size_t>(c)]);
        });
        out.AddProject(s.lhs, target);
        break;
      }
    }
  }
  return out;
}

}  // namespace

PlanCache::PlanCache(const Options& options) : options_(options) {
  GYO_CHECK_MSG(options_.max_entries >= 1,
                "PlanCache max_entries must be >= 1");
}

void PlanCache::Build(const CanonicalQuery& canon, PlanStrategy strategy,
                      Entry* entry) {
  entry->requested = strategy;
  entry->schema = canon.schema;
  entry->target = canon.target;
  std::optional<Program> yannakakis;
  switch (strategy) {
    case PlanStrategy::kFullJoin:
      entry->resolved = PlanStrategy::kFullJoin;
      entry->program = FullJoinProgram(canon.schema, canon.target);
      entry->has_program = true;
      // FullJoin never runs the GYO reduction; probe acyclicity anyway so
      // the flag means the same thing on every entry.
      entry->acyclic =
          YannakakisProgram(canon.schema, canon.target).has_value();
      break;
    case PlanStrategy::kCcPruned:
      entry->resolved = PlanStrategy::kCcPruned;
      entry->program = CCPrunedProgram(canon.schema, canon.target);
      entry->has_program = true;
      entry->acyclic =
          YannakakisProgram(canon.schema, canon.target).has_value();
      break;
    case PlanStrategy::kYannakakis:
      yannakakis = YannakakisProgram(canon.schema, canon.target);
      entry->acyclic = yannakakis.has_value();
      entry->resolved = PlanStrategy::kYannakakis;
      if (yannakakis.has_value()) {
        entry->program = *std::move(yannakakis);
        entry->has_program = true;
      }
      break;
    case PlanStrategy::kAuto:
      yannakakis = YannakakisProgram(canon.schema, canon.target);
      entry->acyclic = yannakakis.has_value();
      if (yannakakis.has_value()) {
        entry->resolved = PlanStrategy::kYannakakis;
        entry->program = *std::move(yannakakis);
      } else {
        entry->resolved = PlanStrategy::kCcPruned;
        entry->program = CCPrunedProgram(canon.schema, canon.target);
      }
      entry->has_program = true;
      break;
  }
  if (entry->has_program) {
    // Memoize the dataflow analysis alongside the program: statement
    // indices are rename-invariant, so the analysis transfers verbatim to
    // every caller-space remapping of this entry.
    exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(entry->program);
    entry->deps = plan.Dependencies();
    entry->reader_counts = plan.ReaderCounts();
  }
}

PlanCache::Result PlanCache::ToResult(const Entry& entry,
                                      const CanonicalQuery& canon, bool hit) {
  Program program = RemapProgram(entry.program, canon.canonical_to_caller);
  Program plan_program = program;
  return Result{hit, entry.acyclic, entry.resolved, std::move(program),
                exec::PhysicalPlan::FromAnalysis(std::move(plan_program),
                                                 entry.deps,
                                                 entry.reader_counts)};
}

std::optional<PlanCache::Result> PlanCache::GetOrBuild(const DatabaseSchema& d,
                                                       const AttrSet& target,
                                                       PlanStrategy strategy) {
  const CanonicalQuery canon = CanonicalizeQuery(d, target);
  const Fingerprint key = KeyFor(canon.fingerprint, strategy);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end() && it->second->requested == strategy &&
        canon.SameShape(it->second->schema, it->second->target)) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // most recently used
      const Entry& entry = *it->second;
      if (!entry.has_program) return std::nullopt;  // memoized cyclic verdict
      return ToResult(entry, canon, /*hit=*/true);
    }
    ++stats_.misses;
  }

  // Miss: build outside the lock (pure CPU over the canonical schema), then
  // insert. A racing miss for the same key may get here first — keep the
  // incumbent and drop ours; both builds are deterministic and equal.
  Entry fresh;
  fresh.key = key;
  Build(canon, strategy, &fresh);
  std::optional<Result> result =
      fresh.has_program
          ? std::optional<Result>(ToResult(fresh, canon, /*hit=*/false))
          : std::nullopt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.find(key) == index_.end()) {
      lru_.push_front(std::move(fresh));
      index_.emplace(key, lru_.begin());
      while (lru_.size() > options_.max_entries) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
      }
    }
    stats_.entries = lru_.size();
  }
  return result;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_ = PlanCacheStats();
}

}  // namespace cache
}  // namespace gyo
