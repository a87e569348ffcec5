// Seeded workload generators. Every base's data is a universal-relation
// database (projections of one random relation), so answers are non-empty,
// and every reference answer comes from a second route: a serial left-deep
// join of all relations followed by the projection, never the server's
// Yannakakis or CC-pruned program.

#include <algorithm>
#include <string>
#include <utility>

#include "rel/program.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/catalog.h"
#include "servebench.h"
#include "util/check.h"
#include "util/rng.h"

namespace servebench {

using gyo::AttrSet;
using gyo::Relation;
using gyo::Rng;
using gyo::Value;

namespace {

// Reserved band of the fresh-row values; generated data stays far below.
constexpr Value kFreshBase = Value{1} << 40;

// plan_churn regenerates a query whose reference join ever holds more rows
// than this (see MakePlanChurn).
constexpr int64_t kChurnMaxIntermediateRows = 4096;

Base ParseBase(std::string schema_spec, std::string target_spec) {
  Base base;
  gyo::Catalog catalog;
  std::string error;
  GYO_CHECK_MSG(gyo::serve::SafeParseSchema(catalog, schema_spec, &base.schema,
                                            &error) &&
                    gyo::serve::SafeParseAttrSet(catalog, target_spec,
                                                 &base.target, &error),
                "bad generated query: %s", error.c_str());
  base.schema_spec = std::move(schema_spec);
  base.target_spec = std::move(target_spec);
  return base;
}

// Canonicalizes the states and computes the reference answer.
void FinishBase(Base* base) {
  for (Relation& r : base->states) r.Canonicalize();
  base->reference =
      gyo::EvaluateJoinQuery(base->schema, base->target, base->states);
  base->reference.Canonicalize();
}

// A universal relation whose every column holds each of `rows / copies`
// values exactly `copies` times, in a seeded order. Every value of every
// projection then has the same degree, so join sizes depend on the seed
// only through rare duplicate rows: the seed changes the data, not the work.
Relation RegularUniversal(const AttrSet& universe, int rows, int copies,
                          Value scale, Rng& rng) {
  Relation out(universe);
  const int64_t first = out.AppendRows(rows);
  std::vector<Value> column(static_cast<size_t>(rows));
  for (int c = 0; c < out.Arity(); ++c) {
    for (int i = 0; i < rows; ++i) {
      column[static_cast<size_t>(i)] = static_cast<Value>(i / copies) * scale;
    }
    for (size_t i = column.size() - 1; i > 0; --i) {
      std::swap(column[i], column[rng.Below(i + 1)]);
    }
    std::copy(column.begin(), column.end(), out.ColData(c) + first);
  }
  out.Canonicalize();
  return out;
}

Base UniversalBase(std::string schema_spec, std::string target_spec,
                   int rows, int copies, Rng& rng) {
  Base base = ParseBase(std::move(schema_spec), std::move(target_spec));
  base.states = gyo::ProjectDatabase(
      RegularUniversal(base.schema.Universe(), rows, copies, 1, rng),
      base.schema);
  FinishBase(&base);
  return base;
}

// Warm-up long enough that the result cache is full and evicting.
int64_t FillResultCache(const Base& base, int64_t extra) {
  const int64_t entry = std::max<int64_t>(1, base.reference.ArenaBytes());
  return (kResultCacheBytes + entry - 1) / entry + extra;
}

// The ROADMAP's canonical query: an 8-relation path, target ai. Planted rows
// come from one universal relation and all survive; every relation also
// gets dangling rows from its own value band, which matches no neighbour's
// band, so the full reducer removes all of them.
void MakePathReduce(uint64_t seed, Workload* w) {
  constexpr int kPlanted = 4096;
  constexpr int kDangling = 4096;
  // Planted values are spread so they encode in three varint bytes, like
  // the dangling ones.
  constexpr Value kSpread = 32;
  constexpr int kBand = kPlanted * kSpread;
  Rng rng(seed);
  Base base = ParseBase("ab,bc,cd,de,ef,fg,gh,hi", "ai");
  base.states = gyo::ProjectDatabase(
      RegularUniversal(base.schema.Universe(), kPlanted, 1, kSpread, rng),
      base.schema);
  for (size_t i = 0; i < base.states.size(); ++i) {
    const Value band = static_cast<Value>(i + 1) * kBand;
    for (int k = 0; k < kDangling; ++k) {
      const Value row[2] = {band + static_cast<Value>(rng.Below(kBand)),
                            band + static_cast<Value>(rng.Below(kBand))};
      base.states[i].AddRow(row, 2);
    }
  }
  FinishBase(&base);
  w->clients = 2;
  w->fresh_row = true;
  w->warmup_requests = FillResultCache(base, 64);
  w->bases.push_back(std::move(base));
}

// A 6-ring resolves to the CC-pruned join: no semijoins. Every value occurs
// twice per column, so each join of the chain doubles the intermediate
// (2048 rows up to 32768) before the closing join and the projection.
void MakeRingJoin(uint64_t seed, Workload* w) {
  Rng rng(seed);
  w->bases.push_back(UniversalBase("ab,bc,cd,de,ef,fa", "ad", 2048, 2, rng));
  w->clients = 4;
  w->fresh_row = true;
  w->warmup_requests = FillResultCache(w->bases[0], 64);
}

// Eight fixed mid-size queries, tree and cyclic, repeated exactly: after
// warm-up every request is a plan-cache and result-cache hit.
void MakeHotRepeat(uint64_t seed, Workload* w) {
  static const char* const kQueries[][2] = {
      {"ab,bc,cd,de", "ae"},        {"ab,ac,ad,ae", "be"},
      {"abc,cd,ce,ef", "bf"},       {"ab,bc,cd,de,ef,fg", "ag"},
      {"ab,bc,ca", "ac"},           {"ab,bc,cd,da", "ac"},
      {"ab,bc,cd,de,ea", "ad"},     {"abx,bcy,cdz,da", "xz"},
  };
  Rng rng(seed);
  for (const auto& q : kQueries) {
    w->bases.push_back(UniversalBase(q[0], q[1], 1024, 1, rng));
  }
  w->clients = 2;
  w->fresh_row = false;
  w->warmup_requests = 16 * static_cast<int64_t>(w->bases.size());
}

// A connected random tree schema: relation 0 has two fresh attributes, and
// each later relation shares one or two attributes of an earlier relation
// and adds one or two fresh ones (so every relation has arity >= 2 and the
// left-deep reference join never forms a Cartesian product).
std::string RandomTreeSpec(int relations, Rng& rng, int* num_attrs) {
  std::vector<std::vector<int>> rels;
  int next = 0;
  rels.push_back({next, next + 1});
  next += 2;
  for (int i = 1; i < relations; ++i) {
    const std::vector<int>& parent = rels[rng.Below(rels.size())];
    std::vector<int> rel = parent;
    for (size_t k = rel.size() - 1; k > 0; --k) {  // shuffle, keep a prefix
      std::swap(rel[k], rel[rng.Below(k + 1)]);
    }
    rel.resize(1 + rng.Below(std::min<size_t>(2, rel.size())));
    const int fresh = 1 + static_cast<int>(rng.Below(2));
    for (int f = 0; f < fresh; ++f) rel.push_back(next++);
    rels.push_back(std::move(rel));
  }
  std::string spec;
  for (const std::vector<int>& rel : rels) {
    if (!spec.empty()) spec += ",";
    for (size_t k = 0; k < rel.size(); ++k) {
      spec += (k == 0 ? "v" : " v") + std::to_string(rel[k]);
    }
  }
  *num_attrs = next;
  return spec;
}

// Distinct 48-relation tree schemas, cycled so that the 128-entry plan cache
// misses on every request. The pool is larger than the plan cache, so LRU
// order guarantees the miss.
void MakePlanChurn(uint64_t seed, Workload* w) {
  constexpr int kQueries = 512;
  constexpr int kRelations = 48;
  constexpr int kRows = 64;
  constexpr int kDomain = 1 << 20;  // key-like: chance matches are rare
  Rng rng(seed);
  while (static_cast<int>(w->bases.size()) < kQueries) {
    int num_attrs = 0;
    std::string spec = RandomTreeSpec(kRelations, rng, &num_attrs);
    const int x = static_cast<int>(rng.Below(num_attrs));
    int y = static_cast<int>(rng.Below(num_attrs - 1));
    if (y >= x) ++y;
    Base base = ParseBase(std::move(spec), "v" + std::to_string(x) + " v" +
                                               std::to_string(y));
    const Relation universal =
        gyo::RandomUniversal(base.schema.Universe(), kRows, kDomain, rng);
    base.states = gyo::ProjectDatabase(universal, base.schema);
    for (Relation& r : base.states) r.Canonicalize();
    // Reference through the serial full-join program, which also bounds
    // the intermediate size: a query whose join grows past the bound is
    // replaced by a fresh draw.
    gyo::Program::Stats stats;
    std::vector<Relation> out =
        gyo::FullJoinProgram(base.schema, base.target)
            .ExecuteWithStats(base.states, &stats);
    if (stats.max_intermediate_rows > kChurnMaxIntermediateRows) continue;
    base.reference = std::move(out.back());
    base.reference.Canonicalize();
    w->bases.push_back(std::move(base));
  }
  w->clients = 2;
  w->fresh_row = true;
  w->warmup_requests = 2 * static_cast<int64_t>(kPlanCacheEntries) + 64;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "path_reduce") {
    MakePathReduce(seed, &w);
  } else if (name == "ring_join") {
    MakeRingJoin(seed, &w);
  } else if (name == "hot_repeat") {
    MakeHotRepeat(seed, &w);
  } else if (name == "plan_churn") {
    MakePlanChurn(seed, &w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

RequestSource::RequestSource(const Workload& workload)
    : fresh_row_(workload.fresh_row) {
  for (const Base& base : workload.bases) {
    gyo::serve::QueryRequest request;
    request.schema_spec = base.schema_spec;
    request.target_spec = base.target_spec;
    request.states = base.states;
    if (fresh_row_) {
      // The fresh values exceed every generated value, so the row sorts
      // last and the relation stays canonical when it is rewritten.
      Relation& first = request.states[0];
      first.AddRow(
          std::vector<Value>(static_cast<size_t>(first.Arity()), kFreshBase));
      first.Canonicalize();
    }
    requests_.push_back(std::move(request));
  }
}

const gyo::serve::QueryRequest& RequestSource::For(uint64_t request_id) {
  gyo::serve::QueryRequest* request =
      &requests_[request_id % requests_.size()];
  if (fresh_row_) {
    Relation& first = request->states[0];
    const int64_t last = first.NumRows() - 1;
    for (int c = 0; c < first.Arity(); ++c) {
      first.ColData(c)[last] =
          kFreshBase + static_cast<Value>(request_id << 6) + c;
    }
  }
  return *request;
}

bool MatchesReference(const Relation& result, const Base& base) {
  return result.NumRows() == base.reference.NumRows() &&
         result.EqualsAsSet(base.reference);
}

}  // namespace servebench
