#include "rel/ops.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "exec/task_scheduler.h"
#include "rel/simd.h"
#include "util/check.h"

namespace gyo {

using exec::QueryCounters;

namespace {

// FNV-1a alone distributes small sequential integers (the common
// test/benchmark domain) badly in power-of-two bucket arrays; the Murmur3
// finalizer sweep (simd::AvalancheSweep) spreads every input bit over the
// whole word.
constexpr uint64_t kFnvSeed = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// The key columns of `rel` selected by `cols`, as flat arena pointers — the
// form every kernel below hashes and compares against. Invalidated by any
// mutation of `rel`.
inline std::vector<const Value*> KeyCols(const Relation& rel,
                                         const std::vector<int>& cols) {
  std::vector<const Value*> keys;
  keys.reserve(cols.size());
  for (int c : cols) keys.push_back(rel.ColData(c));
  return keys;
}

// Column-at-a-time key hashing: writes the key hash of every row in
// [lo, hi) to out[0 .. hi-lo). One FNV-1a fold pass per key column over its
// flat arena (seed broadcast, then per-column xor-multiply sweeps, then one
// avalanche sweep), each sweep explicitly vectorized (rel/simd.h) with hash
// values bit-identical to the scalar loops — same fold order, same
// constants, per-lane xor/multiply/shift — so bucket chains, Bloom bits,
// and output orders are unchanged across the dispatch tiers.
inline void HashColumns(const std::vector<const Value*>& keys, int64_t lo,
                        int64_t hi, uint64_t* out) {
  const int64_t n = hi - lo;
  simd::FillU64(out, n, kFnvSeed);
  for (const Value* col : keys) {
    simd::XorMulU64(out, col + lo, n, kFnvPrime);
  }
  simd::AvalancheSweep(out, n);
}

// Rows per block of the scratch hash buffer the streaming probe/build loops
// run through: 32 KiB of hashes, L1-resident, so HashColumns amortizes
// without the buffer competing with the build side for cache.
constexpr int64_t kHashBlockRows = 4096;

// Invokes fn(row, hash) for every row in [lo, hi), hashing column-at-a-time
// in kHashBlockRows blocks through `scratch`. The block is sized to the input
// (small relations value-initialize only the hashes they use); every slot is
// written before it is read.
template <typename Fn>
inline void ForEachHashed(const std::vector<const Value*>& keys, int64_t lo,
                          int64_t hi, std::vector<uint64_t>& scratch,
                          Fn&& fn) {
  scratch.resize(static_cast<size_t>(std::min(kHashBlockRows, hi - lo)));
  for (int64_t b = lo; b < hi; b += kHashBlockRows) {
    const int64_t e = std::min(hi, b + kHashBlockRows);
    HashColumns(keys, b, e, scratch.data());
    for (int64_t i = b; i < e; ++i) {
      fn(i, scratch[static_cast<size_t>(i - b)]);
    }
  }
}

// Compares the key of row `a_row` (under columns `a_keys`) with the key of
// row `b_row` (under `b_keys`); the two key lists hold `num_keys` columns
// aligned on the same attributes.
inline bool KeysEqual(const Value* const* a_keys, int64_t a_row,
                      const Value* const* b_keys, int64_t b_row,
                      size_t num_keys) {
  for (size_t k = 0; k < num_keys; ++k) {
    if (a_keys[k][a_row] != b_keys[k][b_row]) return false;
  }
  return true;
}

// Gathers src_col[ids[t]] into dst[t] — the per-column compaction primitive
// every kernel's output pass is built from (order-preserving).
inline void GatherColumn(const Value* src_col,
                         const std::vector<int64_t>& ids, Value* dst) {
  simd::Gather64(src_col, ids.data(), static_cast<int64_t>(ids.size()), dst);
}

inline size_t NextPow2AtLeast(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

// A chained hash index from key-column values to row indices. Keys are
// never materialized: both build and probe hash/compare directly against
// flat column arenas.
class ColumnIndex {
 public:
  struct Entry {
    uint64_t hash;
    int64_t row;
    int64_t next;  // previous entry in the same bucket, -1 at chain end
  };

  // The index as its probes read it: raw pointers, the bucket mask and the
  // key count. The arrays never move, so a view stays valid across Add().
  struct View {
    const Value* const* keys;
    size_t num_keys;
    const int64_t* heads;
    const Entry* entries;
    size_t mask;

    // The first entry of key hash `h`'s bucket chain (-1 when empty).
    int64_t Head(uint64_t h) const {
      return heads[static_cast<size_t>(h) & mask];
    }

    // The first entry at or after chain position `e` whose key equals the
    // key of `probe_row` under `probe_keys` (key hash `h`); -1 when none.
    int64_t Match(int64_t e, const Value* const* probe_keys,
                  int64_t probe_row, uint64_t h) const {
      for (; e >= 0; e = entries[e].next) {
        if (entries[e].hash == h &&
            KeysEqual(keys, entries[e].row, probe_keys, probe_row, num_keys)) {
          return e;
        }
      }
      return -1;
    }
  };

  // An empty index with room for `capacity` rows; register them with Add().
  ColumnIndex(std::vector<const Value*> keys, int64_t capacity)
      : keys_(std::move(keys)),
        entries_(new Entry[static_cast<size_t>(capacity)]),
        capacity_(capacity) {
    const size_t buckets = NextPow2AtLeast(2 * static_cast<size_t>(capacity));
    mask_ = buckets - 1;
    heads_.assign(buckets, -1);
  }

  // Registers row `row` under its (precomputed) key hash. The entries are a
  // fixed array, so the insert has no growth path: nothing on it makes the
  // compiler spill the new entry to memory.
  void Add(int64_t row, uint64_t hash) {
    GYO_DCHECK(size_ < capacity_);
    const size_t b = static_cast<size_t>(hash) & mask_;
    entries_[static_cast<size_t>(size_)] = Entry{hash, row, heads_[b]};
    heads_[b] = size_++;
  }

  View view() const {
    return View{keys_.data(), keys_.size(), heads_.data(), entries_.get(),
                mask_};
  }

 private:
  std::vector<const Value*> keys_;
  std::vector<int64_t> heads_;
  std::unique_ptr<Entry[]> entries_;
  int64_t capacity_;
  int64_t size_ = 0;
  size_t mask_;
};

// Serial build: indexes rows [0, n) under `keys`, and when `bloom` is
// non-null and the build clears the kMinBloomBuildRows gate, fills it from
// the same hash stream (it stays disabled otherwise).
ColumnIndex BuildIndex(const std::vector<const Value*>& keys, int64_t n,
                       BloomFilter* bloom) {
  ColumnIndex index(keys, n);
  if (bloom != nullptr && n >= kMinBloomBuildRows) *bloom = BloomFilter(n);
  std::vector<uint64_t> scratch;
  ForEachHashed(keys, 0, n, scratch, [&](int64_t i, uint64_t h) {
    index.Add(i, h);
    if (bloom != nullptr && bloom->enabled()) bloom->Add(h);
  });
  return index;
}

// ---------------------------------------------------------------------------
// The kernel shape Semijoin and NaturalJoin share (BuildAndProbe, then
// GatherMorsels).

inline int64_t NumMorsels(int64_t rows, int64_t morsel_rows) {
  return (rows + morsel_rows - 1) / morsel_rows;
}

// Copies `opts` with the kernel's fork decision made once, up front, for a
// probe side of `probe_rows` rows of `probe_arity` columns: morsel_rows is
// resolved (AutoMorselRows when left at 0), and the scheduler is dropped
// when the kernel should not fork — always on a 1-thread pool; with an
// explicit morsel size, when the probe side fits in one morsel; with an
// auto-sized one, when it spans fewer than kMinMorselsPerThread morsels per
// pool thread. So `opts.scheduler != nullptr` is the fork decision.
inline OpExecOpts ResolveFork(const OpExecOpts& opts, int probe_arity,
                              int64_t probe_rows) {
  OpExecOpts resolved = opts;
  const bool auto_sized = resolved.morsel_rows <= 0;
  if (auto_sized) resolved.morsel_rows = AutoMorselRows(probe_arity);
  const int threads =
      opts.scheduler == nullptr ? 1 : opts.scheduler->threads();
  const int64_t min_morsels =
      auto_sized ? kMinMorselsPerThread * threads : int64_t{2};
  if (threads <= 1 ||
      NumMorsels(probe_rows, resolved.morsel_rows) < min_morsels) {
    resolved.scheduler = nullptr;
  }
  return resolved;
}

// Adds `n` to one counter of the query's block (OpExecOpts::counters), when
// one is attached. Relaxed: the counts are tallies, not synchronization.
inline void Tally(const OpExecOpts& opts,
                  std::atomic<int64_t> QueryCounters::*counter, int64_t n) {
  if (n > 0 && opts.counters != nullptr) {
    ((*opts.counters).*counter).fetch_add(n, std::memory_order_relaxed);
  }
}

// True iff any attached SIP filter proves key hash `h` cannot survive the
// downstream chain (Bloom filters have no false negatives, so a rejection
// is a proof). A pure function of `h` — identical decisions on every
// thread, so pruning preserves determinism.
inline bool SipReject(const std::vector<const BloomFilter*>* filters,
                      uint64_t h) {
  if (filters == nullptr) return false;
  for (const BloomFilter* f : *filters) {
    if (!f->MaybeContains(h)) return true;
  }
  return false;
}

// What a morsel's row loop reads, handed to it by value: the build's index
// view and Bloom filter, the probe side's key columns (aligned with the
// index's) and Semijoin's SIP filters. Reached through a closure reference
// instead, these fields would be reloaded after every id push_back (an
// int64_t store may alias the size_t masks) whenever the compiler does not
// inline the morsel closure.
struct ProbeView {
  ColumnIndex::View index;
  const Value* const* keys;
  const BloomFilter* bloom;  // nullptr when the build skipped its filter
  const std::vector<const BloomFilter*>* sip;
};

// One morsel's output: the selected probe rows (Semijoin), or the (probe
// row, build row) id pair of every match (NaturalJoin), in probe-row order
// and, within a row, in chain order.
struct MorselIds {
  std::vector<int64_t> probe;
  std::vector<int64_t> build;
};

// Probes rows [lo, hi) against `p`, checking SIP, then Bloom, then the
// bucket chain: Semijoin (kJoin false) keeps each row with a match,
// NaturalJoin every match. The id vectors start with room for one id per
// row. Tallies the SIP and Bloom rejections.
template <bool kJoin>
MorselIds ProbeRows(const ProbeView p, const std::vector<const Value*>& keys,
                    const OpExecOpts& opts, int64_t lo, int64_t hi) {
  MorselIds ids;
  ids.probe.reserve(static_cast<size_t>(hi - lo));
  if (kJoin) ids.build.reserve(static_cast<size_t>(hi - lo));
  std::vector<uint64_t> scratch;
  int64_t pruned = 0;
  int64_t sip_pruned = 0;
  ForEachHashed(keys, lo, hi, scratch, [&](int64_t i, uint64_t h) {
    if (SipReject(p.sip, h)) {
      ++sip_pruned;
    } else if (p.bloom != nullptr && !p.bloom->MaybeContains(h)) {
      ++pruned;
    } else {
      for (int64_t e = p.index.Match(p.index.Head(h), p.keys, i, h); e >= 0;
           e = kJoin ? p.index.Match(p.index.entries[e].next, p.keys, i, h)
                     : -1) {
        ids.probe.push_back(i);
        if (kJoin) ids.build.push_back(p.index.entries[e].row);
      }
    }
  });
  Tally(opts, &QueryCounters::probe_rows_pruned, pruned);
  Tally(opts, &QueryCounters::sip_rows_pruned, sip_pruned);
  return ids;
}

// Runs fn(m) for every m in [0, count): on the pool when the kernel forks,
// inline in order when it does not.
template <typename Fn>
void RunMorsels(const OpExecOpts& opts, int64_t count, const Fn& fn) {
  if (opts.scheduler == nullptr) {
    for (int64_t m = 0; m < count; ++m) fn(m);
  } else {
    opts.scheduler->ParallelFor(count, fn, opts.counters);
  }
}

// The kernel body up to its gather: builds one ColumnIndex and one
// whole-build Bloom filter over `cols` of `build`, then runs the in-order
// morsel probe of the `n` probe rows keyed by `keys` — contiguous row-order
// morsels of opts.morsel_rows rows when the kernel forks, one morsel [0, n)
// when it does not. Every morsel reads the shared, read-only index and
// filter. Returns the morsels' ids in morsel order. A forked kernel counts
// this pass and the gather pass that follows it.
template <bool kJoin>
std::vector<MorselIds> BuildAndProbe(const Relation& build,
                                     const std::vector<int>& cols,
                                     const std::vector<const Value*>& keys,
                                     int64_t n, const OpExecOpts& opts) {
  BloomFilter bloom;
  const ColumnIndex index =
      BuildIndex(KeyCols(build, cols), build.NumRows(), &bloom);
  const ProbeView p{index.view(), keys.data(),
                    bloom.enabled() ? &bloom : nullptr,
                    kJoin ? nullptr : opts.sip_filters};
  const int64_t rows =
      opts.scheduler == nullptr ? std::max<int64_t>(n, 1) : opts.morsel_rows;
  std::vector<MorselIds> ids(static_cast<size_t>(NumMorsels(n, rows)));
  if (opts.scheduler != nullptr) {
    Tally(opts, &QueryCounters::morsels, 2 * static_cast<int64_t>(ids.size()));
  }
  RunMorsels(opts, static_cast<int64_t>(ids.size()), [&](int64_t m) {
    const int64_t lo = m * rows;
    ids[static_cast<size_t>(m)] =
        ProbeRows<kJoin>(p, keys, opts, lo, std::min(n, lo + rows));
  });
  return ids;
}

// The gather pass after BuildAndProbe: a prefix sum over the morsels' id
// counts, in morsel order, places each morsel's output rows after one
// AppendRows, and gather(ids, dst) fills each non-empty morsel's rows from
// row dst on. Morsels are row ranges in order, so this concatenation is the
// one-morsel output at every morsel size.
template <typename Gather>
void GatherMorsels(const OpExecOpts& opts, const std::vector<MorselIds>& ids,
                   Relation& out, const Gather& gather) {
  std::vector<int64_t> offsets(ids.size() + 1, 0);
  for (size_t m = 0; m < ids.size(); ++m) {
    offsets[m + 1] = offsets[m] + static_cast<int64_t>(ids[m].probe.size());
  }
  const int64_t base = out.AppendRows(offsets.back());
  RunMorsels(opts, static_cast<int64_t>(ids.size()), [&](int64_t m) {
    const size_t k = static_cast<size_t>(m);
    if (!ids[k].probe.empty()) gather(ids[k], base + offsets[k]);
  });
}

}  // namespace

Relation Project(const Relation& r, const AttrSet& x) {
  GYO_CHECK_MSG(x.IsSubsetOf(r.Schema()), "projection target not in schema");
  Relation out(x);
  std::vector<int> cols;
  cols.reserve(static_cast<size_t>(out.Arity()));
  for (AttrId a : out.Attrs()) cols.push_back(r.ColIndex(a));

  const int64_t n = r.NumRows();
  if (out.Arity() == 0) {
    // π_∅: TRUE (one empty tuple) iff r is non-empty.
    if (n > 0) out.AppendRows(1);
    out.MarkCanonical();
    return out;
  }

  // First-occurrence selection: an incremental ColumnIndex over the input
  // keyed on the projected columns records every distinct key's first row;
  // one gather pass per column then compacts the survivors. No sort — the
  // result is duplicate-free but left non-canonical (sortedness is lazy).
  const std::vector<const Value*> keys = KeyCols(r, cols);
  ColumnIndex seen(keys, n);
  std::vector<int64_t> survivors;
  std::vector<uint64_t> scratch;
  const ColumnIndex::View view = seen.view();
  ForEachHashed(keys, 0, n, scratch, [&](int64_t i, uint64_t h) {
    if (view.Match(view.Head(h), keys.data(), i, h) >= 0) return;
    seen.Add(i, h);
    survivors.push_back(i);
  });
  const int64_t base = out.AppendRows(static_cast<int64_t>(survivors.size()));
  for (size_t k = 0; k < cols.size(); ++k) {
    GatherColumn(r.ColData(cols[k]), survivors,
                 out.ColData(static_cast<int>(k)) + base);
  }
  return out;
}

Relation NaturalJoin(const Relation& r, const Relation& s,
                     const OpExecOpts& caller_opts) {
  // The probe side is the larger input (chosen below); auto-tune for the
  // wider of the two arities, the conservative cache-residency choice.
  const OpExecOpts opts =
      ResolveFork(caller_opts, std::max(r.Arity(), s.Arity()),
                  std::max(r.NumRows(), s.NumRows()));
  AttrSet common = r.Schema().Intersect(s.Schema());
  AttrSet result_schema = r.Schema().Union(s.Schema());
  Relation out(result_schema);

  std::vector<int> r_key_cols;
  std::vector<int> s_key_cols;
  common.ForEach([&](AttrId a) {
    r_key_cols.push_back(r.ColIndex(a));
    s_key_cols.push_back(s.ColIndex(a));
  });

  // Build on the smaller input.
  const Relation& build = s.NumRows() <= r.NumRows() ? s : r;
  const Relation& probe = s.NumRows() <= r.NumRows() ? r : s;
  const std::vector<int>& build_cols =
      (&build == &s) ? s_key_cols : r_key_cols;
  const std::vector<int>& probe_cols =
      (&build == &s) ? r_key_cols : s_key_cols;
  const std::vector<const Value*> probe_keys = KeyCols(probe, probe_cols);

  // Output column sources: for each result attribute, where to read it from.
  struct Source {
    bool from_probe;
    int col;
  };
  std::vector<Source> sources;
  sources.reserve(static_cast<size_t>(out.Arity()));
  for (AttrId a : out.Attrs()) {
    if (probe.Schema().Contains(a)) {
      sources.push_back(Source{true, probe.ColIndex(a)});
    } else {
      sources.push_back(Source{false, build.ColIndex(a)});
    }
  }

  // Concatenating the morsels' match lists in morsel order yields the
  // one-morsel output row for row. Distinct (probe, build) row pairs yield
  // distinct output tuples (the output determines both inputs), so
  // duplicate-free inputs give a duplicate-free output.
  const std::vector<MorselIds> matches = BuildAndProbe<true>(
      build, build_cols, probe_keys, probe.NumRows(), opts);
  GatherMorsels(opts, matches, out, [&](const MorselIds& ids, int64_t dst) {
    for (size_t k = 0; k < sources.size(); ++k) {
      const Relation& src = sources[k].from_probe ? probe : build;
      GatherColumn(src.ColData(sources[k].col),
                   sources[k].from_probe ? ids.probe : ids.build,
                   out.ColData(static_cast<int>(k)) + dst);
    }
  });
  return out;
}

Relation Semijoin(const Relation& r, const Relation& s,
                  const OpExecOpts& caller_opts) {
  const OpExecOpts opts = ResolveFork(caller_opts, r.Arity(), r.NumRows());
  AttrSet common = r.Schema().Intersect(s.Schema());
  Relation out(r.Schema());
  std::vector<int> r_cols;
  std::vector<int> s_cols;
  common.ForEach([&](AttrId a) {
    r_cols.push_back(r.ColIndex(a));
    s_cols.push_back(s.ColIndex(a));
  });
  const std::vector<const Value*> probe_keys = KeyCols(r, r_cols);

  // The morsels' selections concatenate in morsel order into the
  // one-morsel selection. Every morsel tests the same filters on the same
  // hashes, so the prune counters do not depend on the thread count or the
  // morsel size.
  const std::vector<MorselIds> selected =
      BuildAndProbe<false>(s, s_cols, probe_keys, r.NumRows(), opts);
  GatherMorsels(opts, selected, out, [&](const MorselIds& ids, int64_t dst) {
    for (int c = 0; c < r.Arity(); ++c) {
      GatherColumn(r.ColData(c), ids.probe, out.ColData(c) + dst);
    }
  });
  // A subsequence of a canonical relation is still sorted and unique.
  if (r.IsCanonical()) out.MarkCanonical();
  return out;
}

Relation JoinAll(const std::vector<Relation>& relations) {
  GYO_CHECK_MSG(!relations.empty(), "JoinAll requires at least one relation");
  Relation acc = relations[0];
  for (size_t i = 1; i < relations.size(); ++i) {
    acc = NaturalJoin(acc, relations[i]);
  }
  return acc;
}

BloomFilter BuildSipFilter(const Relation& rel, const std::vector<int>& cols) {
  const int64_t n = rel.NumRows();
  BloomFilter filter(n);
  const std::vector<const Value*> keys = KeyCols(rel, cols);
  std::vector<uint64_t> scratch;
  ForEachHashed(keys, 0, n, scratch,
                [&](int64_t, uint64_t h) { filter.Add(h); });
  return filter;
}

}  // namespace gyo
