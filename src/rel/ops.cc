#include "rel/ops.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "exec/task_scheduler.h"
#include "rel/simd.h"
#include "util/check.h"

namespace gyo {

using exec::QueryCounters;

namespace {

constexpr uint64_t kFnvSeed = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a alone distributes small sequential integers (the common
// test/benchmark domain) badly in power-of-two bucket arrays; the Murmur3
// finalizer sweep (simd::AvalancheSweep) spreads every input bit over the
// whole word.

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
// row `b_row` (under `b_keys`); the two key lists must be aligned on the
// same attributes.
inline bool KeysEqual(const std::vector<const Value*>& a_keys, int64_t a_row,
                      const std::vector<const Value*>& b_keys, int64_t b_row) {
  for (size_t k = 0; k < a_keys.size(); ++k) {
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
  // An empty index sized for `expected_rows`; register rows with Add().
  ColumnIndex(std::vector<const Value*> keys, int64_t expected_rows)
      : keys_(std::move(keys)) {
    const size_t buckets =
        NextPow2AtLeast(2 * static_cast<size_t>(expected_rows));
    mask_ = buckets - 1;
    heads_.assign(buckets, -1);
    entries_.reserve(static_cast<size_t>(expected_rows));
  }

  // Registers row `row` under its (precomputed) key hash. The partitioned
  // build path hashes every row once up front and reuses the values here.
  void Add(int64_t row, uint64_t hash) {
    size_t b = static_cast<size_t>(hash) & mask_;
    entries_.push_back(Entry{hash, row, heads_[b]});
    heads_[b] = static_cast<int64_t>(entries_.size()) - 1;
  }

  // Invokes fn(row_index) for every indexed row whose key equals the key of
  // `probe_row` under `probe_keys`.
  template <typename Fn>
  void ForEachMatchHashed(const std::vector<const Value*>& probe_keys,
                          int64_t probe_row, uint64_t h, Fn&& fn) const {
    for (int64_t e = heads_[static_cast<size_t>(h) & mask_]; e >= 0;
         e = entries_[static_cast<size_t>(e)].next) {
      const Entry& entry = entries_[static_cast<size_t>(e)];
      if (entry.hash == h &&
          KeysEqual(keys_, entry.row, probe_keys, probe_row)) {
        fn(entry.row);
      }
    }
  }

  // True iff some indexed row's key equals the probe row's key.
  bool ContainsHashed(const std::vector<const Value*>& probe_keys,
                      int64_t probe_row, uint64_t h) const {
    for (int64_t e = heads_[static_cast<size_t>(h) & mask_]; e >= 0;
         e = entries_[static_cast<size_t>(e)].next) {
      const Entry& entry = entries_[static_cast<size_t>(e)];
      if (entry.hash == h &&
          KeysEqual(keys_, entry.row, probe_keys, probe_row)) {
        return true;
      }
    }
    return false;
  }

 private:
  struct Entry {
    uint64_t hash;
    int64_t row;
    int64_t next;  // previous entry in the same bucket, -1 at chain end
  };
  std::vector<const Value*> keys_;
  std::vector<int64_t> heads_;
  std::vector<Entry> entries_;
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
// Parallel kernel machinery (exec subsystem). The serial kernels below are
// what runs unless a kernel forks; when it does, it builds a hash-partitioned
// index and probes it in contiguous morsels of its probe rows.

inline int64_t NumMorsels(int64_t rows, int64_t morsel_rows) {
  return (rows + morsel_rows - 1) / morsel_rows;
}

// Copies `opts` with the kernel's fork decision made once, up front, for a
// probe side of `probe_rows` rows of `probe_arity` columns. morsel_rows is
// resolved (the caller's explicit value, or AutoMorselRows when left at 0),
// and the scheduler is dropped when the kernel should run serially: always
// on a 1-thread pool; with an explicit morsel size, when the probe side fits
// in one morsel; with an auto-sized one, when it spans fewer than
// kMinMorselsPerThread morsels per pool thread. Every kernel resolves once
// and threads the resolved options through, so `opts.scheduler != nullptr`
// is the fork decision.
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

// Radix scatter of row ids [0, n) into 2^bits hash partitions, O(n) total:
//
//   1. counting pass (parallel over morsels): hash every row's key columns
//      (column-at-a-time over the flat arenas) and tally a per-morsel ×
//      per-partition histogram — disjoint writes, no locking;
//   2. prefix-sum layout (serial, morsels × parts entries): assign every
//      (morsel, partition) bucket a contiguous range of a partition-major
//      row-id array;
//   3. scatter pass (parallel over morsels): each morsel writes its row ids
//      into its own precomputed ranges — cache-friendly contiguous writes.
//
// The partition count adapts to the relation (PartitionBitsForBuild widens
// past the pool-width floor until partitions are cache-resident). Within
// each partition the buckets are laid out in morsel order, so a partition's
// slice lists its rows in increasing global row order — the exact order the
// serial build inserts them in, which keeps bucket-chain traversal (and thus
// every probe's match order) identical to the serial kernel's. The row
// hashes are computed once here and reused by the partition build, its
// Bloom filters, and Project's partitioned dedupe.
struct RadixScatter {
  RadixScatter(int64_t n, const std::vector<const Value*>& keys,
               const OpExecOpts& opts)
      : bits(PartitionBitsForBuild(opts.scheduler->threads(), n)) {
    const int64_t parts = int64_t{1} << bits;
    const int64_t morsels = NumMorsels(n, opts.morsel_rows);
    // The counting and scatter passes.
    Tally(opts, &QueryCounters::morsels, 2 * morsels);
    hashes.resize(static_cast<size_t>(n));
    std::vector<int64_t> counts(static_cast<size_t>(morsels * parts), 0);
    opts.scheduler->ParallelFor(morsels, [&](int64_t m) {
      const int64_t lo = m * opts.morsel_rows;
      const int64_t hi = std::min<int64_t>(n, lo + opts.morsel_rows);
      HashColumns(keys, lo, hi, hashes.data() + lo);
      int64_t* mine = counts.data() + static_cast<size_t>(m * parts);
      for (int64_t i = lo; i < hi; ++i) {
        ++mine[PartitionOf(hashes[static_cast<size_t>(i)], bits)];
      }
    }, opts.counters);
    std::vector<int64_t> cursors(static_cast<size_t>(morsels * parts));
    part_begin.resize(static_cast<size_t>(parts) + 1);
    int64_t off = 0;
    for (int64_t p = 0; p < parts; ++p) {
      part_begin[static_cast<size_t>(p)] = off;
      for (int64_t m = 0; m < morsels; ++m) {
        cursors[static_cast<size_t>(m * parts + p)] = off;
        off += counts[static_cast<size_t>(m * parts + p)];
      }
    }
    part_begin[static_cast<size_t>(parts)] = off;
    row_ids.resize(static_cast<size_t>(n));
    opts.scheduler->ParallelFor(morsels, [&](int64_t m) {
      const int64_t lo = m * opts.morsel_rows;
      const int64_t hi = std::min<int64_t>(n, lo + opts.morsel_rows);
      int64_t* mine = cursors.data() + static_cast<size_t>(m * parts);
      for (int64_t i = lo; i < hi; ++i) {
        const size_t p = PartitionOf(hashes[static_cast<size_t>(i)], bits);
        row_ids[static_cast<size_t>(mine[p]++)] = i;
      }
    }, opts.counters);
  }

  int num_partitions() const { return 1 << bits; }

  const int bits;
  std::vector<uint64_t> hashes;    // per row id, the key-column hash
  std::vector<int64_t> row_ids;    // partition-major, row order within each
  std::vector<int64_t> part_begin; // partition p owns [begin[p], begin[p+1])
};

// A hash-partitioned ColumnIndex over all rows of a build relation: a
// RadixScatter lays every row id into its partition's contiguous slice,
// then the partition indexes are built concurrently, each consuming only
// its own rows — build work stays O(n) regardless of the partition count.
// The scatter's hash pass doubles as the Bloom feed: each partition fills
// its own filter while inserting (gated on the build clearing
// kMinBloomBuildRows), so probes can reject a partition — and skip its
// bucket-chain walk entirely — on two bit tests. Each partition inserts its
// rows in global row order, so a probe walks equal-key build rows in the
// same order as the serial index's chain.
class PartitionedColumnIndex {
 public:
  PartitionedColumnIndex(const Relation& rel, const std::vector<int>& cols,
                         const OpExecOpts& opts)
      : keys_(KeyCols(rel, cols)),
        use_bloom_(rel.NumRows() >= kMinBloomBuildRows) {
    // Scatter state is local: the build finishes before the constructor
    // returns, so the ~16 bytes/row need not stay pinned through the probe.
    RadixScatter scatter(rel.NumRows(), keys_, opts);
    bits_ = scatter.bits;
    const int parts = scatter.num_partitions();
    parts_.reserve(static_cast<size_t>(parts));
    blooms_.resize(static_cast<size_t>(parts));
    for (int p = 0; p < parts; ++p) {
      const int64_t rows =
          scatter.part_begin[static_cast<size_t>(p) + 1] -
          scatter.part_begin[static_cast<size_t>(p)];
      parts_.emplace_back(keys_, rows);
      if (use_bloom_) blooms_[static_cast<size_t>(p)] = BloomFilter(rows);
    }
    opts.scheduler->ParallelFor(parts, [&](int64_t p) {
      ColumnIndex& index = parts_[static_cast<size_t>(p)];
      BloomFilter& bloom = blooms_[static_cast<size_t>(p)];
      const int64_t hi = scatter.part_begin[static_cast<size_t>(p) + 1];
      for (int64_t k = scatter.part_begin[static_cast<size_t>(p)]; k < hi;
           ++k) {
        const int64_t row = scatter.row_ids[static_cast<size_t>(k)];
        const uint64_t h = scatter.hashes[static_cast<size_t>(row)];
        index.Add(row, h);
        if (use_bloom_) bloom.Add(h);
      }
    }, opts.counters);
  }

  // The partition index responsible for probe-key hash `h`, or nullptr when
  // that partition's Bloom filter proves no build key can match (never a
  // false nullptr — Bloom filters have no false negatives).
  const ColumnIndex* Probe(uint64_t h) const {
    const size_t p = PartitionOf(h, bits_);
    if (use_bloom_ && !blooms_[p].MaybeContains(h)) return nullptr;
    return &parts_[p];
  }

 private:
  std::vector<const Value*> keys_;
  bool use_bloom_;
  int bits_ = 0;
  std::vector<ColumnIndex> parts_;
  std::vector<BloomFilter> blooms_;
};

// The in-order morsel pass every parallel kernel shares: rows [0, n) split
// into contiguous morsels in row order, and body(m, lo, hi) runs on the pool
// for each, writing only morsel m's own output. Counts this pass and the
// gather pass that follows it.
template <typename Body>
void ForEachMorsel(const OpExecOpts& opts, int64_t n, Body&& body) {
  const int64_t morsels = NumMorsels(n, opts.morsel_rows);
  Tally(opts, &QueryCounters::morsels, 2 * morsels);
  opts.scheduler->ParallelFor(morsels, [&](int64_t m) {
    const int64_t lo = m * opts.morsel_rows;
    body(m, lo, std::min<int64_t>(n, lo + opts.morsel_rows));
  }, opts.counters);
}

// The gather pass after ForEachMorsel: an exclusive prefix sum over the
// per-morsel id vectors' sizes, in morsel order, places every morsel's
// output rows; one AppendRows makes room for all of them, and
// gather(m, dst) runs on the pool for each non-empty morsel m, dst being
// its first output row. Because morsels are row ranges visited in order,
// this concatenation is the serial kernel's output order.
template <typename Gather>
void GatherMorsels(const OpExecOpts& opts,
                   const std::vector<std::vector<int64_t>>& per_morsel,
                   Relation& out, Gather&& gather) {
  std::vector<int64_t> offsets(per_morsel.size() + 1, 0);
  for (size_t m = 0; m < per_morsel.size(); ++m) {
    offsets[m + 1] = offsets[m] + static_cast<int64_t>(per_morsel[m].size());
  }
  const int64_t base = out.AppendRows(offsets.back());
  opts.scheduler->ParallelFor(
      static_cast<int64_t>(per_morsel.size()), [&](int64_t m) {
        const size_t k = static_cast<size_t>(m);
        if (!per_morsel[k].empty()) gather(k, base + offsets[k]);
      }, opts.counters);
}

}  // namespace

Relation Project(const Relation& r, const AttrSet& x) {
  return Project(r, x, OpExecOpts());
}

Relation Project(const Relation& r, const AttrSet& x,
                 const OpExecOpts& caller_opts) {
  const OpExecOpts opts = ResolveFork(caller_opts, r.Arity(), r.NumRows());
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

  const std::vector<const Value*> keys = KeyCols(r, cols);

  if (opts.scheduler == nullptr) {
    // First-occurrence selection: an incremental ColumnIndex over the input
    // keyed on the projected columns records every distinct key's first row;
    // one gather pass per column then compacts the survivors. No sort — the
    // result is duplicate-free but left non-canonical (sortedness is lazy).
    ColumnIndex seen(keys, n);
    std::vector<int64_t> survivors;
    std::vector<uint64_t> scratch;
    ForEachHashed(keys, 0, n, scratch, [&](int64_t i, uint64_t h) {
      if (seen.ContainsHashed(keys, i, h)) return;
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

  // Parallel form: a partitioned (by key hash) cross-morsel dedupe on the
  // radix-scatter structure — no sequential merge pass at all. All
  // duplicates of a key land in the same hash partition, and each
  // partition's row-id slice preserves global row order, so a
  // within-partition first occurrence IS the global first occurrence. The
  // partition tasks dedupe concurrently into a shared per-row survivor
  // bitmap (disjoint bytes — every row belongs to exactly one partition),
  // then the morsels collect their survivors in row order and gather them
  // per column: always bit-identical to the serial kernel.
  RadixScatter scatter(n, keys, opts);
  const int parts = scatter.num_partitions();
  std::vector<uint8_t> survives(static_cast<size_t>(n), 0);
  opts.scheduler->ParallelFor(parts, [&](int64_t p) {
    const int64_t lo = scatter.part_begin[static_cast<size_t>(p)];
    const int64_t hi = scatter.part_begin[static_cast<size_t>(p) + 1];
    ColumnIndex seen(keys, hi - lo);
    for (int64_t k = lo; k < hi; ++k) {
      const int64_t i = scatter.row_ids[static_cast<size_t>(k)];
      const uint64_t h = scatter.hashes[static_cast<size_t>(i)];
      if (seen.ContainsHashed(keys, i, h)) continue;
      seen.Add(i, h);
      survives[static_cast<size_t>(i)] = 1;
    }
  }, opts.counters);

  std::vector<std::vector<int64_t>> selected(
      static_cast<size_t>(NumMorsels(n, opts.morsel_rows)));
  ForEachMorsel(opts, n, [&](int64_t m, int64_t lo, int64_t hi) {
    std::vector<int64_t>& sel = selected[static_cast<size_t>(m)];
    for (int64_t i = lo; i < hi; ++i) {
      if (survives[static_cast<size_t>(i)]) sel.push_back(i);
    }
  });
  GatherMorsels(opts, selected, out, [&](size_t m, int64_t dst) {
    for (size_t k = 0; k < cols.size(); ++k) {
      GatherColumn(r.ColData(cols[k]), selected[m],
                   out.ColData(static_cast<int>(k)) + dst);
    }
  });
  return out;
}

Relation NaturalJoin(const Relation& r, const Relation& s) {
  return NaturalJoin(r, s, OpExecOpts());
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

  // Emits the matched (probe row, build row) id pairs of one chunk into the
  // output rows starting at `dst`, one column gather at a time.
  auto GatherPairs = [&](const std::vector<int64_t>& probe_ids,
                         const std::vector<int64_t>& build_ids, int64_t dst) {
    for (size_t k = 0; k < sources.size(); ++k) {
      const Relation& src = sources[k].from_probe ? probe : build;
      GatherColumn(src.ColData(sources[k].col),
                   sources[k].from_probe ? probe_ids : build_ids,
                   out.ColData(static_cast<int>(k)) + dst);
    }
  };

  // Distinct (probe, build) row pairs yield distinct output tuples (the
  // output determines both inputs), so duplicate-free inputs give a
  // duplicate-free output; no dedupe or sort is needed on either path.
  if (opts.scheduler == nullptr) {
    BloomFilter bloom;
    const ColumnIndex index =
        BuildIndex(KeyCols(build, build_cols), build.NumRows(), &bloom);
    std::vector<int64_t> probe_ids;
    std::vector<int64_t> build_ids;
    std::vector<uint64_t> scratch;
    int64_t pruned = 0;
    ForEachHashed(probe_keys, 0, probe.NumRows(), scratch,
                  [&](int64_t i, uint64_t h) {
                    if (bloom.enabled() && !bloom.MaybeContains(h)) {
                      ++pruned;
                      return;
                    }
                    index.ForEachMatchHashed(probe_keys, i, h, [&](int64_t j) {
                      probe_ids.push_back(i);
                      build_ids.push_back(j);
                    });
                  });
    Tally(opts, &QueryCounters::probe_rows_pruned, pruned);
    const int64_t base =
        out.AppendRows(static_cast<int64_t>(probe_ids.size()));
    GatherPairs(probe_ids, build_ids, base);
    return out;
  }

  // Parallel form: a partitioned Bloom-filtered hash build, then the
  // in-order morsel probe. Each morsel collects its (probe, build) id pairs
  // in probe-row order, with each row's matches in the partition chain's
  // order — the serial chain's order, since equal keys share a partition and
  // partitions insert in global build-row order. Concatenating the morsels
  // in morsel order therefore yields the serial kernel's output row for
  // row, with no merge pass.
  PartitionedColumnIndex index(build, build_cols, opts);
  const int64_t n = probe.NumRows();
  const size_t morsels = static_cast<size_t>(NumMorsels(n, opts.morsel_rows));
  std::vector<std::vector<int64_t>> probe_ids(morsels);
  std::vector<std::vector<int64_t>> build_ids(morsels);
  ForEachMorsel(opts, n, [&](int64_t m, int64_t lo, int64_t hi) {
    std::vector<int64_t>& pids = probe_ids[static_cast<size_t>(m)];
    std::vector<int64_t>& bids = build_ids[static_cast<size_t>(m)];
    std::vector<uint64_t> scratch;
    int64_t pruned = 0;
    ForEachHashed(probe_keys, lo, hi, scratch, [&](int64_t i, uint64_t h) {
      const ColumnIndex* part = index.Probe(h);
      if (part == nullptr) {
        ++pruned;
        return;
      }
      part->ForEachMatchHashed(probe_keys, i, h, [&](int64_t j) {
        pids.push_back(i);
        bids.push_back(j);
      });
    });
    Tally(opts, &QueryCounters::probe_rows_pruned, pruned);
    Tally(opts, &QueryCounters::bloom_partition_skips, pruned);
  });
  GatherMorsels(opts, probe_ids, out, [&](size_t m, int64_t dst) {
    GatherPairs(probe_ids[m], build_ids[m], dst);
  });
  return out;
}

Relation Semijoin(const Relation& r, const Relation& s) {
  return Semijoin(r, s, OpExecOpts());
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

  // Zone-map disjointness: when some key column's value ranges in r and s
  // provably cannot overlap, no r row can have a match — the result is
  // empty without hashing a single row. Bit-identical to the full path's
  // empty result (a fresh relation and an AppendRows(0) compaction are both
  // canonical), so the skip is safe in every determinism mode. ZoneRange
  // answers only when the maps are current (AddRow-built or canonicalized
  // inputs) and both sides are non-empty.
  for (size_t k = 0; k < r_cols.size(); ++k) {
    Value rmin, rmax, smin, smax;
    if (r.ZoneRange(r_cols[k], &rmin, &rmax) &&
        s.ZoneRange(s_cols[k], &smin, &smax) &&
        (rmax < smin || smax < rmin)) {
      Tally(opts, &QueryCounters::zone_map_skips, r.NumRows());
      return out;
    }
  }

  // Emits the selected row ids into output rows starting at `dst`, one
  // column gather at a time (schemas are identical, so columns align 1:1).
  auto GatherSelected = [&](const std::vector<int64_t>& sel, int64_t dst) {
    for (int c = 0; c < r.Arity(); ++c) {
      GatherColumn(r.ColData(c), sel, out.ColData(c) + dst);
    }
  };

  if (opts.scheduler == nullptr) {
    BloomFilter bloom;
    const ColumnIndex index =
        BuildIndex(KeyCols(s, s_cols), s.NumRows(), &bloom);

    // Selection pass: record matching row indices (SIP- and Bloom-rejected
    // probes never walk a chain), then compact per column in one sweep.
    std::vector<int64_t> selected;
    std::vector<uint64_t> scratch;
    int64_t pruned = 0;
    int64_t sip_pruned = 0;
    ForEachHashed(probe_keys, 0, r.NumRows(), scratch,
                  [&](int64_t i, uint64_t h) {
                    if (SipReject(opts.sip_filters, h)) {
                      ++sip_pruned;
                      return;
                    }
                    if (bloom.enabled() && !bloom.MaybeContains(h)) {
                      ++pruned;
                      return;
                    }
                    if (index.ContainsHashed(probe_keys, i, h)) {
                      selected.push_back(i);
                    }
                  });
    Tally(opts, &QueryCounters::probe_rows_pruned, pruned);
    Tally(opts, &QueryCounters::sip_rows_pruned, sip_pruned);
    const int64_t base =
        out.AppendRows(static_cast<int64_t>(selected.size()));
    GatherSelected(selected, base);
    // A subsequence of a canonical relation is still sorted and unique.
    if (r.IsCanonical()) out.MarkCanonical();
    return out;
  }

  // Parallel form: a partitioned Bloom-filtered build over s, then the
  // in-order morsel probe of r. Each morsel checks SIP first, then the
  // probed partition's Bloom filter and bucket chain, and records its
  // surviving row ids in row order; the morsels' selections concatenate in
  // morsel order into the serial kernel's selection. The SIP and Bloom
  // decisions use the same filters on the same hashes wherever a probe runs,
  // so the prune counters do not depend on the thread count or morsel size.
  PartitionedColumnIndex index(s, s_cols, opts);
  const int64_t n = r.NumRows();
  std::vector<std::vector<int64_t>> selected(
      static_cast<size_t>(NumMorsels(n, opts.morsel_rows)));
  ForEachMorsel(opts, n, [&](int64_t m, int64_t lo, int64_t hi) {
    std::vector<int64_t>& sel = selected[static_cast<size_t>(m)];
    std::vector<uint64_t> scratch;
    int64_t pruned = 0;
    int64_t sip_pruned = 0;
    ForEachHashed(probe_keys, lo, hi, scratch, [&](int64_t i, uint64_t h) {
      if (SipReject(opts.sip_filters, h)) {
        ++sip_pruned;
        return;
      }
      const ColumnIndex* part = index.Probe(h);
      if (part == nullptr) {
        ++pruned;
        return;
      }
      if (part->ContainsHashed(probe_keys, i, h)) sel.push_back(i);
    });
    Tally(opts, &QueryCounters::probe_rows_pruned, pruned);
    Tally(opts, &QueryCounters::bloom_partition_skips, pruned);
    Tally(opts, &QueryCounters::sip_rows_pruned, sip_pruned);
  });
  GatherMorsels(opts, selected, out, [&](size_t m, int64_t dst) {
    GatherSelected(selected[m], dst);
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
