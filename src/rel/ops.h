#ifndef GYO_REL_OPS_H_
#define GYO_REL_OPS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rel/relation.h"
#include "util/attr_set.h"

namespace gyo {

namespace exec {
class TaskScheduler;
struct QueryCounters;
}  // namespace exec

class BloomFilter;

/// Relational algebra operators (paper §2 notation).
///
/// Contract: inputs must be duplicate-free (canonical relations and operator
/// outputs both qualify; after hand-built AddRow sequences call
/// Canonicalize() first). All results are duplicate-free, so NumRows() is a
/// set cardinality — but they are NOT necessarily sorted: canonical form is
/// established lazily (EqualsAsSet() canonicalizes on demand). Semijoin is
/// the exception: it selects a subsequence of its left input, so a canonical
/// input yields a canonical output.

/// Execution options threaded through the kernels by the exec runtime
/// (exec/physical_plan.h). Semijoin and NaturalJoin have one shape: they
/// build one hash index and one whole-build Bloom filter over their build
/// side, then probe it in contiguous row-order morsels of their probe side,
/// each morsel collecting its selection or match ids in row order; one
/// per-column gather pass concatenates the morsels in morsel order.
/// Default-constructed options run a single morsel, the whole probe side,
/// inline on the calling thread. With a scheduler attached and enough probe
/// rows (see morsel_rows), the kernel forks: the morsels run on the pool,
/// all reading the shared, read-only index and filter. Every forked result
/// is bit-identical (row order and canonical flag included) to the
/// unforked one at every thread count and morsel size.
struct OpExecOpts {
  /// Pool to fan morsels out on; nullptr (or a 1-thread pool) = serial.
  exec::TaskScheduler* scheduler = nullptr;
  /// Probe rows per morsel. An explicit value forks any probe side of more
  /// than one morsel (tests and benches set it to force splits on small
  /// data). 0 (the default) auto-tunes the size from the probe relation's
  /// arity via AutoMorselRows, and then forks only probe sides of at least
  /// kMinMorselsPerThread morsels per pool thread.
  int64_t morsel_rows = 0;
  /// When non-null, the query's counter block: the kernels add the morsels
  /// they dispatch and their Bloom and SIP pruning, and the
  /// scheduler's parallel loops add steals. Purely observational — counting
  /// never changes results. Shared ownership: queued jobs co-own the block,
  /// so a job drained after the owning query finished never dangles.
  std::shared_ptr<exec::QueryCounters> counters;
  /// Sideways-information-passing filters (exec/physical_plan.cc): Bloom
  /// filters built over a LATER chain statement's build side, keyed on the
  /// same attributes (in the same sorted order) as this Semijoin's probe
  /// hash. The probe loops test every filter before their own Bloom/chain
  /// work; a rejection proves the row dies downstream anyway, so pruning it
  /// here never changes the final states (no false negatives). Consulted by
  /// Semijoin only; nullptr (the default) disables SIP.
  const std::vector<const BloomFilter*>* sip_filters = nullptr;
};

/// Morsel-size auto-tuning (used when OpExecOpts/ExecContext leave
/// morsel_rows at 0): rows per morsel for a relation of `arity`, sized so
/// one morsel's values span ~kMorselTargetBytes — a quarter of a typical
/// 1 MiB per-core L2, leaving headroom for the build side and the morsel's
/// output buffer — clamped to [kMinMorselRows, kMaxMorselRows] so tiny
/// arities don't defeat dispatch amortization and huge ones still split.
/// That is 5–16 K rows at arity 2–6.
constexpr int64_t kMorselTargetBytes = 256 * 1024;
constexpr int64_t kMinMorselRows = 256;
constexpr int64_t kMaxMorselRows = 1 << 16;

constexpr int64_t AutoMorselRows(int arity) {
  return std::max(kMinMorselRows,
                  std::min(kMaxMorselRows,
                           kMorselTargetBytes /
                               (static_cast<int64_t>(arity < 1 ? 1 : arity) *
                                static_cast<int64_t>(sizeof(Value)))));
}

/// The fork grain of auto-sized morsels: a kernel whose morsel size is
/// auto-tuned forks only when its probe side spans at least
/// kMinMorselsPerThread × (pool threads) morsels. A fork pays two pool
/// barriers (the probe pass and the gather pass) whose helpers reach the
/// pool late, so below this many morsels per thread the unforked kernel is
/// faster (BM_Exec_KernelGrain in bench/bench_exec.cc measures the
/// crossover; the value was tuned when a fork also paid a partitioned
/// build). Explicit morsel sizes keep forking at two morsels.
constexpr int64_t kMinMorselsPerThread = 8;

/// Bloom filter over 64-bit key hashes: a power-of-two bit array with two
/// probe positions per key (the low and high halves of the hash), sized at
/// ~kBloomBitsPerKey bits per expected key. Add() sets both probe bits, so
/// MaybeContains() has NO false negatives — a Bloom rejection can only skip
/// probe rows that would have found no match, which is why the filtered
/// kernels stay bit-identical to the unfiltered ones. Builds smaller than
/// kMinBloomBuildRows skip the filter entirely: the chain walk is already
/// cache-resident and the extra branch costs more than it saves.
constexpr int kBloomBitsPerKey = 8;
constexpr int64_t kMinBloomBuildRows = 64;

class BloomFilter {
 public:
  /// A disabled filter: MaybeContains() must not be called.
  BloomFilter() = default;

  /// An empty filter sized for `expected_keys` keys.
  explicit BloomFilter(int64_t expected_keys) {
    size_t bits = 128;
    const size_t want =
        static_cast<size_t>(expected_keys < 0 ? 0 : expected_keys) *
        static_cast<size_t>(kBloomBitsPerKey);
    while (bits < want) bits <<= 1;
    words_.assign(bits / 64, 0);
    mask_ = bits - 1;
  }

  bool enabled() const { return !words_.empty(); }

  void Add(uint64_t h) {
    SetBit(static_cast<size_t>(h) & mask_);
    SetBit(static_cast<size_t>(h >> 32) & mask_);
  }

  bool MaybeContains(uint64_t h) const {
    return GetBit(static_cast<size_t>(h) & mask_) &&
           GetBit(static_cast<size_t>(h >> 32) & mask_);
  }

 private:
  void SetBit(size_t b) { words_[b >> 6] |= uint64_t{1} << (b & 63); }
  bool GetBit(size_t b) const { return (words_[b >> 6] >> (b & 63)) & 1; }

  std::vector<uint64_t> words_;
  size_t mask_ = 0;
};

/// π_X(r): projection onto X. Requires X ⊆ r.Schema(). Output deduplicated
/// via hashing (unsorted): each distinct key's first row, in row order.
Relation Project(const Relation& r, const AttrSet& x);

/// r ⋈ s: natural join (hash join keyed on the common attributes' columns,
/// hashed column-at-a-time; a Cartesian product when the schemas are
/// disjoint).
Relation NaturalJoin(const Relation& r, const Relation& s,
                     const OpExecOpts& opts = OpExecOpts());

/// r ⋉ s: natural semijoin, π_R(r ⋈ s) computed without materializing the
/// join (membership probes + one per-column gather over a selection
/// vector). Canonical input r gives canonical output (forked or not, the
/// survivors are selected in row order).
Relation Semijoin(const Relation& r, const Relation& s,
                  const OpExecOpts& opts = OpExecOpts());

/// ⋈ of a non-empty list of relations, left to right.
Relation JoinAll(const std::vector<Relation>& relations);

/// Builds the SIP publish-side Bloom filter: every row of `rel` hashed over
/// key columns `cols` (column-at-a-time, the kernels' hash — callers must
/// list `cols` in increasing attribute-id order so the hash matches the
/// consumer's probe hash over the same attributes). Built unconditionally —
/// no kMinBloomBuildRows gate — because a SIP filter's payoff is decided by
/// the CONSUMER's probe size, not this build's; an empty `rel` yields a
/// filter that rejects every probe (correct: a later semijoin against an
/// empty state eliminates everything).
BloomFilter BuildSipFilter(const Relation& rel, const std::vector<int>& cols);

}  // namespace gyo

#endif  // GYO_REL_OPS_H_
