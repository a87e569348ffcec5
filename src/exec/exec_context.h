#ifndef GYO_EXEC_EXEC_CONTEXT_H_
#define GYO_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace gyo {
namespace exec {

class ExecutorPool;

/// The per-query integer counters: one X(name, agg) line per counter, under
/// its doc comment. This table is the only list of them. It generates the
/// QueryStats fields, the QueryCounters atomics, Accumulate, ForEachCounter,
/// and through ForEachCounter the counter blocks of the QUERY_RESPONSE and
/// STATUS frames and the `name value` lines the CLIs and benches print. The
/// order is the wire order. `agg` says how two values of a counter combine —
/// across fixpoint rounds, across served queries, and across the threads
/// feeding one QueryCounters: kSum adds, kMax keeps the larger.
// clang-format off
#define GYO_QUERY_COUNTERS(X)                                                  \
  /* Statement tasks executed for this query (one per program statement). */   \
  X(tasks, kSum)                                                               \
  /* Data morsels dispatched by this query's forked operator kernels: each     \
     fork counts its probe pass and its gather pass (2 x its morsels). 0 when  \
     no kernel forked: a single-thread pool, a probe side of one               \
     explicit-size morsel, or one under the fork grain of auto-sized morsels   \
     (kMinMorselsPerThread in rel/ops.h). */                                   \
  X(morsels, kSum)                                                             \
  /* Peak bytes of live relation-state arenas (base copies + statement         \
     results) during this query's execution. With state retirement (see        \
     ExecContext::retire_consumed) states are freed as their last reader       \
     finishes, so this tracks the live frontier rather than the total          \
     footprint. Note: at threads != 1 the exact peak depends on task           \
     completion order, so it is reproducible only up to scheduling. */         \
  X(peak_state_bytes, kMax)                                                    \
  /* Relation states freed by retirement (0 unless retire_consumed). */        \
  X(retired_states, kSum)                                                      \
  /* Probe rows a kernel's own whole-build Bloom filter rejected before a      \
     bucket chain was walked. One filter per build, tested on the same         \
     hashes in every morsel, so the count does not depend on the thread        \
     count or morsel size. Bloom filters have no false negatives, so pruning   \
     never changes results; this counts saved work only. Cross-statement       \
     pruning is sip_rows_pruned. */                                            \
  X(probe_rows_pruned, kSum)                                                   \
  /* Scheduler jobs of this query executed by a thread other than the one      \
     whose deque held them (work stealing under imbalance; 0 = perfect         \
     locality and always 0 on serial runs; shared-overflow pops are not        \
     steals). Scheduling-dependent, so reproducible only up to placement —     \
     never pinned as a correctness counter. */                                 \
  X(tasks_stolen, kSum)                                                        \
  /* Always 0: partition-affinity placement of probe morsels is gone, and     \
     nothing feeds this counter. It keeps its name and wire slot because       \
     servebench/ reads it (its exec.affinity_hit_ratio). */                    \
  X(affinity_hits, kSum)                                                       \
  /* Always 0, like affinity_hits and for the same reason. */                  \
  X(affinity_misses, kSum)                                                     \
  /* Queries already waiting in the admission controller when this query       \
     arrived (0 = admitted straight onto a free slot). The queue-pressure      \
     observable behind queue_wait_seconds; always 0 for serial execution. */   \
  X(queue_depth_at_admit, kMax)                                                \
  /* 1 when this query's program/plan came out of the plan cache               \
     (cache::PlanCache) instead of being rebuilt from the schema; 0 when it    \
     was built fresh (a miss, or no cache in the path). */                     \
  X(plan_cache_hits, kSum)                                                     \
  /* 1 when gyo_serve answered this query from its result cache                \
     (cache::ResultCache), replaying the memoized result without admission     \
     or execution; 0 otherwise. Only that hit path sets it. */                 \
  X(state_cache_hits, kSum)                                                    \
  /* Semijoin-fixpoint rounds actually executed (SemijoinFixpoint only).       \
     Under the delta-round schedule a round only processes relations with a    \
     neighbor that shrank last round. Deterministic for a given start state.   \
   */                                                                          \
  X(delta_rounds, kSum)                                                        \
  /* Input rows scanned by executed fixpoint semijoins (lhs + rhs rows of      \
     every statement that actually ran) — the work measure of the delta-round  \
     schedule: skipped clean pairs contribute nothing. Deterministic for a     \
     given start state. */                                                     \
  X(rows_rescanned, kSum)                                                      \
  /* Probe rows pruned by a sideways-information-passing filter: a Bloom       \
     filter over a LATER chain statement's build side, published through the   \
     per-query SIP registry (see physical_plan.cc) and consulted before the    \
     consuming Semijoin's own hash work. No false negatives, so the final      \
     states are untouched; deterministic at every thread count (the filter     \
     builds are ordered before their consumers by dependency edges). */        \
  X(sip_rows_pruned, kSum)                                                     \
  /* Always 0: Semijoin's zone-map disjointness skip is gone (served inputs    \
     never carried current zone maps, so it never fired on served traffic).    \
     It keeps its name and wire slot because servebench/ reads it (its         \
     rel.pruned_ratio). */                                                     \
  X(zone_map_skips, kSum)
// clang-format on

/// How two values of one counter combine (the `agg` column above).
enum class CounterAgg { kSum, kMax };

/// Per-query execution metrics reported by the admission-controlled runtime
/// (see exec/executor_pool.h). All durations are seconds; the integer
/// counters come from GYO_QUERY_COUNTERS, in table order.
struct QueryStats {
  /// Time spent queued in the admission controller before the query was
  /// allowed to run (0 when a slot was free, and always 0 for serial
  /// threads == 1 execution, which bypasses admission).
  double queue_wait_seconds = 0.0;

  /// Wall time from admission to completion of the last statement.
  double run_time_seconds = 0.0;

#define GYO_COUNTER_FIELD(name, agg) int64_t name = 0;
  GYO_QUERY_COUNTERS(GYO_COUNTER_FIELD)
#undef GYO_COUNTER_FIELD
};

/// Calls f(name, value) for every counter of `stats`, in table order.
/// `value` is a reference to the field — mutable when `stats` is — so one
/// loop serves the wire encoder and decoder, the CLI printers and the bench
/// counters alike.
template <typename Stats, typename F>
void ForEachCounter(Stats& stats, F&& f) {
#define GYO_COUNTER_VISIT(name, agg) f(#name, stats.name);
  GYO_QUERY_COUNTERS(GYO_COUNTER_VISIT)
#undef GYO_COUNTER_VISIT
}

/// Combines one value into another by its counter's aggregation.
constexpr int64_t CombineCounter(CounterAgg agg, int64_t into, int64_t from) {
  return agg == CounterAgg::kMax ? (from > into ? from : into) : into + from;
}

/// Folds `from` into `into`: the durations and the kSum counters add, the
/// kMax counters keep the larger value.
inline void Accumulate(QueryStats& into, const QueryStats& from) {
  into.queue_wait_seconds += from.queue_wait_seconds;
  into.run_time_seconds += from.run_time_seconds;
#define GYO_COUNTER_COMBINE(name, agg)                                         \
  into.name = CombineCounter(CounterAgg::agg, into.name, from.name);
  GYO_QUERY_COUNTERS(GYO_COUNTER_COMBINE)
#undef GYO_COUNTER_COMBINE
}

/// One query's counters as relaxed atomics: the block the scheduler, the
/// operator kernels, the state tracker and the admission controller all add
/// to while the query runs (the counts are tallies, not synchronization).
/// Per-query blocks are held by shared_ptr: queued jobs co-own the block, so
/// a job that outlives its query (e.g. a no-op morsel left in a parked
/// worker's deque after every chunk was claimed elsewhere) still writes
/// safely when it is finally drained. gyo_serve keeps its lifetime totals in
/// one more block.
struct QueryCounters {
#define GYO_COUNTER_ATOMIC(name, agg) std::atomic<int64_t> name{0};
  GYO_QUERY_COUNTERS(GYO_COUNTER_ATOMIC)
#undef GYO_COUNTER_ATOMIC

  /// Feeds one value into `counter` by its aggregation: fetch_add for kSum,
  /// an atomic max for kMax.
  static void Feed(CounterAgg agg, std::atomic<int64_t>& counter,
                   int64_t value) {
    if (agg == CounterAgg::kSum) {
      counter.fetch_add(value, std::memory_order_relaxed);
      return;
    }
    int64_t seen = counter.load(std::memory_order_relaxed);
    while (seen < value &&
           !counter.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
    }
  }

  /// The counters' current values (the durations stay 0).
  QueryStats Snapshot() const {
    QueryStats stats;
#define GYO_COUNTER_LOAD(name, agg)                                            \
  stats.name = name.load(std::memory_order_relaxed);
    GYO_QUERY_COUNTERS(GYO_COUNTER_LOAD)
#undef GYO_COUNTER_LOAD
    return stats;
  }
};

/// Folds every counter of `from` into the block, each by its aggregation
/// (the durations have no atomic slot and are dropped).
inline void Accumulate(QueryCounters& into, const QueryStats& from) {
#define GYO_COUNTER_FEED(name, agg)                                            \
  QueryCounters::Feed(CounterAgg::agg, into.name, from.name);
  GYO_QUERY_COUNTERS(GYO_COUNTER_FEED)
#undef GYO_COUNTER_FEED
}

/// Runtime knobs for executing programs (and the reducer) in parallel.
/// Default-constructed context is the serial engine: one thread, inline
/// execution — Program::Execute runs with exactly these settings.
struct ExecContext {
  /// Worker threads (>= 1). 1 = serial inline execution on the calling
  /// thread: no pool, no scheduler, no admission control. Any other value
  /// routes the query through an ExecutorPool (see `pool`), whose fixed pool
  /// width — not this field — determines the actual parallelism. An
  /// admitted query still runs its statements inline, in program order, on
  /// the admitted thread unless exec::ForkStatementGraph (physical_plan.h)
  /// says its statement graph pays: a pool of more than one thread, a plan
  /// that is not a chain, and a big enough input.
  int threads = 1;

  /// Probe rows per morsel in the parallel operator kernels. 0 (the default)
  /// auto-tunes per operator from the probe relation's arity so one morsel's
  /// values stay ~L2-resident (see AutoMorselRows in rel/ops.h), and an
  /// operator forks only when its probe side spans at least
  /// kMinMorselsPerThread such morsels per pool thread. An explicit value
  /// forks any probe side of more than one morsel — the test lever that
  /// forces splits on small data. An explicit value also replaces the
  /// statement graph's row grain (kMinStatementForkRows): a non-chain plan
  /// on a pool forks its statement graph whenever its largest base relation
  /// spans more than one morsel. Operators that do not fork run serially
  /// inside their statement (statement-level parallelism still applies).
  int64_t morsel_rows = 0;

  /// No longer changes any result: every parallel operator concatenates its
  /// morsel outputs in morsel order, so every produced relation is
  /// bit-identical — same physical row order, same canonical flag — to a
  /// serial run, whatever this flag says. The field stays because
  /// servebench/ sets it and gyo_serve copies the request's flag into it;
  /// the serve path still gates its result cache on the request's flag.
  bool deterministic = true;

  /// Pool to run on when threads != 1. nullptr = the lazily-initialized
  /// process-wide ExecutorPool::Global() (sized by GYO_EXEC_THREADS or
  /// hardware_concurrency; see executor_pool.h).
  ExecutorPool* pool = nullptr;

  /// Admission fairness class: the controller round-robins free slots across
  /// submitter ids, so one hot submitter cannot starve the others. 0 (the
  /// default) lumps every caller into one FIFO class.
  uint64_t submitter = 0;

  /// State retirement: when true, every relation state (base copy or
  /// statement result) that is read by at least one statement is freed —
  /// replaced by an empty relation over its schema — the moment its last
  /// reading statement finishes (the reader counts come from PhysicalPlan's
  /// compile-time dataflow analysis). Sink states (read by no statement)
  /// always survive. Freed slots come back as empty relations in the
  /// returned state vector, so only enable this when the caller consumes
  /// sinks and/or retained slots — the compiled full reducer does exactly
  /// that, which brings its peak memory back near the serial reducer's
  /// instead of holding all 2(n−1) intermediate semijoin states alive.
  bool retire_consumed = false;

  /// Relation ids (program numbering: base 0..num_base-1, then statement
  /// results) exempt from retirement — states the caller reads afterwards
  /// even though some statement also consumes them. Ignored unless
  /// retire_consumed. The full reducer retains each node's final state
  /// (e.g. the root's, which the downward pass consumes).
  const std::vector<int>* retain_states = nullptr;

  /// Sideways information passing: when true (default), the physical plan's
  /// dataflow analysis publishes each eligible chain statement's build-side
  /// Bloom filter into a per-query SIP registry and upstream Semijoins
  /// pre-filter their probes against it (see physical_plan.cc). Results are
  /// identical either way (the filters have no false negatives); the flag
  /// exists for A/B testing and for the fixpoint reducer, which disables
  /// SIP to keep its work-accounting counters (rows_rescanned,
  /// effective steps) comparable across rounds.
  bool enable_sip = true;

  /// When non-null, receives this query's QueryStats on completion.
  QueryStats* query_stats = nullptr;
};

}  // namespace exec
}  // namespace gyo

#endif  // GYO_EXEC_EXEC_CONTEXT_H_
