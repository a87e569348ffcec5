#include "exec/physical_plan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <utility>

#include "exec/executor_pool.h"
#include "exec/task_scheduler.h"
#include "rel/ops.h"
#include "util/check.h"

namespace gyo {
namespace exec {

namespace {

// Invokes fn(id) once per distinct relation id statement `s` reads (a
// project reads only its lhs; a join/semijoin reading the same relation on
// both sides reads it once).
template <typename Fn>
void ForEachInput(const Program::Statement& s, Fn&& fn) {
  fn(s.lhs);
  if (s.kind != Program::Statement::Kind::kProject && s.rhs != s.lhs) {
    fn(s.rhs);
  }
}

// The dataflow analysis: statement k depends on statement j exactly when k
// reads the relation j created.
std::vector<std::vector<int>> ComputeDependencies(const Program& program) {
  const int num_base = program.num_base();
  std::vector<std::vector<int>> deps(
      static_cast<size_t>(program.NumStatements()));
  for (int k = 0; k < program.NumStatements(); ++k) {
    const Program::Statement& s =
        program.Statements()[static_cast<size_t>(k)];
    std::vector<int>& d = deps[static_cast<size_t>(k)];
    ForEachInput(s, [&](int id) {
      if (id < num_base) return;  // base relations are always ready
      int producer = id - num_base;
      if (std::find(d.begin(), d.end(), producer) == d.end()) {
        d.push_back(producer);
      }
    });
  }
  return deps;
}

// The last-reader analysis behind state retirement: how many statements
// read each relation slot. Zero marks a sink (never retired); at run time
// the counts seed per-slot countdowns and the statement that drops a
// countdown to zero frees the slot.
std::vector<int> ComputeReaderCounts(const Program& program) {
  std::vector<int> counts(static_cast<size_t>(program.NumRelations()), 0);
  for (const Program::Statement& s : program.Statements()) {
    ForEachInput(s, [&](int id) { ++counts[static_cast<size_t>(id)]; });
  }
  return counts;
}

// One entry of the per-query SIP registry (sideways information passing):
// a Bloom filter to build over base slot `source`'s `key_attrs` columns,
// consulted by every statement in `consumers` before its own probe work.
// Entries are deduplicated by (source, key signature), so two chain heads
// sharing an eliminator share one filter build.
struct SipFilter {
  int source;
  std::vector<AttrId> key_attrs;
  std::vector<int> consumers;  // statement indices
};

// The SIP dataflow analysis. For each semijoin statement U with key
// B = sch(U.lhs) ∩ sch(U.rhs), walk the single-reader semijoin chain fed by
// U's output: every later chain statement W = (chain ⋉ ρ) whose BASE build
// side ρ covers B (B ⊆ sch(ρ)) is an *eliminator* — a row of U's probe side
// whose B-key has no match in ρ is dropped by W no matter what happens in
// between, because the chain's schema (hence its B-columns) never changes
// and W's semijoin key contains B. Pre-filtering U's probe against a Bloom
// filter over ρ's B-columns therefore prunes only rows that die downstream
// anyway: the chain's FINAL state is identical with or without SIP, and the
// single-reader requirement guarantees no other statement observes the
// (possibly smaller) intermediate states. Restricting sources to base slots
// keeps the filter tasks dependency-free, so adding consumer → filter edges
// can never create a cycle — and makes the pruning deterministic at every
// thread count (a consumer starts only after its filters are fully built).
//
// A chain statement's own collected set is subtracted from its upstream
// producer's (same source, same key signature): the producer's pruning
// already removed those rows, so re-consulting downstream is pure overhead.
std::vector<SipFilter> ComputeSipFilters(const Program& program,
                                         const std::vector<AttrSet>& schemas) {
  const int num_base = program.num_base();
  const int num_statements = program.NumStatements();
  const auto& statements = program.Statements();

  std::vector<std::vector<int>> readers(
      static_cast<size_t>(program.NumRelations()));
  for (int k = 0; k < num_statements; ++k) {
    ForEachInput(statements[static_cast<size_t>(k)], [&](int id) {
      readers[static_cast<size_t>(id)].push_back(k);
    });
  }

  using Key = std::pair<int, std::vector<AttrId>>;  // (source, signature)
  // Per-statement consult sets, for the producer subtraction.
  std::vector<std::vector<Key>> consults(static_cast<size_t>(num_statements));
  std::map<Key, std::vector<int>> registry;

  for (int u = 0; u < num_statements; ++u) {
    const Program::Statement& su = statements[static_cast<size_t>(u)];
    if (su.kind != Program::Statement::Kind::kSemijoin) continue;
    const AttrSet key = schemas[static_cast<size_t>(su.lhs)].Intersect(
        schemas[static_cast<size_t>(su.rhs)]);
    if (key.Empty()) continue;
    const std::vector<AttrId> signature = key.ToVector();

    std::vector<Key> collected;
    int cur = num_base + u;
    while (readers[static_cast<size_t>(cur)].size() == 1) {
      const int v = readers[static_cast<size_t>(cur)][0];
      const Program::Statement& sv = statements[static_cast<size_t>(v)];
      if (sv.kind != Program::Statement::Kind::kSemijoin || sv.lhs != cur ||
          sv.rhs == cur) {
        break;
      }
      if (sv.rhs < num_base && sv.rhs != su.rhs &&
          key.IsSubsetOf(schemas[static_cast<size_t>(sv.rhs)])) {
        collected.emplace_back(sv.rhs, signature);
      }
      cur = num_base + v;
    }
    if (collected.empty()) continue;

    // Subtract what U's producer already consults: those rows are gone
    // from U's probe side before U ever sees them.
    if (su.lhs >= num_base) {
      const std::vector<Key>& upstream =
          consults[static_cast<size_t>(su.lhs - num_base)];
      collected.erase(
          std::remove_if(collected.begin(), collected.end(),
                         [&](const Key& k) {
                           return std::find(upstream.begin(), upstream.end(),
                                            k) != upstream.end();
                         }),
          collected.end());
    }
    for (const Key& k : collected) registry[k].push_back(u);
    consults[static_cast<size_t>(u)] = std::move(collected);
  }

  std::vector<SipFilter> filters;
  filters.reserve(registry.size());
  for (auto& entry : registry) {
    filters.push_back(SipFilter{entry.first.first, entry.first.second,
                                std::move(entry.second)});
  }
  return filters;
}

}  // namespace

PhysicalPlan PhysicalPlan::Compile(const Program& program) {
  return PhysicalPlan(program, ComputeDependencies(program),
                      ComputeReaderCounts(program));
}

namespace {

// Longest chain of the statement DAG `deps` (Dependencies() form).
// Statements only depend on earlier statements, so one forward sweep
// computes it.
int CriticalPath(const std::vector<std::vector<int>>& deps) {
  std::vector<int> depth(deps.size(), 1);
  int best = 0;
  for (size_t k = 0; k < deps.size(); ++k) {
    for (int d : deps[k]) {
      depth[k] = std::max(depth[k], depth[static_cast<size_t>(d)] + 1);
    }
    best = std::max(best, depth[k]);
  }
  return best;
}

}  // namespace

bool ForkStatementGraph(int pool_threads, int num_statements,
                        int critical_path, int64_t max_base_rows,
                        int64_t morsel_rows) {
  const bool big_enough = morsel_rows > 0
                              ? max_base_rows > morsel_rows
                              : max_base_rows >= kMinStatementForkRows;
  return pool_threads > 1 && critical_path < num_statements && big_enough;
}

int PhysicalPlan::CriticalPathLength() const { return CriticalPath(deps_); }

int PhysicalPlan::NumSourceStatements() const {
  int n = 0;
  for (const std::vector<int>& d : deps_) {
    if (d.empty()) ++n;
  }
  return n;
}

namespace {

// Live relation-state accounting plus the retirement countdowns, shared by
// every statement of one query. All counters are atomics: under the graph
// driver a query's statements run concurrently on the pool.
class StateTracker {
 public:
  // `reader_counts` comes from the compile-time analysis; `retain` lists
  // slot ids exempt from retirement (may be null).
  StateTracker(std::vector<Relation>& states, bool retire,
               const std::vector<int>& reader_counts,
               const std::vector<int>* retain)
      : states_(states), retire_(retire) {
    int64_t base_bytes = 0;
    for (const Relation& r : states_) base_bytes += BytesOf(r);
    live_bytes_.store(base_bytes, std::memory_order_relaxed);
    peak_bytes_.store(base_bytes, std::memory_order_relaxed);
    if (!retire_) return;
    const size_t slots = reader_counts.size();
    remaining_ = std::make_unique<std::atomic<int>[]>(slots);
    for (size_t i = 0; i < slots; ++i) {
      remaining_[i].store(reader_counts[i], std::memory_order_relaxed);
    }
    retained_.assign(slots, 0);
    if (retain != nullptr) {
      for (int id : *retain) {
        GYO_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < slots,
                      "retain_states id %d out of range", id);
        retained_[static_cast<size_t>(id)] = 1;
      }
    }
  }

  static int64_t BytesOf(const Relation& r) { return r.ArenaBytes(); }

  // Called by a statement right after it stored its output.
  void RecordProduced(const Relation& out) { AddBytes(BytesOf(out)); }

  // One reader of slot `id` finished with it: decrements the slot's
  // remaining-reader countdown and frees the slot when this was the last
  // reader. Safe without a lock: the freeing statement IS the slot's last
  // reader — every other reader's fetch_sub (an acq_rel RMW) already
  // happened, so their reads of the slot happen-before the free. SIP filter
  // builds call this directly (their reads are counted into the seed counts
  // by ExecuteImpl), statements go through RecordRetired below.
  void RecordSlotRead(int id) {
    if (!retire_) return;
    const size_t slot = static_cast<size_t>(id);
    if (remaining_[slot].fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    if (retained_[slot]) return;
    const int64_t freed = BytesOf(states_[slot]);
    states_[slot] = Relation(states_[slot].Schema());
    live_bytes_.fetch_sub(freed, std::memory_order_relaxed);
    retired_.fetch_add(1, std::memory_order_relaxed);
  }

  // Called by statement `s` after it finished: releases every slot the
  // statement read.
  void RecordRetired(const Program::Statement& s) {
    if (!retire_) return;
    ForEachInput(s, [&](int id) { RecordSlotRead(id); });
  }

  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  int64_t retired() const { return retired_.load(std::memory_order_relaxed); }

 private:
  void AddBytes(int64_t bytes) {
    const int64_t now =
        live_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (now > peak && !peak_bytes_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  std::vector<Relation>& states_;
  const bool retire_;
  std::unique_ptr<std::atomic<int>[]> remaining_;
  std::vector<char> retained_;
  std::atomic<int64_t> live_bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<int64_t> retired_{0};
};

// The statement and filter-build bodies of one query, shared by both
// drivers: the inline driver calls them in program order on one thread,
// the graph driver from its tasks. Holds the kernel options and the SIP
// registry's run-time half — filter storage plus the per-consumer filter
// lists.
class StatementRunner {
 public:
  StatementRunner(const Program& program, const std::vector<SipFilter>& sip,
                  std::vector<Relation>& states, const OpExecOpts& op_opts,
                  std::vector<int64_t>& rows_produced, StateTracker& tracker)
      : program_(program),
        sip_(sip),
        states_(states),
        rows_produced_(rows_produced),
        tracker_(tracker),
        op_opts_(op_opts),
        filters_(sip.size()),
        consumer_filters_(static_cast<size_t>(program.NumStatements())) {
    for (size_t f = 0; f < sip.size(); ++f) {
      for (int c : sip[f].consumers) {
        consumer_filters_[static_cast<size_t>(c)].push_back(&filters_[f]);
      }
    }
  }

  // Builds SIP filter `f` over its base source slot, then releases the
  // filter's read of that slot.
  void BuildFilter(size_t f) {
    const SipFilter& sf = sip_[f];
    const Relation& src = states_[static_cast<size_t>(sf.source)];
    std::vector<int> cols;
    cols.reserve(sf.key_attrs.size());
    for (AttrId a : sf.key_attrs) cols.push_back(src.ColIndex(a));
    filters_[f] = BuildSipFilter(src, cols);
    tracker_.RecordSlotRead(sf.source);
  }

  // Runs statement `k`'s kernel into its slot, tallies its rows, and
  // releases the slots it read.
  void RunStatement(int k) {
    const Program::Statement& s = program_.Statements()[static_cast<size_t>(k)];
    const std::vector<const BloomFilter*>& sip =
        consumer_filters_[static_cast<size_t>(k)];
    OpExecOpts with_sip;
    if (!sip.empty()) {
      with_sip = op_opts_;
      with_sip.sip_filters = &sip;
    }
    const OpExecOpts& opts = sip.empty() ? op_opts_ : with_sip;
    Relation& out = states_[static_cast<size_t>(program_.num_base() + k)];
    switch (s.kind) {
      case Program::Statement::Kind::kJoin:
        out = NaturalJoin(states_[static_cast<size_t>(s.lhs)],
                          states_[static_cast<size_t>(s.rhs)], opts);
        break;
      case Program::Statement::Kind::kSemijoin:
        out = Semijoin(states_[static_cast<size_t>(s.lhs)],
                       states_[static_cast<size_t>(s.rhs)], opts);
        break;
      case Program::Statement::Kind::kProject:
        out = Project(states_[static_cast<size_t>(s.lhs)], s.target);
        break;
    }
    rows_produced_[static_cast<size_t>(k)] = out.NumRows();
    tracker_.RecordProduced(out);
    tracker_.RecordRetired(s);
  }

  // The inline driver: every SIP filter first, in registry order, then
  // statements 0..n-1. Program order is a topological order (statements
  // read only earlier slots), and every consumer runs after its filters.
  void RunInline() {
    for (size_t f = 0; f < sip_.size(); ++f) BuildFilter(f);
    for (int k = 0; k < program_.NumStatements(); ++k) RunStatement(k);
  }

 private:
  const Program& program_;
  const std::vector<SipFilter>& sip_;
  std::vector<Relation>& states_;
  std::vector<int64_t>& rows_produced_;
  StateTracker& tracker_;
  const OpExecOpts op_opts_;
  std::vector<BloomFilter> filters_;
  std::vector<std::vector<const BloomFilter*>> consumer_filters_;
};

// The graph driver: builds the statement task graph and runs it on
// `scheduler`. Each statement gets a plan-level priority — the length of its
// longest downstream dependency chain — so critical-path statements
// dispatch first when many statements (or many queries) compete for the
// pool. Steals feed `counters` (the query's block), and
// `initial_age_seconds` — the admission-queue wait — ages every statement's
// priority (TaskScheduler::AgedPriority) so a long-queued query's tail is
// not starved by deeper plans admitted earlier.
void RunStatementGraph(StatementRunner& runner,
                       const std::vector<std::vector<int>>& deps,
                       const std::vector<SipFilter>& sip,
                       TaskScheduler& scheduler,
                       std::shared_ptr<QueryCounters> counters,
                       double initial_age_seconds) {
  const int num_statements = static_cast<int>(deps.size());

  // Tail critical path: priority[k] = longest chain from statement k to any
  // sink, in statements. Statements only depend on earlier ones, so one
  // reverse sweep suffices.
  std::vector<int> priority(static_cast<size_t>(num_statements), 1);
  for (int k = num_statements - 1; k >= 0; --k) {
    for (int d : deps[static_cast<size_t>(k)]) {
      priority[static_cast<size_t>(d)] =
          std::max(priority[static_cast<size_t>(d)],
                   priority[static_cast<size_t>(k)] + 1);
    }
  }

  TaskGraph graph;
  for (int k = 0; k < num_statements; ++k) {
    graph.AddTask([&runner, k] { runner.RunStatement(k); },
                  priority[static_cast<size_t>(k)]);
  }
  for (int k = 0; k < num_statements; ++k) {
    for (int d : deps[static_cast<size_t>(k)]) graph.AddDependency(k, d);
  }
  // Filter-build tasks: dependency-free (sources are base slots, always
  // ready), and every consumer waits on its filters — so the pruning
  // decisions are fixed before any consumer row is probed, at every thread
  // count. Priority: one above the hottest consumer, so a filter never
  // queues behind the statement it gates.
  for (size_t f = 0; f < sip.size(); ++f) {
    int filter_priority = 1;
    for (int c : sip[f].consumers) {
      filter_priority =
          std::max(filter_priority, priority[static_cast<size_t>(c)] + 1);
    }
    const int task =
        graph.AddTask([&runner, f] { runner.BuildFilter(f); }, filter_priority);
    for (int c : sip[f].consumers) graph.AddDependency(c, task);
  }
  scheduler.RunGraph(graph, std::move(counters), initial_age_seconds);
}

// Adds what a query leaves behind once its last statement has run: one
// task per statement (under either driver), and the state tracker's
// retirement count and peak.
void FinishCounters(QueryCounters& counters, int num_statements,
                    const StateTracker& tracker) {
  QueryStats tail;
  tail.tasks = num_statements;
  tail.retired_states = tracker.retired();
  tail.peak_state_bytes = tracker.peak_bytes();
  Accumulate(counters, tail);
}

// Shared execution body: used by PhysicalPlan::Execute (compiled plan) and
// the free exec::Execute (borrows the caller's program — no Program copy on
// the convenience path). Takes `base` by value: the const-reference entry
// points copy at their boundary, the moving ones forward the caller's
// relations straight into the state vector — the per-round deep copy the
// semijoin fixpoint used to pay is gone.
std::vector<Relation> ExecuteImpl(const Program& program,
                                  const std::vector<std::vector<int>>& deps,
                                  const std::vector<int>& reader_counts,
                                  std::vector<Relation> base,
                                  const ExecContext& ctx,
                                  Program::Stats* stats,
                                  ExecutorPool::Admission* admitted = nullptr) {
  const int num_base = program.num_base();
  const int num_statements = program.NumStatements();
  GYO_CHECK_MSG(static_cast<int>(base.size()) == num_base,
                "base has %d relations, program expects %d",
                static_cast<int>(base.size()), num_base);
  GYO_CHECK_MSG(ctx.threads >= 1, "ExecContext.threads must be >= 1, got %d",
                ctx.threads);
  GYO_CHECK_MSG(ctx.morsel_rows >= 0,
                "ExecContext.morsel_rows must be >= 0, got %lld",
                static_cast<long long>(ctx.morsel_rows));

  // Eager validation: derive the schema of every statement from the actual
  // base relations, failing with the statement index before any data moves.
  // The largest base relation sizes the statement-level fork decision.
  std::vector<AttrSet> base_schemas;
  base_schemas.reserve(base.size());
  int64_t max_base_rows = 0;
  for (const Relation& r : base) {
    base_schemas.push_back(r.Schema());
    max_base_rows = std::max(max_base_rows, r.NumRows());
  }
  std::vector<AttrSet> schemas =
      program.ValidateAndDeriveSchemas(std::move(base_schemas));

  // All relation states, base first. Statement slots start as empty
  // relations over their derived schemas and are move-assigned by their
  // statement; the slots are disjoint, so no synchronization is needed
  // beyond program order (inline) or the task dependencies (graph).
  std::vector<Relation> states;
  states.reserve(static_cast<size_t>(num_base + num_statements));
  for (Relation& r : base) states.push_back(std::move(r));
  for (int k = 0; k < num_statements; ++k) {
    states.emplace_back(schemas[static_cast<size_t>(num_base + k)]);
  }

  // SIP analysis per execution (it needs the derived schemas, and the
  // filters themselves depend on the actual base states). Filter builds
  // read their source slot once more than the compile-time reader counts
  // know about, so retirement seeds an adjusted local copy — the plan's
  // public ReaderCounts() stays the pure statement-level analysis.
  const std::vector<SipFilter> sip =
      ctx.enable_sip ? ComputeSipFilters(program, schemas)
                     : std::vector<SipFilter>();
  std::vector<int> adjusted_counts;
  const std::vector<int>* seed_counts = &reader_counts;
  if (!sip.empty()) {
    adjusted_counts = reader_counts;
    for (const SipFilter& f : sip) {
      ++adjusted_counts[static_cast<size_t>(f.source)];
    }
    seed_counts = &adjusted_counts;
  }

  // Per-statement partial stats, written into disjoint slots and merged
  // after the last statement.
  std::vector<int64_t> rows_produced(static_cast<size_t>(num_statements), 0);
  StateTracker tracker(states, ctx.retire_consumed, *seed_counts,
                       ctx.retain_states);

  // Runs the query with its kernels forking on `scheduler` (nullptr for the
  // serial engine) and every count going to `counters`, the query's one
  // block. The statement graph forks only when ForkStatementGraph says it
  // pays; otherwise the calling thread runs the statements inline.
  auto run = [&](TaskScheduler* scheduler,
                 const std::shared_ptr<QueryCounters>& counters,
                 double initial_age_seconds) {
    OpExecOpts op_opts;
    op_opts.morsel_rows = ctx.morsel_rows;
    op_opts.scheduler = scheduler;
    op_opts.counters = counters;
    StatementRunner runner(program, sip, states, op_opts, rows_produced,
                           tracker);
    if (scheduler != nullptr &&
        ForkStatementGraph(scheduler->threads(), num_statements,
                           CriticalPath(deps), max_base_rows,
                           ctx.morsel_rows)) {
      RunStatementGraph(runner, deps, sip, *scheduler, counters,
                        initial_age_seconds);
    } else {
      runner.RunInline();
    }
    FinishCounters(*counters, num_statements, tracker);
  };
  // An admission brings its own counter block, seeded with the queue depth
  // it saw, and the pool its kernels fork on.
  auto run_admitted = [&](ExecutorPool::Admission& admission) {
    run(&admission.scheduler(), admission.counters(),
        admission.queue_wait_seconds());
    return admission.Finish();
  };
  QueryStats query_stats;
  if (admitted != nullptr) {
    // Pre-admitted path (exec::ExecuteAdmitted): the caller already holds a
    // slot — granted by TryAdmit after its deadline/backlog checks — so the
    // query goes straight onto the admission's pool, even a width-1 one
    // (the concurrency cap must keep holding; the caller participates in
    // execution either way).
    query_stats = run_admitted(*admitted);
  } else if (ctx.threads == 1) {
    // Serial specialization (Program::Execute's path): inline execution on
    // the calling thread, no shared pool, no admission control.
    const auto started = std::chrono::steady_clock::now();
    const auto counters = std::make_shared<QueryCounters>();
    run(nullptr, counters, /*initial_age_seconds=*/0.0);
    query_stats = counters->Snapshot();
    query_stats.run_time_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
  } else {
    // Multi-tenant path: admission into the shared pool (ctx.pool, or the
    // process-wide one), then the query runs on the pool concurrently with
    // other admitted queries.
    ExecutorPool& pool =
        ctx.pool != nullptr ? *ctx.pool : ExecutorPool::Global();
    ExecutorPool::Admission admission = pool.Admit(ctx.submitter);
    query_stats = run_admitted(admission);
  }
  if (ctx.query_stats != nullptr) *ctx.query_stats = query_stats;

  if (stats != nullptr) {
    *stats = Program::Stats();
    for (int64_t rows : rows_produced) {
      stats->max_intermediate_rows =
          std::max(stats->max_intermediate_rows, rows);
      stats->total_rows_produced += rows;
    }
    if (num_statements > 0) {
      stats->result_rows = rows_produced[static_cast<size_t>(num_statements - 1)];
    }
  }
  return states;
}

}  // namespace

PhysicalPlan PhysicalPlan::FromAnalysis(Program program,
                                        std::vector<std::vector<int>> deps,
                                        std::vector<int> reader_counts) {
  GYO_CHECK_MSG(
      static_cast<int>(deps.size()) == program.NumStatements(),
      "analysis has %d dependency lists, program has %d statements",
      static_cast<int>(deps.size()), program.NumStatements());
  GYO_CHECK_MSG(
      static_cast<int>(reader_counts.size()) == program.NumRelations(),
      "analysis has %d reader counts, program has %d relations",
      static_cast<int>(reader_counts.size()), program.NumRelations());
  return PhysicalPlan(std::move(program), std::move(deps),
                      std::move(reader_counts));
}

std::vector<Relation> PhysicalPlan::Execute(const std::vector<Relation>& base,
                                            const ExecContext& ctx,
                                            Program::Stats* stats) const {
  return ExecuteImpl(program_, deps_, reader_counts_, base, ctx, stats);
}

std::vector<Relation> PhysicalPlan::Execute(std::vector<Relation>&& base,
                                            const ExecContext& ctx,
                                            Program::Stats* stats) const {
  return ExecuteImpl(program_, deps_, reader_counts_, std::move(base), ctx,
                     stats);
}

std::vector<Relation> Execute(const Program& program,
                              const std::vector<Relation>& base,
                              const ExecContext& ctx, Program::Stats* stats) {
  return ExecuteImpl(program, ComputeDependencies(program),
                     ComputeReaderCounts(program), base, ctx, stats);
}

std::vector<Relation> Execute(const Program& program,
                              std::vector<Relation>&& base,
                              const ExecContext& ctx, Program::Stats* stats) {
  return ExecuteImpl(program, ComputeDependencies(program),
                     ComputeReaderCounts(program), std::move(base), ctx,
                     stats);
}

std::vector<int> RetainForSinks(const Program& program,
                                const std::vector<int>& requested) {
  const std::vector<int> counts = ComputeReaderCounts(program);
  std::vector<int> retain;
  for (int id : requested) {
    GYO_CHECK_MSG(id >= 0 && id < program.NumRelations(),
                  "requested slot %d out of range", id);
    // Slots no statement reads are sinks — retirement already spares them.
    if (counts[static_cast<size_t>(id)] > 0) retain.push_back(id);
  }
  return retain;
}

Relation Run(const Program& program, const std::vector<Relation>& base,
             const ExecContext& ctx) {
  GYO_CHECK_MSG(program.NumStatements() > 0, "program has no statements");
  // Result-only entry point, so retirement is always safe: statements only
  // read earlier slots, making the last statement's output a sink (reader
  // count zero) that retirement never touches — every other state is freed
  // as its last reader finishes.
  ExecContext run_ctx = ctx;
  run_ctx.retire_consumed = true;
  run_ctx.retain_states = nullptr;
  return Execute(program, base, run_ctx).back();
}

std::vector<Relation> PhysicalPlan::ExecuteAdmitted(
    std::vector<Relation> base, const ExecContext& ctx,
    ExecutorPool::Admission& admission, Program::Stats* stats) const {
  return ExecuteImpl(program_, deps_, reader_counts_, std::move(base), ctx,
                     stats, &admission);
}

std::vector<Relation> ExecuteAdmitted(const Program& program,
                                      std::vector<Relation> base,
                                      const ExecContext& ctx,
                                      ExecutorPool::Admission& admission,
                                      Program::Stats* stats) {
  return ExecuteImpl(program, ComputeDependencies(program),
                     ComputeReaderCounts(program), std::move(base), ctx, stats,
                     &admission);
}

}  // namespace exec
}  // namespace gyo
