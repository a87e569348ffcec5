#ifndef GYO_EXEC_PHYSICAL_PLAN_H_
#define GYO_EXEC_PHYSICAL_PLAN_H_

#include <cstdint>
#include <vector>

#include "exec/exec_context.h"
#include "exec/executor_pool.h"
#include "rel/program.h"
#include "rel/relation.h"

namespace gyo {
namespace exec {

/// The statement-graph fork grain: with auto-sized morsels, a query hands
/// its statements to the pool as a task graph only when its largest base
/// relation has at least this many rows. Below it the hand-offs cost more
/// than the statement-level parallelism returns: each statement of a
/// Yannakakis program over a few hundred rows is a few microseconds of
/// kernel work, about what passing it between threads costs. The value is
/// the crossover of BM_Exec_StatementGrain (bench/bench_exec.cc) with each
/// driver forced, 2 clients on a 2-thread, 2-slot pool, 4-vCPU x86-64 VM,
/// median of 5 alternating passes (graph / inline time): the 48-relation
/// tree broke even at 1024 rows per relation (1.01) and ran faster as a
/// graph from 1536 on (0.90 at 1536, 0.83 at 2048); the 8-relation path
/// with half its rows dangling ran faster inline up to 2048 (1.28 at 1024,
/// 1.09 at 2048) and as a graph at 3072 (0.94). At 2048 each shape's wrong
/// side costs it about 10%.
constexpr int64_t kMinStatementForkRows = 2048;

/// The statement-level fork decision, taken once per query before any
/// statement runs (the statement-level counterpart of the kernels' fork
/// grain, kMinMorselsPerThread in rel/ops.h). True — run the statements as
/// a task graph on the pool — only when all three hold:
///   * the pool has more than one thread (`pool_threads` > 1);
///   * the plan is not a chain (`critical_path` < `num_statements`): in a
///     chain no two statements can run at once, so a graph would add
///     hand-offs and nothing else;
///   * the input is big enough: with auto-sized morsels (`morsel_rows` 0)
///     the largest base relation has at least kMinStatementForkRows rows;
///     with an explicit `morsel_rows` it spans more than one morsel, so the
///     explicit size forces the statement graph on small data the way it
///     forces kernel forks.
/// Otherwise the statements run inline, in program order, on the thread
/// that runs the query; their kernels still fork on the pool when their
/// own probe sides cross the kernel fork grain.
bool ForkStatementGraph(int pool_threads, int num_statements,
                        int critical_path, int64_t max_base_rows,
                        int64_t morsel_rows);

/// Compiles a Program into a dependency-counted task DAG by dataflow
/// analysis of statement inputs: statement k depends on statement j exactly
/// when k reads the relation j created (base relations impose no edges).
/// Statements on disjoint subtrees of a qual-tree plan — the sibling
/// semijoins of a full reducer's upward/downward passes, independent
/// Yannakakis subtree joins — therefore become concurrent tasks, while the
/// chain through any one relation stays ordered. A query whose plan and
/// input pass ForkStatementGraph maps each statement to one TaskScheduler
/// task; every other query runs its statements inline in program order
/// (a topological order: statements read only earlier slots). Either way
/// each operator kernel may additionally split large inputs into morsels on
/// the pool (see rel/ops.h).
class PhysicalPlan {
 public:
  /// Runs the dataflow analysis. The program is copied into the plan.
  static PhysicalPlan Compile(const Program& program);

  const Program& program() const { return program_; }

  /// Dependencies()[k] lists the statement indices whose results statement k
  /// reads, in input order (lhs before rhs), base inputs omitted.
  const std::vector<std::vector<int>>& Dependencies() const { return deps_; }

  /// ReaderCounts()[id] is the number of statements reading relation `id`
  /// (program numbering: base relations first, then statement results; a
  /// statement reading the same relation twice counts once). This is the
  /// compile-time last-reader analysis behind state retirement
  /// (ExecContext::retire_consumed): at run time each finishing statement
  /// decrements its inputs' remaining-reader counters, and the statement
  /// that drops a counter to zero — the state's final consumer — frees it.
  /// States with count 0 are sinks and are never retired.
  const std::vector<int>& ReaderCounts() const { return reader_counts_; }

  /// Longest statement dependency chain — the statement-level lower bound on
  /// parallel makespan. 0 for an empty program.
  int CriticalPathLength() const;

  /// Statements with no statement dependencies (the initially-ready width).
  int NumSourceStatements() const;

  /// Executes the plan over `base`, returning all relation states (base
  /// states followed by one per statement), exactly like Program::Execute.
  /// Validates every statement eagerly (see ValidateAndDeriveSchemas) before
  /// any operator runs. With ctx.threads == 1 the statements run inline in
  /// program order on the calling thread, with no pool and no scheduler;
  /// with any other value the query is admitted into the shared
  /// ExecutorPool (ctx.pool, defaulting to the process-wide one), and
  /// admission caps concurrent queries. An admitted query whose plan and
  /// input pass ForkStatementGraph runs as a task graph — the pool's
  /// workers run independent statements concurrently, critical-path
  /// statements first; any other admitted query runs inline in program
  /// order on the admitted thread. Either way large operators additionally
  /// parallelize over morsels on the pool. The returned states are
  /// bit-identical to the serial run's — same row order, same canonical
  /// flags — and so are the reported Stats, regardless of pool size,
  /// morsel size, driver or concurrent queries (ctx.deterministic no longer
  /// changes anything). ctx.query_stats, when non-null, receives the
  /// per-query admission/runtime metrics.
  std::vector<Relation> Execute(const std::vector<Relation>& base,
                                const ExecContext& ctx,
                                Program::Stats* stats = nullptr) const;

  /// Moving form: consumes `base` instead of deep-copying it into the state
  /// vector. The returned states still lead with the base slots — they are
  /// the caller's own relations moved through, not copies — so callers that
  /// re-execute round programs (the semijoin fixpoint) or feed one
  /// execution's output into the next can round-trip states without paying
  /// O(data) per round.
  std::vector<Relation> Execute(std::vector<Relation>&& base,
                                const ExecContext& ctx,
                                Program::Stats* stats = nullptr) const;

  /// Admitted execution reusing this plan's memoized analysis — the
  /// plan-cache serve path, where the caller already holds a TryAdmit slot
  /// and the dependency analysis came out of the cache. Semantics match the
  /// free ExecuteAdmitted exactly, `base` included: pass an rvalue to hand
  /// the states over without a copy.
  std::vector<Relation> ExecuteAdmitted(std::vector<Relation> base,
                                        const ExecContext& ctx,
                                        ExecutorPool::Admission& admission,
                                        Program::Stats* stats = nullptr) const;

  /// Rebuilds a plan from a previously computed analysis — the plan-cache
  /// hit path, where `deps`/`reader_counts` were memoized alongside the
  /// program (statement indices are attribute-rename-invariant, so a cached
  /// analysis is valid for any isomorphic program). Dies if the shapes do
  /// not match the program's statement/relation counts.
  static PhysicalPlan FromAnalysis(Program program,
                                   std::vector<std::vector<int>> deps,
                                   std::vector<int> reader_counts);

 private:
  PhysicalPlan(Program program, std::vector<std::vector<int>> deps,
               std::vector<int> reader_counts)
      : program_(std::move(program)),
        deps_(std::move(deps)),
        reader_counts_(std::move(reader_counts)) {}

  Program program_;
  std::vector<std::vector<int>> deps_;
  std::vector<int> reader_counts_;
};

/// Compile-and-execute convenience: what Program::Execute does, with an
/// explicit context. Borrows `program` (no copy — only the dependency
/// analysis is redone per call; use a PhysicalPlan to amortize even that
/// across repeated executions). stats, when non-null, receives the same
/// counters as Program::ExecuteWithStats.
std::vector<Relation> Execute(const Program& program,
                              const std::vector<Relation>& base,
                              const ExecContext& ctx,
                              Program::Stats* stats = nullptr);

/// Moving form of the free Execute: consumes `base` (see
/// PhysicalPlan::Execute's moving overload). The per-call cost is the
/// dependency analysis only — no relation is copied.
std::vector<Relation> Execute(const Program& program,
                              std::vector<Relation>&& base,
                              const ExecContext& ctx,
                              Program::Stats* stats = nullptr);

/// Retain-set planner pass: the minimal ExecContext::retain_states list for
/// running `program` with retirement while keeping every slot in `requested`
/// (program numbering) readable afterwards. Slots no statement reads are
/// sinks — retirement never touches them — so only the requested slots with
/// a positive reader count need an exemption. The reducer derives its
/// retain list from its final_ids this way; Run() derives an empty one from
/// its single sink.
std::vector<int> RetainForSinks(const Program& program,
                                const std::vector<int>& requested);

/// Parallel Program::Run: executes and returns just the final relation. The
/// program must have at least one statement. Runs with state retirement
/// (ExecContext::retire_consumed) unconditionally: the caller only receives
/// the last statement's result — a sink, which retirement never frees — so
/// every consumed base copy and intermediate state is released as its last
/// reader finishes, whatever the caller's ctx says.
Relation Run(const Program& program, const std::vector<Relation>& base,
             const ExecContext& ctx);

/// Executes under an admission slot the caller already holds — the entry
/// point for front ends that admit with shedding (ExecutorPool::TryAdmit)
/// before committing any execution resources: gyo_serve sheds a query whose
/// queue wait exceeded its deadline with a typed error frame, and only an
/// admitted query reaches this function. Always runs on `admission`'s pool
/// (ctx.threads is ignored except for validation; ctx.pool must be null or
/// that same pool): as a task graph when ForkStatementGraph says so, else
/// inline in program order on the calling thread, whose kernels still fork
/// on the pool. Output is bit-identical to serial execution regardless of
/// pool width or driver — the property the serve end-to-end tests pin with
/// IdenticalTo. `base` is taken by value: the serve path moves its decoded
/// states in (they are never read again); an lvalue argument is copied.
std::vector<Relation> ExecuteAdmitted(const Program& program,
                                      std::vector<Relation> base,
                                      const ExecContext& ctx,
                                      ExecutorPool::Admission& admission,
                                      Program::Stats* stats = nullptr);

}  // namespace exec
}  // namespace gyo

#endif  // GYO_EXEC_PHYSICAL_PLAN_H_
