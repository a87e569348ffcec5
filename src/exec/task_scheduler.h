#ifndef GYO_EXEC_TASK_SCHEDULER_H_
#define GYO_EXEC_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/exec_context.h"

namespace gyo {
namespace exec {

/// A dependency-counting task DAG, built once and handed to
/// TaskScheduler::RunGraph. Tasks are identified by the dense int returned
/// from AddTask; AddDependency(a, b) orders b before a. The graph may be run
/// once per construction (RunGraph consumes the dependency counters).
class TaskGraph {
 public:
  using TaskFn = std::function<void()>;

  /// Registers a task; returns its id (dense, starting at 0). Higher
  /// `priority` tasks dispatch before lower ones whenever both are ready
  /// (ties drain FIFO); the physical plan uses this to run critical-path
  /// statements first. Priority never overrides a dependency.
  int AddTask(TaskFn fn, int priority = 0);

  /// Declares that `task` must not start before `dep` has finished.
  /// Duplicate edges are allowed and counted once.
  void AddDependency(int task, int dep);

  int NumTasks() const { return static_cast<int>(tasks_.size()); }

  /// Longest dependency chain, in tasks (0 for an empty graph) — the lower
  /// bound on parallel makespan in task units.
  int CriticalPathLength() const;

 private:
  friend class TaskScheduler;
  struct Task {
    TaskFn fn;
    std::vector<int> successors;
    int num_deps = 0;
    int priority = 0;
  };
  std::vector<Task> tasks_;
  std::vector<std::vector<int>> deps_;  // per task, for dedup + critical path
};

/// A fixed pool of worker threads executing dependency-ordered task DAGs and
/// morsel-style parallel loops. This is the core of the exec subsystem: the
/// PhysicalPlan runtime maps the statements of a query whose graph pays
/// (exec::ForkStatementGraph) onto RunGraph (statement-level parallelism),
/// and the rel/ops kernels call ParallelFor from inside those tasks or from
/// a query's inline statements (intra-operator morsel parallelism).
///
/// Scheduling is work-stealing with priority hints. Each worker owns a
/// priority-bucketed deque: jobs a worker creates (graph successors it
/// releases, morsel helpers it fans out) push onto its own deque and pop
/// back LIFO — the hot-in-cache order — while idle threads steal FIFO from
/// the opposite end, taking the oldest (coldest) job. A shared overflow
/// queue carries work from outside the pool: external RunGraph callers
/// (cross-graph admission from the ExecutorPool) seed their graphs there.
/// A ParallelFor's helpers always sit on one deque — the forking worker's
/// own, or a rotating worker's when the fork comes from outside the pool —
/// and spread by stealing. A thread out of local work takes the
/// highest-priority job visible across the overflow queue and every other
/// worker's deque-top hint (overflow wins ties so external admissions
/// cannot starve behind equal-priority local work; victims tie-break in
/// scan order from the thief's index + 1).
///
/// ParallelFor morsels run above every graph priority, so in-flight
/// operators finish before new statements start. The query's QueryCounters
/// count how often work moved between deques (steals).
///
/// Multiple independent TaskGraphs may be in flight at once: RunGraph may be
/// called concurrently from any number of external threads (one per query in
/// the ExecutorPool). Each invocation carries its own graph-scoped dependency
/// counters and completion signal — every caller participates in execution,
/// so a graph always completes even when all workers are busy with other
/// graphs. The aged RunGraph overload adds cross-query priority aging:
/// a query that waited in the admission queue gets a bounded priority boost
/// (AgedPriority), so a deep plan admitted earlier cannot starve a
/// long-queued short query's tail.
///
/// Determinism: scheduling only decides WHERE a job runs. Result bytes are
/// governed by the kernels' morsel-indexed outputs, so stealing never
/// changes any result.
///
/// threads == 1 is the serial specialization: no worker threads are spawned,
/// every job routes through the overflow queue, and both modes execute
/// inline on the calling thread in deterministic (priority bucket, then
/// FIFO / loop) order.
class TaskScheduler {
 public:
  struct Options {
    /// Pool width (callers participate as the extra thread). Must be >= 1.
    int threads = 1;

    /// Steal-storm test hook: worker 0 parks for this long before its first
    /// pop (interruptible by shutdown), so with real work in flight the
    /// other threads MUST steal. 0 (default) = off. Production code never
    /// sets this; the bit-identical-under-stealing property tests do.
    int worker0_start_delay_ms = 0;
  };

  /// Spawns `threads - 1` workers (the caller participates as the remaining
  /// thread). `threads` must be >= 1.
  explicit TaskScheduler(int threads);
  explicit TaskScheduler(const Options& options);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  int threads() const { return threads_; }

  /// Worker threads, each with its own deque: threads() - 1.
  int num_workers() const { return threads_ - 1; }

  /// The calling thread's worker index in this pool, in [0, num_workers()),
  /// or -1 for threads the pool does not own (external RunGraph callers
  /// included).
  int CurrentWorkerIndex() const;

  /// Cross-query priority aging: the effective priority of a task whose
  /// query waited `wait_seconds` in the admission queue before running.
  /// One priority level per kAgingQuantumSeconds of wait, capped at
  /// kMaxAgingBoost so aged tasks can never outrank ParallelFor morsels or
  /// leapfrog a genuinely deeper critical path by more than the cap.
  static constexpr double kAgingQuantumSeconds = 0.002;
  static constexpr int kMaxAgingBoost = 8;

  static int AgingBoost(double wait_seconds) {
    if (wait_seconds <= 0.0) return 0;
    const double quanta = wait_seconds / kAgingQuantumSeconds;
    if (quanta >= static_cast<double>(kMaxAgingBoost)) return kMaxAgingBoost;
    return static_cast<int>(quanta);
  }

  static int AgedPriority(int priority, double wait_seconds) {
    return priority + AgingBoost(wait_seconds);
  }

  /// Runs every task of `graph` respecting its dependencies; blocks until
  /// all have finished. The calling thread participates in execution. Must
  /// not be called from inside a task, but may be called concurrently from
  /// any number of distinct external threads. Each TaskGraph may be run
  /// once. Every task dispatches at AgedPriority(task priority,
  /// initial_age_seconds) — the admission queue wait of the owning query —
  /// and steal counts feed `counters` (may be null).
  void RunGraph(TaskGraph& graph,
                std::shared_ptr<QueryCounters> counters = nullptr,
                double initial_age_seconds = 0.0);

  /// Runs body(chunk) for every chunk in [0, num_chunks), distributing
  /// chunks over the pool via an atomic claim counter (morsel dispatch);
  /// blocks until every chunk has run. The calling thread participates, so
  /// completion never depends on worker availability — callable both from
  /// outside the pool and from inside a RunGraph task. Chunk execution
  /// order across threads is unspecified; with threads() == 1 the loop runs
  /// inline in increasing chunk order. Steal counts feed `counters` (may be
  /// null).
  void ParallelFor(int64_t num_chunks, const std::function<void(int64_t)>& body,
                   std::shared_ptr<QueryCounters> counters = nullptr);

 private:
  struct Job {
    std::function<void()> fn;
    // The owning query's counters, may be null. Shared ownership: a job
    // drained after its query finished still points at live counters.
    std::shared_ptr<QueryCounters> counters;
  };
  struct WorkerDeque;
  struct GraphRunState;  // shared state of one RunGraph invocation

  static constexpr int kEmptyPriority = std::numeric_limits<int>::min();

  /// Places a job on worker `worker`'s deque, or on the shared overflow
  /// queue when `worker` is -1 (always the case at threads == 1, which
  /// preserves the pinned serial drain order).
  void Enqueue(int priority, std::function<void()> fn, int worker,
               const std::shared_ptr<QueryCounters>& counters);
  void PushDeque(int worker, int priority, Job job);
  void PushOverflow(int priority, Job job);
  bool PopOwn(int self, Job* out);       // LIFO from own deque
  bool StealFrom(int victim, Job* out);  // FIFO from a victim's deque
  bool PopOverflow(Job* out);
  /// The full acquire order for thread `self` (-1 = external): own deque,
  /// then the highest-priority source among overflow and victim hints.
  bool AcquireJob(int self, Job* out);
  void WorkerLoop(int index);
  void EnqueueGraphTask(const std::shared_ptr<GraphRunState>& state, int id);
  void RunGraphTask(const std::shared_ptr<GraphRunState>& state, int id);

  const int threads_;
  const int worker0_start_delay_ms_;
  std::vector<std::unique_ptr<WorkerDeque>> deques_;  // one per worker
  std::vector<std::thread> workers_;

  /// Jobs currently queued anywhere (deques + overflow). Incremented before
  /// a push, decremented on pop, so a non-zero count is visible before the
  /// job is; the idle-sleep predicate reads it without touching any deque.
  std::atomic<int64_t> jobs_{0};

  /// Rotates the home deque of helpers forked from outside the pool.
  std::atomic<unsigned> next_home_{0};

  std::mutex mu_;  // guards overflow_ and the idle sleep
  std::condition_variable queue_cv_;
  // Overflow priority buckets, highest first; each bucket drains FIFO.
  // Emptied buckets are erased so begin() is always the top priority.
  std::map<int, std::deque<Job>, std::greater<int>> overflow_;
  std::atomic<int> overflow_top_{kEmptyPriority};  // steal-order hint
  bool stopping_ = false;
};

}  // namespace exec
}  // namespace gyo

#endif  // GYO_EXEC_TASK_SCHEDULER_H_
