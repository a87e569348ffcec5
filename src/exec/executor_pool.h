#ifndef GYO_EXEC_EXECUTOR_POOL_H_
#define GYO_EXEC_EXECUTOR_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "exec/exec_context.h"
#include "exec/task_scheduler.h"

namespace gyo {
namespace exec {

/// A process-wide shared TaskScheduler fronted by an admission controller —
/// the layer that turns the one-query exec runtime into a multi-tenant
/// engine. Every parallel query (exec::Execute with threads != 1) draws from
/// one fixed pool of workers instead of spinning up and tearing down its own
/// scheduler, so N concurrent queries on an M-core machine run on M threads
/// total rather than N*M.
///
/// Admission control caps the number of *concurrently running* queries at
/// max_concurrent_queries(); excess queries wait in per-submitter FIFO
/// queues served round-robin across submitters, so one hot caller cannot
/// starve the rest. A query holds its slot only while running — waiting
/// queries hold nothing, so admission cannot deadlock.
///
/// The scheduler runs every admitted query's task graph concurrently
/// (graph-scoped dependency counters; see TaskScheduler::RunGraph), with
/// plan-level priorities so critical-path statements dispatch first; a
/// query whose graph would not pay (exec::ForkStatementGraph) runs its
/// statements inline on its caller thread instead, forking only its large
/// kernels onto the pool. Each admitted query's caller thread participates
/// in execution, so up to max_concurrent_queries() caller threads add
/// themselves to the pool's threads() workers while their queries are in
/// flight.
class ExecutorPool {
 public:
  struct Options {
    /// Worker threads. 0 (default) resolves via ResolveThreads: the
    /// GYO_EXEC_THREADS environment variable if set, else
    /// hardware_concurrency.
    int threads = 0;

    /// Admission cap on concurrently running queries. 0 (default) = the
    /// resolved thread count (one average thread per admitted query).
    int max_concurrent_queries = 0;

    /// Passed through to TaskScheduler::Options::worker0_start_delay_ms —
    /// the steal-storm test hook (worker 0 parks before its first pop so
    /// other threads must steal). 0 = off; tests only.
    int worker0_start_delay_ms = 0;

    /// Default admission deadline for TryAdmit: a query still waiting for a
    /// slot after this many seconds is shed with kDeadlineExceeded instead
    /// of queueing forever. <= 0 (default) = wait without limit. A per-call
    /// deadline overrides this. The blocking Admit() never sheds.
    double max_queue_wait_seconds = 0.0;

    /// Per-submitter backlog bound for TryAdmit: a query that would have to
    /// wait while its fairness class already has this many queued is shed
    /// with kBacklogFull — the abusive-tenant backpressure valve (an
    /// unbounded tenant would only inflate its own FIFO, but every entry
    /// pins a caller thread). <= 0 (default) = unbounded. The blocking
    /// Admit() ignores the bound (cooperative in-process callers).
    int max_waiting_per_submitter = 0;
  };

  ExecutorPool() : ExecutorPool(Options()) {}
  explicit ExecutorPool(const Options& options);

  /// Joins the workers. Every Admission must have been destroyed first.
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  /// The lazily-initialized process-wide pool, created on first use with
  /// the options from ConfigureGlobal (or defaults). Never destroyed —
  /// intentionally leaked so queries on detached threads cannot race static
  /// destruction.
  static ExecutorPool& Global();

  /// Sets the options Global() will be built with. Must be called before
  /// the first Global() call; dies afterwards (the pool cannot be resized
  /// once workers exist). CLIs call this from flag parsing
  /// (--threads / --max-concurrent-queries).
  static void ConfigureGlobal(const Options& options);

  /// Thread-count resolution: `requested` if >= 1, else GYO_EXEC_THREADS
  /// (when set to a positive integer), else hardware_concurrency, else 1.
  static int ResolveThreads(int requested);

  int threads() const { return scheduler_.threads(); }
  int max_concurrent_queries() const { return max_concurrent_; }
  TaskScheduler& scheduler() { return scheduler_; }

  /// Queries currently holding an admission slot / waiting for one.
  int running_queries() const;
  int waiting_queries() const;

  /// Queue depth of one fairness class: queries from `submitter` currently
  /// waiting for a slot. This is the observable a backpressure policy needs
  /// — shed or reject a tenant whose backlog exceeds a bound instead of
  /// queueing without limit (the CLIs surface it in their pool stats).
  int waiting_queries(uint64_t submitter) const;

  /// An admission slot, held for the lifetime of one query (RAII: the
  /// destructor releases the slot and wakes the next waiter). Also the
  /// owner of the query's counter block: the exec runtime, the scheduler
  /// and the kernels add to it while the query runs, and Finish() snapshots
  /// it.
  class Admission {
   public:
    ~Admission();
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;

    TaskScheduler& scheduler() const { return pool_->scheduler_; }

    /// This query's counters. The admission seeds queue_depth_at_admit;
    /// the exec runtime hands the block to RunGraph and to the operator
    /// kernels via OpExecOpts::counters. Shared ownership: queued jobs
    /// co-own the block, so a job drained after this Admission dies (a
    /// no-op morsel left in a parked worker's deque) never writes through
    /// a dangling pointer.
    const std::shared_ptr<QueryCounters>& counters() const {
      return counters_;
    }

    /// Admission-queue wait of this query — the input to the scheduler's
    /// cross-query priority aging (TaskScheduler::AgedPriority).
    double queue_wait_seconds() const { return queue_wait_seconds_; }

    /// Records the query as finished (run_time stops here; idempotent) and
    /// returns the stats snapshot.
    QueryStats Finish();

   private:
    friend class ExecutorPool;
    Admission(ExecutorPool* pool, uint64_t submitter,
              double queue_wait_seconds,
              std::chrono::steady_clock::time_point admitted_at,
              int64_t queue_depth_at_admit)
        : pool_(pool),
          submitter_(submitter),
          queue_wait_seconds_(queue_wait_seconds),
          admitted_at_(admitted_at) {
      counters_->queue_depth_at_admit.store(queue_depth_at_admit,
                                            std::memory_order_relaxed);
    }

    ExecutorPool* pool_;
    uint64_t submitter_;
    double queue_wait_seconds_;
    std::chrono::steady_clock::time_point admitted_at_;
    std::shared_ptr<QueryCounters> counters_ =
        std::make_shared<QueryCounters>();
    bool finished_ = false;
    double run_time_seconds_ = 0.0;
  };

  /// Blocks until the admission controller grants a slot (immediately when
  /// running_queries() < max_concurrent_queries() and nothing is queued).
  /// `submitter` is the fairness class (see ExecContext::submitter).
  Admission Admit(uint64_t submitter = 0);

  /// Why TryAdmit declined a query. Shedding happens at admit time only —
  /// an admitted query always runs to completion.
  enum class AdmitStatus {
    kAdmitted,
    /// The query's queue wait exceeded its admission deadline; it was
    /// removed from its fairness queue without ever holding a slot.
    kDeadlineExceeded,
    /// The submitter's fairness queue was already at
    /// max_waiting_per_submitter when the query arrived and every slot was
    /// busy; rejected immediately (zero wait).
    kBacklogFull,
  };

  /// Typed admission outcome. `admission` is non-null iff status is
  /// kAdmitted; `queue_wait_seconds` reports the wait actually spent queued
  /// (the full deadline on kDeadlineExceeded, 0 on kBacklogFull).
  struct AdmitResult {
    AdmitStatus status = AdmitStatus::kAdmitted;
    std::unique_ptr<Admission> admission;
    double queue_wait_seconds = 0.0;
    /// Queries of this submitter waiting when the decision was made.
    int waiting_for_submitter = 0;
  };

  /// Admission with shedding: the entry point network front ends use
  /// (gyo_serve) so an overloaded pool produces typed rejections instead of
  /// unbounded queues. `max_queue_wait_seconds` < 0 uses the pool-level
  /// Options default; 0 disables the deadline; > 0 bounds this call's queue
  /// wait. The per-submitter backlog bound always comes from the pool
  /// Options. Round-robin fairness is unchanged: a deadline removes the
  /// waiter from its FIFO without perturbing other submitters.
  AdmitResult TryAdmit(uint64_t submitter = 0,
                       double max_queue_wait_seconds = -1.0);

  /// A point-in-time snapshot of the pool's shape and admission state — the
  /// one struct behind the CLI pool-status lines (examples/exec_flags.h)
  /// and the daemon's STATUS responses (serve/server.h), so the two
  /// surfaces cannot drift.
  struct PoolStatus {
    int threads = 0;
    int max_concurrent_queries = 0;
    int running = 0;
    int waiting = 0;
    struct Submitter {
      uint64_t id = 0;
      int running = 0;
      int waiting = 0;
    };
    /// Fairness classes with at least one running or waiting query, in
    /// increasing id order.
    std::vector<Submitter> submitters;
  };
  PoolStatus Status() const;

 private:
  struct Waiter {
    std::condition_variable cv;
    bool admitted = false;
  };

  void Release(uint64_t submitter);
  // Removes `w` from `submitter`'s FIFO (called with mu_ held, on deadline
  // expiry). Keeps the ring/map invariant: a submitter leaves the ring the
  // moment its queue drains.
  void RemoveWaiter(uint64_t submitter, Waiter* w);

  TaskScheduler scheduler_;
  const int max_concurrent_;
  const double max_queue_wait_seconds_;
  const int max_waiting_per_submitter_;

  mutable std::mutex mu_;
  int running_ = 0;
  int num_waiting_ = 0;
  // Per-submitter FIFO queues plus the round-robin ring of submitters that
  // currently have waiters; rr_pos_ points at the next submitter to serve.
  std::unordered_map<uint64_t, std::deque<Waiter*>> waiting_;
  std::vector<uint64_t> rr_ring_;
  size_t rr_pos_ = 0;
  // Running queries per fairness class (entries erased at zero), feeding
  // PoolStatus::Submitter::running.
  std::unordered_map<uint64_t, int> running_by_submitter_;
};

}  // namespace exec
}  // namespace gyo

#endif  // GYO_EXEC_EXECUTOR_POOL_H_
