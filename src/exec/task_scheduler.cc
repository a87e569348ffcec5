#include "exec/task_scheduler.h"

#include <algorithm>
#include <chrono>

#include "util/check.h"

namespace gyo {
namespace exec {

namespace {

// ParallelFor morsels dispatch above every graph-task priority: finishing an
// operator already in flight shortens the makespan more than starting a new
// statement. Aged graph priorities stay below this (plan priorities are
// small and AgingBoost is capped), so the invariant survives aging.
constexpr int kMorselPriority = std::numeric_limits<int>::max();

// Which pool (if any) owns the current thread, and as which worker. One
// thread belongs to at most one scheduler for its lifetime, so a plain
// thread_local pair suffices; external threads keep the {nullptr, -1}
// default.
struct WorkerTls {
  const TaskScheduler* scheduler = nullptr;
  int index = -1;
};
thread_local WorkerTls tls_worker;

}  // namespace

int TaskGraph::AddTask(TaskFn fn, int priority) {
  tasks_.push_back(Task{std::move(fn), {}, 0, priority});
  deps_.emplace_back();
  return static_cast<int>(tasks_.size()) - 1;
}

void TaskGraph::AddDependency(int task, int dep) {
  GYO_CHECK(task >= 0 && task < NumTasks());
  GYO_CHECK(dep >= 0 && dep < NumTasks());
  GYO_CHECK_MSG(dep != task, "task %d cannot depend on itself", task);
  std::vector<int>& d = deps_[static_cast<size_t>(task)];
  if (std::find(d.begin(), d.end(), dep) != d.end()) return;
  d.push_back(dep);
  tasks_[static_cast<size_t>(dep)].successors.push_back(task);
  ++tasks_[static_cast<size_t>(task)].num_deps;
}

int TaskGraph::CriticalPathLength() const {
  // Longest chain via Kahn's algorithm (also proves acyclicity: a cycle
  // leaves tasks unprocessed and the depth of those is never counted, which
  // RunGraph separately rejects).
  const int n = NumTasks();
  std::vector<int> pending(static_cast<size_t>(n));
  std::vector<int> depth(static_cast<size_t>(n), 1);
  std::vector<int> ready;
  for (int i = 0; i < n; ++i) {
    pending[static_cast<size_t>(i)] = tasks_[static_cast<size_t>(i)].num_deps;
    if (pending[static_cast<size_t>(i)] == 0) ready.push_back(i);
  }
  int best = 0;
  while (!ready.empty()) {
    int v = ready.back();
    ready.pop_back();
    best = std::max(best, depth[static_cast<size_t>(v)]);
    for (int succ : tasks_[static_cast<size_t>(v)].successors) {
      depth[static_cast<size_t>(succ)] =
          std::max(depth[static_cast<size_t>(succ)],
                   depth[static_cast<size_t>(v)] + 1);
      if (--pending[static_cast<size_t>(succ)] == 0) ready.push_back(succ);
    }
  }
  return best;
}

// One worker's priority-bucketed deque. The owner pushes and pops at the
// back of the top bucket (LIFO — the hot-in-cache end); thieves pop at the
// front (FIFO — the oldest, coldest job). `top` caches the highest occupied
// bucket priority so thieves can rank victims without taking every lock;
// it is maintained under `mu`, read racily as a hint, and verified by the
// locked pop itself.
struct TaskScheduler::WorkerDeque {
  std::mutex mu;
  std::map<int, std::deque<Job>, std::greater<int>> buckets;
  std::atomic<int> top{kEmptyPriority};
};

// Shared state of one RunGraph invocation. Jobs capture it by shared_ptr so
// a worker finishing the final task can still use the mutex/cv safely while
// the caller's RunGraph frame unwinds. Every concurrent RunGraph invocation
// owns one of these, which is what keeps independent graphs independent:
// dependency counters, the completion signal, the steal tally, and the
// aging boost are all graph-scoped; only the job queues are shared.
struct TaskScheduler::GraphRunState {
  TaskGraph* graph = nullptr;
  // Cached graph->NumTasks(): the final done increment releases the caller
  // to destroy the graph, so nothing may dereference `graph` after it.
  int num_tasks = 0;
  std::shared_ptr<QueryCounters> counters;
  int age_boost = 0;  // AgingBoost of the owning query's admission wait
  std::vector<std::atomic<int>> pending;
  std::atomic<int> done{0};
  std::mutex m;
  std::condition_variable cv;
  explicit GraphRunState(size_t n) : pending(n) {}
};

TaskScheduler::TaskScheduler(int threads)
    : TaskScheduler(Options{threads, 0}) {}

TaskScheduler::TaskScheduler(const Options& options)
    : threads_(options.threads),
      worker0_start_delay_ms_(options.worker0_start_delay_ms) {
  GYO_CHECK_MSG(threads_ >= 1, "scheduler needs at least one thread, got %d",
                threads_);
  deques_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    deques_.push_back(std::make_unique<WorkerDeque>());
  }
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int TaskScheduler::CurrentWorkerIndex() const {
  return tls_worker.scheduler == this ? tls_worker.index : -1;
}

void TaskScheduler::Enqueue(int priority, std::function<void()> fn,
                            int worker,
                            const std::shared_ptr<QueryCounters>& counters) {
  Job job{std::move(fn), counters};
  // Count the job before it becomes poppable so the idle-sleep predicate
  // (jobs_ > 0) never reads 0 while a pushed job is visible in some queue.
  jobs_.fetch_add(1, std::memory_order_release);
  if (worker >= 0) {
    PushDeque(worker, priority, std::move(job));
  } else {
    PushOverflow(priority, std::move(job));
  }
  queue_cv_.notify_one();
}

void TaskScheduler::PushDeque(int worker, int priority, Job job) {
  WorkerDeque& d = *deques_[static_cast<size_t>(worker)];
  std::lock_guard<std::mutex> lock(d.mu);
  d.buckets[priority].push_back(std::move(job));
  d.top.store(d.buckets.begin()->first, std::memory_order_relaxed);
}

void TaskScheduler::PushOverflow(int priority, Job job) {
  std::lock_guard<std::mutex> lock(mu_);
  overflow_[priority].push_back(std::move(job));
  overflow_top_.store(overflow_.begin()->first, std::memory_order_relaxed);
}

bool TaskScheduler::PopOwn(int self, Job* out) {
  WorkerDeque& d = *deques_[static_cast<size_t>(self)];
  std::lock_guard<std::mutex> lock(d.mu);
  if (d.buckets.empty()) return false;
  std::deque<Job>& bucket = d.buckets.begin()->second;
  *out = std::move(bucket.back());
  bucket.pop_back();
  if (bucket.empty()) d.buckets.erase(d.buckets.begin());
  d.top.store(d.buckets.empty() ? kEmptyPriority : d.buckets.begin()->first,
              std::memory_order_relaxed);
  jobs_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

bool TaskScheduler::StealFrom(int victim, Job* out) {
  WorkerDeque& d = *deques_[static_cast<size_t>(victim)];
  std::lock_guard<std::mutex> lock(d.mu);
  if (d.buckets.empty()) return false;
  std::deque<Job>& bucket = d.buckets.begin()->second;
  *out = std::move(bucket.front());
  bucket.pop_front();
  if (bucket.empty()) d.buckets.erase(d.buckets.begin());
  d.top.store(d.buckets.empty() ? kEmptyPriority : d.buckets.begin()->first,
              std::memory_order_relaxed);
  jobs_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

bool TaskScheduler::PopOverflow(Job* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (overflow_.empty()) return false;
  std::deque<Job>& bucket = overflow_.begin()->second;
  *out = std::move(bucket.front());
  bucket.pop_front();
  if (bucket.empty()) overflow_.erase(overflow_.begin());
  overflow_top_.store(
      overflow_.empty() ? kEmptyPriority : overflow_.begin()->first,
      std::memory_order_relaxed);
  jobs_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

bool TaskScheduler::AcquireJob(int self, Job* out) {
  // Own deque first: LIFO, lock uncontended unless a thief is visiting.
  if (self >= 0 && PopOwn(self, out)) return true;
  const int nw = num_workers();
  for (;;) {
    // Rank sources by their priority hints: the shared overflow queue vs
    // every other worker's deque top. Overflow wins ties (external
    // admissions must not starve behind equal-priority local work); victims
    // tie-break in scan order starting at self + 1.
    int best_priority = overflow_top_.load(std::memory_order_relaxed);
    int best_victim = -1;  // -1 = overflow
    for (int k = 1; k <= nw; ++k) {
      const int v = self >= 0 ? (self + k) % nw : k - 1;
      if (v == self) continue;
      const int p =
          deques_[static_cast<size_t>(v)]->top.load(std::memory_order_relaxed);
      if (p > best_priority) {
        best_priority = p;
        best_victim = v;
      }
    }
    if (best_priority == kEmptyPriority) return false;
    if (best_victim < 0) {
      if (PopOverflow(out)) return true;
    } else if (StealFrom(best_victim, out)) {
      if (out->counters != nullptr) {
        out->counters->tasks_stolen.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
    // Stale hint — another thread drained that source first. Rescan: every
    // failed pop reflects a state change, so this terminates.
  }
}

void TaskScheduler::WorkerLoop(int index) {
  tls_worker = WorkerTls{this, index};
  if (index == 0 && worker0_start_delay_ms_ > 0) {
    // Steal-storm hook: park before the first pop so peers must steal the
    // work placed on this deque. Shutdown interrupts the park.
    std::unique_lock<std::mutex> lock(mu_);
    queue_cv_.wait_for(lock,
                       std::chrono::milliseconds(worker0_start_delay_ms_),
                       [this] { return stopping_; });
  }
  for (;;) {
    Job job;
    if (AcquireJob(index, &job)) {
      job.fn();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_ && jobs_.load(std::memory_order_acquire) == 0) return;
    // Deque pushes happen outside mu_, so a wakeup can race the sleep
    // decision; the timed wait bounds a lost notify to 1ms.
    queue_cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
      return stopping_ || jobs_.load(std::memory_order_acquire) > 0;
    });
  }
}

void TaskScheduler::EnqueueGraphTask(
    const std::shared_ptr<GraphRunState>& state, int id) {
  const int priority =
      state->graph->tasks_[static_cast<size_t>(id)].priority +
      state->age_boost;
  // Workers keep their spawn local; external threads (every thread of a
  // 1-thread pool) feed the overflow queue.
  Enqueue(
      priority, [this, state, id] { RunGraphTask(state, id); },
      CurrentWorkerIndex(), state->counters);
}

// Executes task `id`: run its fn, release successors whose dependency count
// hits zero, and notify the RunGraph caller after the final task. The job
// closures capture only `this` and the shared state, never RunGraph's stack.
void TaskScheduler::RunGraphTask(const std::shared_ptr<GraphRunState>& state,
                                 int id) {
  TaskGraph::Task& t = state->graph->tasks_[static_cast<size_t>(id)];
  t.fn();
  for (int succ : t.successors) {
    if (state->pending[static_cast<size_t>(succ)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      EnqueueGraphTask(state, succ);
    }
  }
  int finished = state->done.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (finished == state->num_tasks) {
    std::lock_guard<std::mutex> lock(state->m);
    state->cv.notify_all();
  }
}

void TaskScheduler::RunGraph(TaskGraph& graph,
                             std::shared_ptr<QueryCounters> counters,
                             double initial_age_seconds) {
  const int n = graph.NumTasks();
  if (n == 0) return;

  // Reject cyclic graphs up front (a cycle would hang the drain loop).
  {
    std::vector<int> pending(static_cast<size_t>(n));
    std::vector<int> ready;
    int seen = 0;
    for (int i = 0; i < n; ++i) {
      pending[static_cast<size_t>(i)] =
          graph.tasks_[static_cast<size_t>(i)].num_deps;
      if (pending[static_cast<size_t>(i)] == 0) ready.push_back(i);
    }
    while (!ready.empty()) {
      int v = ready.back();
      ready.pop_back();
      ++seen;
      for (int succ : graph.tasks_[static_cast<size_t>(v)].successors) {
        if (--pending[static_cast<size_t>(succ)] == 0) ready.push_back(succ);
      }
    }
    GYO_CHECK_MSG(seen == n, "task graph has a dependency cycle (%d of %d "
                  "tasks reachable)", seen, n);
  }

  auto state = std::make_shared<GraphRunState>(static_cast<size_t>(n));
  state->graph = &graph;
  state->num_tasks = n;
  state->counters = std::move(counters);
  state->age_boost = AgingBoost(initial_age_seconds);
  for (int i = 0; i < n; ++i) {
    state->pending[static_cast<size_t>(i)].store(
        graph.tasks_[static_cast<size_t>(i)].num_deps,
        std::memory_order_relaxed);
  }

  // Seed the initially-ready tasks in id order (deterministic execution
  // order for the threads == 1 inline drain: priority bucket first, then
  // seed order). This must test the static num_deps, not the live pending
  // counters: a worker may already be cascading through earlier seeds, and a
  // task it just released would read as pending == 0 here and get enqueued
  // twice.
  for (int i = 0; i < n; ++i) {
    if (graph.tasks_[static_cast<size_t>(i)].num_deps == 0) {
      EnqueueGraphTask(state, i);
    }
  }

  // The caller participates: acquire jobs (this graph's tasks, other
  // graphs' tasks, ParallelFor morsels — from the overflow queue or stolen
  // off worker deques) until every task of *this* graph has finished; sleep
  // briefly only when no work is visible but tasks are still in flight on
  // other threads.
  const int self = CurrentWorkerIndex();
  for (;;) {
    if (state->done.load(std::memory_order_acquire) == n) break;
    Job job;
    if (AcquireJob(self, &job)) {
      job.fn();
      continue;
    }
    std::unique_lock<std::mutex> lock(state->m);
    state->cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return state->done.load(std::memory_order_acquire) == n;
    });
  }
}

void TaskScheduler::ParallelFor(int64_t num_chunks,
                                const std::function<void(int64_t)>& body,
                                std::shared_ptr<QueryCounters> counters) {
  if (num_chunks <= 0) return;
  if (threads_ == 1 || num_chunks == 1) {
    for (int64_t c = 0; c < num_chunks; ++c) body(c);
    return;
  }

  // Morsel dispatch: an atomic claim counter shared by the caller and up to
  // threads() - 1 queued helper jobs. The caller claims chunks too, so the
  // loop completes even when every worker is busy elsewhere; a helper that
  // runs after all chunks are claimed exits immediately (it keeps the state
  // alive via shared_ptr, so late execution is harmless). `body` is only
  // dereferenced for a successfully claimed chunk, and the caller blocks
  // until all claimed chunks are done, so the pointer never dangles.
  struct PFState {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    int64_t chunks = 0;
    const std::function<void(int64_t)>* body = nullptr;
    std::mutex m;
    std::condition_variable cv;
  };
  auto state = std::make_shared<PFState>();
  state->chunks = num_chunks;
  state->body = &body;

  auto claim_loop = [](PFState* s) {
    for (;;) {
      int64_t c = s->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= s->chunks) break;
      (*s->body)(c);
      s->done.fetch_add(1, std::memory_order_acq_rel);
    }
    // Wake the caller in case this participant ran the final chunk. Taking
    // the lock orders the wakeup after the caller's predicate check.
    std::lock_guard<std::mutex> lock(s->m);
    s->cv.notify_all();
  };

  // The helpers sit on one deque and spread by stealing: the forking
  // worker's own, or a rotating worker's when the fork comes from outside
  // the pool, so an external fork reaches the pool the way a worker's does.
  int home = CurrentWorkerIndex();
  if (home < 0) {
    home = static_cast<int>(next_home_.fetch_add(1, std::memory_order_relaxed) %
                            static_cast<unsigned>(num_workers()));
  }
  const int64_t helpers =
      std::min<int64_t>(static_cast<int64_t>(threads_) - 1, num_chunks - 1);
  for (int64_t h = 0; h < helpers; ++h) {
    std::shared_ptr<PFState> st = state;
    Enqueue(
        kMorselPriority, [st, claim_loop] { claim_loop(st.get()); }, home,
        counters);
  }

  claim_loop(state.get());

  // Every chunk is claimed by now (the caller's loop exits only on counter
  // exhaustion); wait for helpers to finish their in-flight chunks.
  std::unique_lock<std::mutex> lock(state->m);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == num_chunks;
  });
}

}  // namespace exec
}  // namespace gyo
