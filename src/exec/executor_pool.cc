#include "exec/executor_pool.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <thread>

#include "util/check.h"

namespace gyo {
namespace exec {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Global-pool registration. A plain pointer guarded by a function-local
// mutex: the pool itself is leaked on purpose (see Global() contract) so a
// query running on a detached thread at exit never races a static
// destructor.
std::mutex& GlobalMu() {
  static std::mutex mu;
  return mu;
}

ExecutorPool*& GlobalSlot() {
  static ExecutorPool* pool = nullptr;
  return pool;
}

ExecutorPool::Options& PendingGlobalOptions() {
  static ExecutorPool::Options options;
  return options;
}

}  // namespace

int ExecutorPool::ResolveThreads(int requested) {
  if (requested >= 1) return requested;
  if (const char* env = std::getenv("GYO_EXEC_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ExecutorPool::ExecutorPool(const Options& options)
    : scheduler_(TaskScheduler::Options{ResolveThreads(options.threads),
                                        options.worker0_start_delay_ms}),
      max_concurrent_(options.max_concurrent_queries >= 1
                          ? options.max_concurrent_queries
                          : scheduler_.threads()),
      max_queue_wait_seconds_(options.max_queue_wait_seconds),
      max_waiting_per_submitter_(options.max_waiting_per_submitter) {}

ExecutorPool::~ExecutorPool() {
  std::lock_guard<std::mutex> lock(mu_);
  GYO_CHECK_MSG(running_ == 0 && num_waiting_ == 0,
                "ExecutorPool destroyed with %d running and %d waiting "
                "queries", running_, num_waiting_);
}

ExecutorPool& ExecutorPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalMu());
  ExecutorPool*& slot = GlobalSlot();
  if (slot == nullptr) slot = new ExecutorPool(PendingGlobalOptions());
  return *slot;
}

void ExecutorPool::ConfigureGlobal(const Options& options) {
  std::lock_guard<std::mutex> lock(GlobalMu());
  GYO_CHECK_MSG(GlobalSlot() == nullptr,
                "ConfigureGlobal called after the global pool was created");
  PendingGlobalOptions() = options;
}

int ExecutorPool::running_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

int ExecutorPool::waiting_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_waiting_;
}

int ExecutorPool::waiting_queries(uint64_t submitter) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = waiting_.find(submitter);
  return it == waiting_.end() ? 0 : static_cast<int>(it->second.size());
}

ExecutorPool::Admission ExecutorPool::Admit(uint64_t submitter) {
  const auto enqueued_at = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  // Queue pressure seen on arrival, before this query joins the queue.
  const int64_t depth = num_waiting_;
  // Fast path only when nobody is queued: a free slot must not let a
  // latecomer jump the round-robin ring.
  if (running_ < max_concurrent_ && num_waiting_ == 0) {
    ++running_;
    ++running_by_submitter_[submitter];
    lock.unlock();
    return Admission(this, submitter, 0.0, std::chrono::steady_clock::now(),
                     depth);
  }

  Waiter w;
  std::deque<Waiter*>& q = waiting_[submitter];
  if (q.empty()) rr_ring_.push_back(submitter);
  q.push_back(&w);
  ++num_waiting_;
  w.cv.wait(lock, [&] { return w.admitted; });  // Release() did the counts
  lock.unlock();
  const auto admitted_at = std::chrono::steady_clock::now();
  return Admission(this, submitter, SecondsSince(enqueued_at, admitted_at),
                   admitted_at, depth);
}

ExecutorPool::AdmitResult ExecutorPool::TryAdmit(
    uint64_t submitter, double max_queue_wait_seconds) {
  const double deadline_seconds = max_queue_wait_seconds < 0.0
                                      ? max_queue_wait_seconds_
                                      : max_queue_wait_seconds;
  const auto enqueued_at = std::chrono::steady_clock::now();
  AdmitResult result;
  std::unique_lock<std::mutex> lock(mu_);
  const int64_t depth = num_waiting_;
  if (running_ < max_concurrent_ && num_waiting_ == 0) {
    ++running_;
    ++running_by_submitter_[submitter];
    lock.unlock();
    result.admission.reset(new Admission(
        this, submitter, 0.0, std::chrono::steady_clock::now(), depth));
    return result;
  }

  // The query must wait: apply the backlog bound before joining the queue,
  // so an over-quota tenant is rejected in O(1) without pinning a waiter.
  std::deque<Waiter*>& q = waiting_[submitter];
  result.waiting_for_submitter = static_cast<int>(q.size());
  if (max_waiting_per_submitter_ > 0 &&
      static_cast<int>(q.size()) >= max_waiting_per_submitter_) {
    // q is at its bound (>= 1), so the operator[] above cannot have created
    // a stray empty-queue entry on this path.
    result.status = AdmitStatus::kBacklogFull;
    return result;
  }

  Waiter w;
  if (q.empty()) rr_ring_.push_back(submitter);
  q.push_back(&w);
  ++num_waiting_;
  if (deadline_seconds <= 0.0) {
    w.cv.wait(lock, [&] { return w.admitted; });
  } else {
    const auto deadline =
        enqueued_at + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(deadline_seconds));
    if (!w.cv.wait_until(lock, deadline, [&] { return w.admitted; })) {
      // Shed: still waiting at the deadline. The predicate was re-checked
      // under mu_, so Release() cannot be admitting us concurrently.
      RemoveWaiter(submitter, &w);
      result.status = AdmitStatus::kDeadlineExceeded;
      result.queue_wait_seconds =
          SecondsSince(enqueued_at, std::chrono::steady_clock::now());
      return result;
    }
  }
  lock.unlock();
  const auto admitted_at = std::chrono::steady_clock::now();
  result.queue_wait_seconds = SecondsSince(enqueued_at, admitted_at);
  result.admission.reset(new Admission(
      this, submitter, result.queue_wait_seconds, admitted_at, depth));
  return result;
}

void ExecutorPool::RemoveWaiter(uint64_t submitter, Waiter* w) {
  auto it = waiting_.find(submitter);
  GYO_CHECK_MSG(it != waiting_.end(), "shed waiter has no fairness queue");
  std::deque<Waiter*>& q = it->second;
  auto pos = std::find(q.begin(), q.end(), w);
  GYO_CHECK_MSG(pos != q.end(), "shed waiter missing from its queue");
  q.erase(pos);
  --num_waiting_;
  if (!q.empty()) return;
  waiting_.erase(it);
  auto ring = std::find(rr_ring_.begin(), rr_ring_.end(), submitter);
  GYO_CHECK_MSG(ring != rr_ring_.end(), "drained submitter missing from ring");
  const size_t index = static_cast<size_t>(ring - rr_ring_.begin());
  rr_ring_.erase(ring);
  // Keep rr_pos_ pointing at the same next-to-serve submitter.
  if (index < rr_pos_) --rr_pos_;
  if (rr_pos_ >= rr_ring_.size()) rr_pos_ = 0;
}

void ExecutorPool::Release(uint64_t submitter) {
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  auto run_it = running_by_submitter_.find(submitter);
  GYO_CHECK_MSG(run_it != running_by_submitter_.end(),
                "released query's submitter has no running count");
  if (--run_it->second == 0) running_by_submitter_.erase(run_it);
  // Serve the next waiter round-robin across submitters. Invariant: the
  // ring holds exactly the submitters with a non-empty queue (Admit pushes
  // on the empty -> non-empty transition, the erase below drops a submitter
  // the moment its queue drains), so a drain-and-requeue cycle cannot
  // accumulate duplicate ring entries and the ring/map stay bounded by the
  // number of distinct waiting submitters. The notify happens under mu_:
  // the Waiter lives on the admitted caller's stack and dies as soon as
  // that caller observes admitted == true, so signaling after unlocking
  // could dereference a dead waiter.
  if (rr_ring_.empty()) return;
  if (rr_pos_ >= rr_ring_.size()) rr_pos_ = 0;
  const uint64_t served = rr_ring_[rr_pos_];
  std::deque<Waiter*>& q = waiting_[served];
  Waiter* next = q.front();
  q.pop_front();
  if (q.empty()) {
    waiting_.erase(served);
    // The erase slides the next submitter into rr_pos_, so no advance.
    rr_ring_.erase(rr_ring_.begin() + static_cast<std::ptrdiff_t>(rr_pos_));
  } else {
    ++rr_pos_;  // the next release serves the next submitter
  }
  --num_waiting_;
  ++running_;
  // The slot changes hands under mu_, so the per-submitter running tallies
  // stay consistent with running_ at every observable instant.
  ++running_by_submitter_[served];
  next->admitted = true;
  next->cv.notify_one();
}

ExecutorPool::PoolStatus ExecutorPool::Status() const {
  PoolStatus status;
  status.threads = scheduler_.threads();
  status.max_concurrent_queries = max_concurrent_;
  std::lock_guard<std::mutex> lock(mu_);
  status.running = running_;
  status.waiting = num_waiting_;
  std::map<uint64_t, PoolStatus::Submitter> by_id;
  for (const auto& [id, count] : running_by_submitter_) {
    PoolStatus::Submitter& s = by_id[id];
    s.id = id;
    s.running = count;
  }
  for (const auto& [id, queue] : waiting_) {
    PoolStatus::Submitter& s = by_id[id];
    s.id = id;
    s.waiting = static_cast<int>(queue.size());
  }
  status.submitters.reserve(by_id.size());
  for (auto& [id, s] : by_id) status.submitters.push_back(s);
  return status;
}

QueryStats ExecutorPool::Admission::Finish() {
  if (!finished_) {
    finished_ = true;
    run_time_seconds_ =
        SecondsSince(admitted_at_, std::chrono::steady_clock::now());
  }
  QueryStats stats = counters_->Snapshot();
  stats.queue_wait_seconds = queue_wait_seconds_;
  stats.run_time_seconds = run_time_seconds_;
  return stats;
}

ExecutorPool::Admission::~Admission() {
  Finish();
  pool_->Release(submitter_);
}

}  // namespace exec
}  // namespace gyo
