// ExecutorPool: admission cap under heavy simultaneous submission,
// round-robin fairness across submitters, pool reuse across sequential
// queries, concurrent queries returning bit-identical results to serial,
// per-query stats, GYO_EXEC_THREADS resolution, and the morsel auto-tuning
// formula. These run in the CI ThreadSanitizer suite.

#include "exec/executor_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/physical_plan.h"
#include "gtest/gtest.h"
#include "rel/ops.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/generators.h"
#include "util/rng.h"

namespace gyo {
namespace exec {
namespace {

std::vector<Relation> MakeUR(const DatabaseSchema& d, int rows, int domain,
                             uint64_t seed) {
  Rng rng(seed);
  Relation universal = RandomUniversal(d.Universe(), rows, domain, rng);
  return ProjectDatabase(universal, d);
}

ExecutorPool::Options PoolOptions(int threads, int max_concurrent) {
  ExecutorPool::Options options;
  options.threads = threads;
  options.max_concurrent_queries = max_concurrent;
  return options;
}

TEST(ExecutorPoolTest, ResolveThreadsPrecedence) {
  // Explicit request wins outright.
  EXPECT_EQ(ExecutorPool::ResolveThreads(5), 5);
  // GYO_EXEC_THREADS sizes the default.
  ASSERT_EQ(setenv("GYO_EXEC_THREADS", "3", 1), 0);
  EXPECT_EQ(ExecutorPool::ResolveThreads(0), 3);
  EXPECT_EQ(ExecutorPool::ResolveThreads(7), 7);
  // Garbage values fall through to hardware_concurrency (>= 1).
  ASSERT_EQ(setenv("GYO_EXEC_THREADS", "bogus", 1), 0);
  EXPECT_GE(ExecutorPool::ResolveThreads(0), 1);
  ASSERT_EQ(unsetenv("GYO_EXEC_THREADS"), 0);
  EXPECT_GE(ExecutorPool::ResolveThreads(0), 1);
}

TEST(ExecutorPoolTest, OptionsResolveToPoolShape) {
  ExecutorPool pool(PoolOptions(3, 2));
  EXPECT_EQ(pool.threads(), 3);
  EXPECT_EQ(pool.max_concurrent_queries(), 2);
  // Cap defaults to the thread count.
  ExecutorPool defaulted(PoolOptions(4, 0));
  EXPECT_EQ(defaulted.max_concurrent_queries(), 4);
}

TEST(ExecutorPoolTest, AdmissionCapRespectedUnder100Submissions) {
  constexpr int kCap = 3;
  constexpr int kSubmissions = 100;
  ExecutorPool pool(PoolOptions(2, kCap));
  std::atomic<int> running{0};
  std::atomic<int> high_water{0};
  std::vector<std::thread> clients;
  clients.reserve(kSubmissions);
  for (int i = 0; i < kSubmissions; ++i) {
    clients.emplace_back([&, i] {
      ExecutorPool::Admission admission =
          pool.Admit(static_cast<uint64_t>(i % 7));
      const int now = running.fetch_add(1, std::memory_order_acq_rel) + 1;
      int seen = high_water.load(std::memory_order_relaxed);
      while (now > seen &&
             !high_water.compare_exchange_weak(seen, now,
                                               std::memory_order_relaxed)) {
      }
      // Hold the slot long enough for overlap to be observable.
      std::this_thread::yield();
      running.fetch_sub(1, std::memory_order_acq_rel);
      QueryStats stats = admission.Finish();
      EXPECT_GE(stats.queue_wait_seconds, 0.0);
      EXPECT_GE(stats.run_time_seconds, 0.0);
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_LE(high_water.load(), kCap);
  EXPECT_GE(high_water.load(), 1);
  EXPECT_EQ(pool.running_queries(), 0);
  EXPECT_EQ(pool.waiting_queries(), 0);
}

TEST(ExecutorPoolTest, RoundRobinFairnessAcrossSubmitters) {
  // Cap 1, slot held; submitter A queues three queries, then submitter B
  // queues one. Round-robin must serve A1, B1, A2, A3 — B is not starved
  // behind A's backlog.
  ExecutorPool pool(PoolOptions(1, 1));
  auto* held = new ExecutorPool::Admission(pool.Admit(0));

  std::mutex order_mu;
  std::vector<std::string> admitted_order;
  std::vector<std::thread> waiters;
  auto spawn_waiter = [&](uint64_t submitter, const std::string& label) {
    const int already_waiting = pool.waiting_queries();
    waiters.emplace_back([&pool, &order_mu, &admitted_order, submitter,
                          label] {
      ExecutorPool::Admission admission = pool.Admit(submitter);
      std::lock_guard<std::mutex> lock(order_mu);
      admitted_order.push_back(label);
    });
    // Arrival order is part of the contract under test: wait until this
    // waiter is actually queued before spawning the next.
    while (pool.waiting_queries() <= already_waiting) {
      std::this_thread::yield();
    }
  };
  spawn_waiter(1, "A1");
  spawn_waiter(1, "A2");
  spawn_waiter(1, "A3");
  spawn_waiter(2, "B1");

  delete held;  // release the slot; the four waiters drain one at a time
  for (std::thread& w : waiters) w.join();
  EXPECT_EQ(admitted_order,
            (std::vector<std::string>{"A1", "B1", "A2", "A3"}));
}

// A client that admits on its own thread, records its label, then holds the
// slot until Release() is called.
class HoldingClient {
 public:
  HoldingClient(ExecutorPool& pool, uint64_t submitter, std::string label,
                std::vector<std::string>& order, std::mutex& order_mu)
      : thread_([this, &pool, submitter, label, &order, &order_mu] {
          ExecutorPool::Admission admission = pool.Admit(submitter);
          {
            std::lock_guard<std::mutex> lock(order_mu);
            order.push_back(label);
          }
          admitted_.store(true, std::memory_order_release);
          while (!release_.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }) {}
  ~HoldingClient() { thread_.join(); }

  void WaitAdmitted() {
    while (!admitted_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  void Release() { release_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> admitted_{false};
  std::atomic<bool> release_{false};
  std::thread thread_;
};

TEST(ExecutorPoolTest, FairnessSurvivesDrainAndRequeue) {
  // A submitter whose queue drains and then refills must re-enter the
  // round-robin ring exactly once: across repeated drain/requeue cycles the
  // admission order stays a strict A/B alternation (a duplicated ring entry
  // would eventually hand A two turns per cycle).
  ExecutorPool pool(PoolOptions(1, 1));
  std::mutex order_mu;
  std::vector<std::string> order;
  auto wait_for_waiting = [&pool](int n) {
    while (pool.waiting_queries() < n) std::this_thread::yield();
  };

  auto* held = new ExecutorPool::Admission(pool.Admit(7));
  HoldingClient a1(pool, 1, "A1", order, order_mu);
  wait_for_waiting(1);
  delete held;  // A1 admitted; submitter 1's queue drains to empty
  a1.WaitAdmitted();
  HoldingClient b1(pool, 2, "B1", order, order_mu);
  wait_for_waiting(1);
  HoldingClient a2(pool, 1, "A2", order, order_mu);  // submitter 1 requeues
  wait_for_waiting(2);
  a1.Release();  // round-robin: B's first turn outranks A's backlog
  b1.WaitAdmitted();
  HoldingClient a3(pool, 1, "A3", order, order_mu);
  wait_for_waiting(2);
  b1.Release();
  a2.WaitAdmitted();
  HoldingClient b2(pool, 2, "B2", order, order_mu);  // submitter 2 requeues
  wait_for_waiting(2);
  a2.Release();
  b2.WaitAdmitted();
  b2.Release();
  a3.WaitAdmitted();
  a3.Release();
  EXPECT_EQ(order,
            (std::vector<std::string>{"A1", "B1", "A2", "B2", "A3"}));
}

TEST(ExecutorPoolTest, PerSubmitterWaitingQueueDepth) {
  // waiting_queries(submitter) reports one fairness class's backlog — the
  // queue-depth observable a backpressure policy would shed on (and what
  // the CLIs print in their pool status line).
  ExecutorPool pool(PoolOptions(1, 1));
  std::mutex order_mu;
  std::vector<std::string> order;
  auto wait_for_waiting = [&pool](int n) {
    while (pool.waiting_queries() < n) std::this_thread::yield();
  };

  auto* held = new ExecutorPool::Admission(pool.Admit(0));
  EXPECT_EQ(pool.waiting_queries(7), 0);
  HoldingClient a1(pool, 7, "A1", order, order_mu);
  wait_for_waiting(1);
  HoldingClient a2(pool, 7, "A2", order, order_mu);
  wait_for_waiting(2);
  HoldingClient b1(pool, 9, "B1", order, order_mu);
  wait_for_waiting(3);
  EXPECT_EQ(pool.waiting_queries(7), 2);
  EXPECT_EQ(pool.waiting_queries(9), 1);
  EXPECT_EQ(pool.waiting_queries(5), 0);  // a class nobody queued in
  EXPECT_EQ(pool.waiting_queries(), 3);

  delete held;  // round-robin drain: A1, then B1, then A2
  a1.WaitAdmitted();
  EXPECT_EQ(pool.waiting_queries(7), 1);
  a1.Release();
  b1.WaitAdmitted();
  EXPECT_EQ(pool.waiting_queries(9), 0);
  b1.Release();
  a2.WaitAdmitted();
  EXPECT_EQ(pool.waiting_queries(7), 0);
  a2.Release();
}

TEST(ExecutorPoolTest, PoolReusedAcrossSequentialQueries) {
  DatabaseSchema d = PathSchema(8);
  AttrSet x{0, 7};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 200, 16 * 200, 99);
  std::vector<Relation> serial = p.Execute(states);

  ExecutorPool pool(PoolOptions(4, 2));
  ExecContext ctx;
  ctx.threads = pool.threads();
  ctx.pool = &pool;
  ctx.morsel_rows = 16;  // force morsel splitting on small data
  for (int round = 0; round < 20; ++round) {
    std::vector<Relation> parallel = Execute(p, states, ctx);
    ASSERT_EQ(serial.size(), parallel.size()) << "round " << round;
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(serial[i].IdenticalTo(parallel[i]))
          << "round " << round << " state " << i;
    }
    ASSERT_EQ(pool.running_queries(), 0) << "round " << round;
  }
}

TEST(ExecutorPoolTest, ConcurrentQueriesBitIdenticalToSerial) {
  // Eight clients push deterministic queries through one shared 4-thread
  // pool capped at 2 concurrent queries; every result must be bit-identical
  // (arena, row order, canonical flag) to the serial engine's.
  DatabaseSchema d = PathSchema(10);
  AttrSet x{0, 9};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 300, 16 * 300, 7);
  Program::Stats serial_stats;
  std::vector<Relation> serial = p.ExecuteWithStats(states, &serial_stats);

  ExecutorPool pool(PoolOptions(4, 2));
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ExecContext ctx;
      ctx.threads = pool.threads();
      ctx.pool = &pool;
      ctx.morsel_rows = 16;
      ctx.submitter = static_cast<uint64_t>(c);
      QueryStats query_stats;
      ctx.query_stats = &query_stats;
      Program::Stats stats;
      std::vector<Relation> parallel = Execute(p, states, ctx, &stats);
      if (parallel.size() != serial.size()) {
        mismatches.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < serial.size(); ++i) {
        if (!serial[i].IdenticalTo(parallel[i])) {
          mismatches.fetch_add(1);
          return;
        }
      }
      if (stats.result_rows != serial_stats.result_rows ||
          stats.max_intermediate_rows != serial_stats.max_intermediate_rows ||
          stats.total_rows_produced != serial_stats.total_rows_produced) {
        mismatches.fetch_add(1);
      }
      EXPECT_EQ(query_stats.tasks, p.NumStatements());
      EXPECT_GT(query_stats.run_time_seconds, 0.0);
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pool.running_queries(), 0);
  EXPECT_EQ(pool.waiting_queries(), 0);
}

TEST(ExecutorPoolTest, QueryStatsCountMorsels) {
  // morsel_rows = 16 over 300-row relations forces morsel splitting, so a
  // parallel query must report a positive morsel count; the serial engine
  // reports zero.
  DatabaseSchema d = PathSchema(6);
  AttrSet x{0, 5};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 300, 16 * 300, 21);

  ExecutorPool pool(PoolOptions(4, 2));
  ExecContext ctx;
  ctx.threads = pool.threads();
  ctx.pool = &pool;
  ctx.morsel_rows = 16;
  QueryStats parallel_stats;
  ctx.query_stats = &parallel_stats;
  Execute(p, states, ctx);
  EXPECT_EQ(parallel_stats.tasks, p.NumStatements());
  EXPECT_GT(parallel_stats.morsels, 0);

  ExecContext serial_ctx;
  QueryStats serial_stats;
  serial_ctx.query_stats = &serial_stats;
  Execute(p, states, serial_ctx);
  EXPECT_EQ(serial_stats.tasks, p.NumStatements());
  EXPECT_EQ(serial_stats.morsels, 0);
  EXPECT_EQ(serial_stats.queue_wait_seconds, 0.0);
}

TEST(ExecutorPoolTest, QueueDepthAtAdmitReported) {
  // queue_depth_at_admit is the backlog a query SAW on arrival: 0 on a free
  // slot, and the number of already-queued queries otherwise.
  ExecutorPool pool(PoolOptions(1, 1));
  auto* held = new ExecutorPool::Admission(pool.Admit(0));
  EXPECT_EQ(held->Finish().queue_depth_at_admit, 0);

  std::atomic<int64_t> depth_b{-1};
  std::atomic<int64_t> depth_c{-1};
  std::thread b([&] {
    ExecutorPool::Admission admission = pool.Admit(1);
    depth_b.store(admission.Finish().queue_depth_at_admit);
  });
  while (pool.waiting_queries() < 1) std::this_thread::yield();
  std::thread c([&] {
    ExecutorPool::Admission admission = pool.Admit(2);
    depth_c.store(admission.Finish().queue_depth_at_admit);
  });
  while (pool.waiting_queries() < 2) std::this_thread::yield();

  delete held;  // b admitted now; c admitted when b's slot releases
  b.join();
  c.join();
  EXPECT_EQ(depth_b.load(), 0);  // nobody was queued when b arrived
  EXPECT_EQ(depth_c.load(), 1);  // b was already waiting when c arrived
}

// --- Cross-query priority aging (satellite): a query that waited in the
// admission queue gets a bounded priority boost on every task, so a deep
// plan admitted earlier cannot starve a long-queued short query's tail. ---

TEST(PriorityAgingTest, AgedGraphOutranksEqualBasePriority) {
  // Two external threads share a scheduler whose only worker is parked
  // (steal-storm hook), so the drain order of the shared overflow queue is
  // fully deterministic. Thread H1's graph holds the pool in a gate task and
  // leaves a base-priority-1 task ("A") queued; thread H2 then submits a
  // base-priority-1 task ("B") with a large admission age. The aging boost
  // must let B jump A; without it, FIFO runs A first.
  for (bool aged : {true, false}) {
    TaskScheduler::Options options;
    options.threads = 2;
    options.worker0_start_delay_ms = 5000;  // interruptible at shutdown
    TaskScheduler pool(options);

    std::mutex order_mu;
    std::vector<std::string> order;
    auto record = [&](const char* label) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(label);
    };

    std::atomic<bool> gate_entered{false};
    std::atomic<bool> gate_release{false};
    TaskGraph a;
    a.AddTask(
        [&] {
          gate_entered.store(true, std::memory_order_release);
          while (!gate_release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        },
        100);  // H1 drains this first and blocks inside it
    a.AddTask([&] { record("A"); }, 1);
    std::thread h1([&] { pool.RunGraph(a); });
    while (!gate_entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }

    // "A" (priority 1) is queued; H1 is pinned in the gate; the worker is
    // parked. H2's task has the same base priority, boosted by its age.
    TaskGraph b;
    b.AddTask([&] { record("B"); }, 1);
    auto stats = std::make_shared<QueryCounters>();
    const double age =
        aged ? (TaskScheduler::kMaxAgingBoost + 1) *
                   TaskScheduler::kAgingQuantumSeconds
             : 0.0;
    std::thread h2([&] { pool.RunGraph(b, stats, age); });
    h2.join();
    gate_release.store(true, std::memory_order_release);
    h1.join();

    const std::vector<std::string> want =
        aged ? std::vector<std::string>{"B", "A"}
             : std::vector<std::string>{"A", "B"};
    EXPECT_EQ(order, want) << "aged=" << aged;
  }
}

TEST(ExecutorPoolTest, GlobalPoolServesDefaultContext) {
  // ExecContext{threads != 1, pool == nullptr} routes through Global();
  // results still match the serial engine bit for bit.
  DatabaseSchema d = PathSchema(5);
  AttrSet x{0, 4};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 120, 16 * 120, 3);
  std::vector<Relation> serial = p.Execute(states);

  ExecContext ctx;
  ctx.threads = 2;
  ctx.morsel_rows = 16;
  std::vector<Relation> parallel = Execute(p, states, ctx);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].IdenticalTo(parallel[i])) << "state " << i;
  }
  EXPECT_GE(ExecutorPool::Global().threads(), 1);
}

// --- Morsel-size auto-tuning (satellite): the formula is part of the
// contract — a morsel of `arity` int64 values targets kMorselTargetBytes,
// clamped to [kMinMorselRows, kMaxMorselRows]. ---

TEST(AutoMorselRowsTest, FormulaPinned) {
  // 256 KiB / (arity * 8 bytes), clamped.
  EXPECT_EQ(AutoMorselRows(1), 32768);
  EXPECT_EQ(AutoMorselRows(2), 16384);
  EXPECT_EQ(AutoMorselRows(3), 10922);
  EXPECT_EQ(AutoMorselRows(4), 8192);
  EXPECT_EQ(AutoMorselRows(16), 2048);
  // Degenerate arity 0 (nullary relations) behaves like arity 1.
  EXPECT_EQ(AutoMorselRows(0), 32768);
  // Huge arities clamp to the dispatch-amortization floor.
  EXPECT_EQ(AutoMorselRows(1000), kMinMorselRows);
  // Every arity stays within the clamp.
  for (int arity = 0; arity <= 64; ++arity) {
    const int64_t rows = AutoMorselRows(arity);
    EXPECT_GE(rows, kMinMorselRows) << "arity " << arity;
    EXPECT_LE(rows, kMaxMorselRows) << "arity " << arity;
  }
}

TEST(AutoMorselRowsTest, ZeroMorselRowsAutoTunesAndMatchesSerial) {
  // The default context (morsel_rows = 0) must auto-tune, not die, and stay
  // bit-identical to serial.
  DatabaseSchema d = PathSchema(6);
  AttrSet x{0, 5};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 150, 16 * 150, 31);
  std::vector<Relation> serial = p.Execute(states);

  ExecutorPool pool(PoolOptions(4, 2));
  ExecContext ctx;
  ctx.threads = pool.threads();
  ctx.pool = &pool;
  ASSERT_EQ(ctx.morsel_rows, 0);
  std::vector<Relation> parallel = Execute(p, states, ctx);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].IdenticalTo(parallel[i])) << "state " << i;
  }
}

// --------------------------------------------------------------------------
// TryAdmit: the shedding admission path behind gyo_serve. Deterministic by
// construction — a held Admission occupies the only slot, so a deadline or
// backlog rejection is guaranteed, not a timing accident.

TEST(ExecutorPoolTryAdmitTest, FastPathAdmitsOnFreeSlot) {
  ExecutorPool pool(PoolOptions(2, 1));
  ExecutorPool::AdmitResult r = pool.TryAdmit(/*submitter=*/5);
  ASSERT_EQ(r.status, ExecutorPool::AdmitStatus::kAdmitted);
  ASSERT_NE(r.admission, nullptr);
  EXPECT_EQ(r.queue_wait_seconds, 0.0);

  ExecutorPool::PoolStatus status = pool.Status();
  EXPECT_EQ(status.running, 1);
  EXPECT_EQ(status.waiting, 0);
  ASSERT_EQ(status.submitters.size(), 1u);
  EXPECT_EQ(status.submitters[0].id, 5u);
  EXPECT_EQ(status.submitters[0].running, 1);
  EXPECT_EQ(status.submitters[0].waiting, 0);

  r.admission.reset();
  status = pool.Status();
  EXPECT_EQ(status.running, 0);
  EXPECT_TRUE(status.submitters.empty());
}

TEST(ExecutorPoolTryAdmitTest, DeadlineShedsWhileSlotHeld) {
  ExecutorPool pool(PoolOptions(2, 1));
  ExecutorPool::AdmitResult holder = pool.TryAdmit(1);
  ASSERT_EQ(holder.status, ExecutorPool::AdmitStatus::kAdmitted);

  ExecutorPool::AdmitResult shed = pool.TryAdmit(2, /*max_queue_wait=*/0.02);
  EXPECT_EQ(shed.status, ExecutorPool::AdmitStatus::kDeadlineExceeded);
  EXPECT_EQ(shed.admission, nullptr);
  EXPECT_GE(shed.queue_wait_seconds, 0.02);
  // The shed waiter left no residue: no waiting entry, no fairness-ring slot.
  EXPECT_EQ(pool.waiting_queries(), 0);

  holder.admission.reset();
  ExecutorPool::AdmitResult after = pool.TryAdmit(2, 0.02);
  EXPECT_EQ(after.status, ExecutorPool::AdmitStatus::kAdmitted);
}

TEST(ExecutorPoolTryAdmitTest, PoolDefaultDeadlineApplies) {
  ExecutorPool::Options options = PoolOptions(2, 1);
  options.max_queue_wait_seconds = 0.02;
  ExecutorPool pool(options);
  ExecutorPool::AdmitResult holder = pool.TryAdmit(1);
  ASSERT_EQ(holder.status, ExecutorPool::AdmitStatus::kAdmitted);

  // -1 (the default argument) inherits the pool's configured wait bound.
  ExecutorPool::AdmitResult shed = pool.TryAdmit(2);
  EXPECT_EQ(shed.status, ExecutorPool::AdmitStatus::kDeadlineExceeded);

  // An explicit 0 waits without limit: release concurrently and the waiter
  // must be admitted rather than shed.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    holder.admission.reset();
  });
  ExecutorPool::AdmitResult waited = pool.TryAdmit(2, /*max_queue_wait=*/0.0);
  releaser.join();
  EXPECT_EQ(waited.status, ExecutorPool::AdmitStatus::kAdmitted);
  EXPECT_GT(waited.queue_wait_seconds, 0.0);
}

TEST(ExecutorPoolTryAdmitTest, BacklogBoundRejectsInConstantTime) {
  ExecutorPool::Options options = PoolOptions(2, 1);
  options.max_waiting_per_submitter = 1;
  ExecutorPool pool(options);
  ExecutorPool::AdmitResult holder = pool.TryAdmit(1);
  ASSERT_EQ(holder.status, ExecutorPool::AdmitStatus::kAdmitted);

  // One waiter of submitter 7 occupies its whole backlog quota.
  ExecutorPool::AdmitResult waiter_result;
  std::thread waiter([&] { waiter_result = pool.TryAdmit(7, 0.0); });
  while (pool.waiting_queries(7) != 1) std::this_thread::yield();

  ExecutorPool::AdmitResult rejected = pool.TryAdmit(7, 0.0);
  EXPECT_EQ(rejected.status, ExecutorPool::AdmitStatus::kBacklogFull);
  EXPECT_EQ(rejected.admission, nullptr);
  EXPECT_EQ(rejected.waiting_for_submitter, 1);
  // A different submitter is not throttled by 7's backlog.
  ExecutorPool::PoolStatus status = pool.Status();
  EXPECT_EQ(status.waiting, 1);

  holder.admission.reset();
  waiter.join();
  EXPECT_EQ(waiter_result.status, ExecutorPool::AdmitStatus::kAdmitted);
  waiter_result.admission.reset();
}

TEST(ExecutorPoolTryAdmitTest, ShedWaitersDoNotDisturbFairnessRing) {
  // Submitters 2 and 3 queue behind a held slot; 2's waiter sheds on its
  // deadline. The slot release must then serve 3 — the ring survived the
  // mid-queue removal.
  ExecutorPool pool(PoolOptions(2, 1));
  ExecutorPool::AdmitResult holder = pool.TryAdmit(1);
  ASSERT_EQ(holder.status, ExecutorPool::AdmitStatus::kAdmitted);

  ExecutorPool::AdmitResult shed_result, kept_result;
  std::thread shed_thread([&] { shed_result = pool.TryAdmit(2, 0.02); });
  while (pool.waiting_queries(2) != 1) std::this_thread::yield();
  std::thread kept_thread([&] { kept_result = pool.TryAdmit(3, 0.0); });
  while (pool.waiting_queries(3) != 1) std::this_thread::yield();

  shed_thread.join();
  EXPECT_EQ(shed_result.status, ExecutorPool::AdmitStatus::kDeadlineExceeded);
  EXPECT_EQ(pool.waiting_queries(), 1);

  holder.admission.reset();
  kept_thread.join();
  EXPECT_EQ(kept_result.status, ExecutorPool::AdmitStatus::kAdmitted);
  kept_result.admission.reset();
}

TEST(ExecutorPoolTryAdmitTest, AdmittedQueryExecutesIdenticalToSerial) {
  // The pre-admitted execution path (ExecuteAdmitted) — what gyo_serve runs
  // after a successful TryAdmit — stays bit-identical to serial.
  DatabaseSchema d = PathSchema(5);
  AttrSet x{0, 4};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 200, 24, 7);
  std::vector<Relation> serial = p.Execute(states);

  ExecutorPool pool(PoolOptions(4, 2));
  ExecutorPool::AdmitResult r = pool.TryAdmit(9);
  ASSERT_EQ(r.status, ExecutorPool::AdmitStatus::kAdmitted);
  ExecContext ctx;
  QueryStats stats;
  ctx.query_stats = &stats;
  std::vector<Relation> admitted =
      ExecuteAdmitted(p, states, ctx, *r.admission);
  r.admission.reset();

  ASSERT_EQ(serial.size(), admitted.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].IdenticalTo(admitted[i])) << "state " << i;
  }
  EXPECT_EQ(stats.tasks, p.NumStatements());
}

}  // namespace
}  // namespace exec
}  // namespace gyo
