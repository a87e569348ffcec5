// TaskScheduler / TaskGraph: dependency ordering, fan-in/fan-out DAGs, the
// morsel-style ParallelFor, and a many-tiny-tasks stress run. These are the
// concurrency-sensitive tests the CI ThreadSanitizer job focuses on.

#include "exec/task_scheduler.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace gyo {
namespace exec {
namespace {

TEST(TaskSchedulerTest, EmptyGraphRuns) {
  TaskScheduler pool(4);
  TaskGraph g;
  pool.RunGraph(g);  // must not hang
  EXPECT_EQ(g.NumTasks(), 0);
  EXPECT_EQ(g.CriticalPathLength(), 0);
}

TEST(TaskSchedulerTest, SingleThreadRunsInline) {
  TaskScheduler pool(1);
  EXPECT_EQ(pool.threads(), 1);
  TaskGraph g;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    g.AddTask([&order, i] { order.push_back(i); });
  }
  pool.RunGraph(g);
  // Independent tasks seeded in id order drain FIFO on one thread.
  std::vector<int> want(8);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(TaskSchedulerTest, DependenciesAreRespected) {
  for (int threads : {1, 2, 4, 8}) {
    TaskScheduler pool(threads);
    TaskGraph g;
    constexpr int kTasks = 200;
    std::vector<std::atomic<bool>> done(kTasks);
    std::vector<std::vector<int>> deps(kTasks);
    std::atomic<bool> violation{false};
    Rng rng(7);
    for (int i = 0; i < kTasks; ++i) {
      // Random fan-in from up to 3 earlier tasks.
      for (int k = 0; k < 3 && i > 0; ++k) {
        if (rng.Chance(0.5)) {
          deps[static_cast<size_t>(i)].push_back(
              static_cast<int>(rng.Below(static_cast<uint64_t>(i))));
        }
      }
      g.AddTask([&, i] {
        for (int d : deps[static_cast<size_t>(i)]) {
          if (!done[static_cast<size_t>(d)].load(std::memory_order_acquire)) {
            violation.store(true, std::memory_order_relaxed);
          }
        }
        done[static_cast<size_t>(i)].store(true, std::memory_order_release);
      });
    }
    for (int i = 0; i < kTasks; ++i) {
      for (int d : deps[static_cast<size_t>(i)]) g.AddDependency(i, d);
    }
    pool.RunGraph(g);
    EXPECT_FALSE(violation.load()) << "threads=" << threads;
    for (int i = 0; i < kTasks; ++i) {
      EXPECT_TRUE(done[static_cast<size_t>(i)].load());
    }
  }
}

TEST(TaskSchedulerTest, FanOutFanIn) {
  // Diamond: 1 source -> 500 middle -> 1 sink, a scheduler-bound shape.
  for (int threads : {1, 4}) {
    TaskScheduler pool(threads);
    TaskGraph g;
    std::atomic<int> middles_done{0};
    std::atomic<bool> source_done{false};
    std::atomic<int> sink_saw{-1};
    int source = g.AddTask([&] { source_done.store(true); });
    std::vector<int> middle;
    constexpr int kMiddle = 500;
    for (int i = 0; i < kMiddle; ++i) {
      middle.push_back(g.AddTask([&] {
        EXPECT_TRUE(source_done.load());
        middles_done.fetch_add(1, std::memory_order_acq_rel);
      }));
    }
    int sink = g.AddTask([&] { sink_saw.store(middles_done.load()); });
    for (int m : middle) {
      g.AddDependency(m, source);
      g.AddDependency(sink, m);
    }
    EXPECT_EQ(g.CriticalPathLength(), 3);
    pool.RunGraph(g);
    EXPECT_EQ(sink_saw.load(), kMiddle) << "threads=" << threads;
  }
}

TEST(TaskSchedulerTest, ManyTinyTasksStress) {
  // Scheduler-overhead stress: thousands of near-empty tasks in a layered
  // DAG (each layer depends on a few tasks of the previous one).
  for (int threads : {2, 8}) {
    TaskScheduler pool(threads);
    TaskGraph g;
    constexpr int kLayers = 50;
    constexpr int kWidth = 60;
    std::atomic<int> ran{0};
    std::vector<int> prev_layer;
    Rng rng(13);
    for (int layer = 0; layer < kLayers; ++layer) {
      std::vector<int> this_layer;
      for (int i = 0; i < kWidth; ++i) {
        this_layer.push_back(
            g.AddTask([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
      }
      if (!prev_layer.empty()) {
        for (int t : this_layer) {
          g.AddDependency(
              t, prev_layer[rng.Below(static_cast<uint64_t>(kWidth))]);
          g.AddDependency(
              t, prev_layer[rng.Below(static_cast<uint64_t>(kWidth))]);
        }
      }
      prev_layer = std::move(this_layer);
    }
    pool.RunGraph(g);
    EXPECT_EQ(ran.load(), kLayers * kWidth) << "threads=" << threads;
    EXPECT_EQ(g.CriticalPathLength(), kLayers);
  }
}

TEST(TaskSchedulerTest, DuplicateDependenciesCountOnce) {
  TaskScheduler pool(2);
  TaskGraph g;
  std::atomic<int> ran{0};
  int a = g.AddTask([&] { ran.fetch_add(1); });
  int b = g.AddTask([&] { ran.fetch_add(1); });
  g.AddDependency(b, a);
  g.AddDependency(b, a);  // duplicate edge must not deadlock b
  pool.RunGraph(g);
  EXPECT_EQ(ran.load(), 2);
}

TEST(TaskSchedulerTest, ParallelForCoversEveryChunkExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    TaskScheduler pool(threads);
    constexpr int64_t kChunks = 1000;
    std::vector<std::atomic<int>> hits(kChunks);
    pool.ParallelFor(kChunks, [&](int64_t c) {
      hits[static_cast<size_t>(c)].fetch_add(1, std::memory_order_relaxed);
    });
    for (int64_t c = 0; c < kChunks; ++c) {
      ASSERT_EQ(hits[static_cast<size_t>(c)].load(), 1)
          << "chunk " << c << " threads " << threads;
    }
  }
}

TEST(TaskSchedulerTest, ParallelForInsideGraphTask) {
  // The morsel pattern: operator tasks in a DAG fan their inner loop out on
  // the same pool. Two independent tasks each run a ParallelFor.
  for (int threads : {1, 4}) {
    TaskScheduler pool(threads);
    TaskGraph g;
    std::atomic<int64_t> sum{0};
    for (int t = 0; t < 2; ++t) {
      g.AddTask([&] {
        pool.ParallelFor(64, [&](int64_t c) {
          sum.fetch_add(c, std::memory_order_relaxed);
        });
      });
    }
    pool.RunGraph(g);
    EXPECT_EQ(sum.load(), 2 * (64 * 63 / 2)) << "threads=" << threads;
  }
}

TEST(TaskSchedulerTest, ParallelForZeroAndOneChunk) {
  TaskScheduler pool(4);
  int ran = 0;
  pool.ParallelFor(0, [&](int64_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  pool.ParallelFor(1, [&](int64_t c) {
    EXPECT_EQ(c, 0);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(TaskSchedulerTest, HigherPriorityTasksDispatchFirst) {
  // One thread, all tasks independent: the drain order is priority buckets
  // (highest first), FIFO within a bucket — the plan-level scheduling
  // contract (critical-path statements run before off-path ones).
  TaskScheduler pool(1);
  TaskGraph g;
  std::vector<int> order;
  g.AddTask([&order] { order.push_back(0); }, 0);
  g.AddTask([&order] { order.push_back(1); }, 5);
  g.AddTask([&order] { order.push_back(2); }, 1);
  g.AddTask([&order] { order.push_back(3); }, 5);
  pool.RunGraph(g);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0}));
}

TEST(TaskSchedulerTest, PriorityNeverOverridesDependencies) {
  // A low-priority task gates a high-priority one; the gate must still run
  // first at every thread count.
  for (int threads : {1, 4}) {
    TaskScheduler pool(threads);
    TaskGraph g;
    std::atomic<bool> gate_done{false};
    std::atomic<bool> violation{false};
    int gate = g.AddTask([&] { gate_done.store(true); }, 0);
    int urgent = g.AddTask(
        [&] {
          if (!gate_done.load()) violation.store(true);
        },
        100);
    g.AddDependency(urgent, gate);
    pool.RunGraph(g);
    EXPECT_FALSE(violation.load()) << "threads=" << threads;
  }
}

TEST(TaskSchedulerTest, IndependentGraphsRunConcurrently) {
  // Two external threads run separate graphs on one scheduler at the same
  // time — the multi-query shape the ExecutorPool drives. Graph-scoped
  // dependency counting must keep them independent and both must finish.
  TaskScheduler pool(4);
  constexpr int kRounds = 10;
  constexpr int kTasksPerGraph = 100;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ran_a{0};
    std::atomic<int> ran_b{0};
    auto run_chain = [&pool](std::atomic<int>& ran) {
      TaskGraph g;
      int prev = -1;
      for (int i = 0; i < kTasksPerGraph; ++i) {
        int t = g.AddTask([&ran] { ran.fetch_add(1); }, i % 3);
        if (prev >= 0) g.AddDependency(t, prev);
        prev = t;
      }
      pool.RunGraph(g);
    };
    std::thread other([&] { run_chain(ran_b); });
    run_chain(ran_a);
    other.join();
    ASSERT_EQ(ran_a.load(), kTasksPerGraph) << "round " << round;
    ASSERT_EQ(ran_b.load(), kTasksPerGraph) << "round " << round;
  }
}

TEST(TaskSchedulerTest, GraphsRunBackToBack) {
  TaskScheduler pool(4);
  for (int round = 0; round < 20; ++round) {
    TaskGraph g;
    std::atomic<int> ran{0};
    int a = g.AddTask([&] { ran.fetch_add(1); });
    int b = g.AddTask([&] { ran.fetch_add(1); });
    g.AddDependency(b, a);
    pool.RunGraph(g);
    ASSERT_EQ(ran.load(), 2) << "round " << round;
  }
}

TEST(TaskSchedulerTest, CurrentWorkerIndexIdentifiesThreads) {
  TaskScheduler pool(4);
  EXPECT_EQ(pool.num_workers(), 3);
  // The external calling thread is never a pool worker.
  EXPECT_EQ(pool.CurrentWorkerIndex(), -1);
  // Inside chunks, the executing thread is either the caller (-1) or a
  // worker in [0, num_workers()); every index must be in range.
  std::atomic<bool> bad_index{false};
  pool.ParallelFor(256, [&](int64_t) {
    const int w = pool.CurrentWorkerIndex();
    if (w < -1 || w >= pool.num_workers()) bad_index.store(true);
  });
  EXPECT_FALSE(bad_index.load());
  // A different pool never claims this pool's threads.
  TaskScheduler other(2);
  pool.ParallelFor(8, [&](int64_t) {
    if (other.CurrentWorkerIndex() != -1) bad_index.store(true);
  });
  EXPECT_FALSE(bad_index.load());
}

TEST(TaskSchedulerTest, StealStatsCountStolenTasks) {
  // A ParallelFor's helpers sit on one deque: the forking worker's own when
  // a worker runs the graph task, a rotating worker's when the caller does.
  // That deque's owner is busy claiming 1 ms chunks (or pops one helper and
  // then is), so the other threads must steal the rest.
  TaskScheduler pool(4);
  auto stats = std::make_shared<QueryCounters>();
  TaskGraph g;
  g.AddTask([&] {
    pool.ParallelFor(
        64,
        [&](int64_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        stats);
  });
  pool.RunGraph(g, stats, 0.0);
  EXPECT_GT(stats->tasks_stolen.load(), 0);
}

TEST(TaskSchedulerTest, AgingBoostFormula) {
  EXPECT_EQ(TaskScheduler::AgingBoost(0.0), 0);
  EXPECT_EQ(TaskScheduler::AgingBoost(-1.0), 0);
  // Below one quantum: no boost.
  EXPECT_EQ(TaskScheduler::AgingBoost(TaskScheduler::kAgingQuantumSeconds / 2),
            0);
  // One level per quantum of admission-queue wait.
  EXPECT_EQ(TaskScheduler::AgingBoost(TaskScheduler::kAgingQuantumSeconds), 1);
  EXPECT_EQ(
      TaskScheduler::AgingBoost(3.5 * TaskScheduler::kAgingQuantumSeconds), 3);
  // Capped: a very stale query cannot outrank morsels or leapfrog forever.
  EXPECT_EQ(TaskScheduler::AgingBoost(1e9), TaskScheduler::kMaxAgingBoost);
  EXPECT_EQ(TaskScheduler::AgedPriority(5, 1e9),
            5 + TaskScheduler::kMaxAgingBoost);
  EXPECT_EQ(TaskScheduler::AgedPriority(5, 0.0), 5);
}

}  // namespace
}  // namespace exec
}  // namespace gyo
