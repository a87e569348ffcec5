#include "rel/reducer.h"

#include <gtest/gtest.h>

#include "exec/executor_pool.h"
#include "gyo/acyclic.h"
#include "rel/ops.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/generators.h"
#include "schema/parse.h"
#include "util/rng.h"

namespace gyo {
namespace {

class ReducerTest : public ::testing::Test {
 protected:
  Catalog catalog_;

  // The classic cyclic counterexample: a triangle of "inequality" relations,
  // pairwise consistent yet with an empty join.
  std::vector<Relation> InconsistentTriangle(DatabaseSchema* schema) {
    *schema = Aring(3);  // relations {0,1}, {1,2}, {0,2}
    std::vector<Relation> states;
    for (const RelationSchema& r : schema->Relations()) {
      Relation rel(r);
      rel.AddRow({0, 1});
      rel.AddRow({1, 0});
      rel.Canonicalize();
      states.push_back(rel);
    }
    return states;
  }
};

TEST_F(ReducerTest, URDatabasesAreGloballyConsistent) {
  // π_R(I) states always equal the projections of their own join.
  Rng rng(443);
  for (int trial = 0; trial < 40; ++trial) {
    DatabaseSchema d = RandomSchema(2 + static_cast<int>(rng.Below(4)),
                                    2 + static_cast<int>(rng.Below(5)),
                                    1 + static_cast<int>(rng.Below(4)), rng);
    Relation universal = RandomUniversal(
        d.Universe(), 1 + static_cast<int>(rng.Below(20)), 3, rng);
    std::vector<Relation> states = ProjectDatabase(universal, d);
    EXPECT_TRUE(IsGloballyConsistent(d, states)) << "trial " << trial;
  }
}

TEST_F(ReducerTest, RandomStatesAreUsuallyInconsistent) {
  // Independent random states over a path schema dangle with overwhelming
  // probability; make sure the detector actually fires.
  Rng rng(449);
  DatabaseSchema d = PathSchema(4);
  int inconsistent = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Relation> states = RandomStates(d, 6, 8, rng);
    if (!IsGloballyConsistent(d, states)) ++inconsistent;
  }
  EXPECT_GE(inconsistent, 15);
}

TEST_F(ReducerTest, FullReducerMakesTreeStatesConsistent) {
  // The §4 claim: for tree schemas, 2(n-1) semijoins reach global
  // consistency from ANY state — not just UR ones.
  Rng rng(457);
  int checked = 0;
  for (int trial = 0; trial < 80 && checked < 25; ++trial) {
    DatabaseSchema d = RandomTreeSchema(2 + static_cast<int>(rng.Below(5)), 3,
                                        rng).schema;
    ++checked;
    std::vector<Relation> states = RandomStates(d, 8, 3, rng);
    auto reduced = ApplyFullReducer(d, states);
    ASSERT_TRUE(reduced.has_value());
    EXPECT_TRUE(IsGloballyConsistent(d, *reduced)) << "trial " << trial;
    // Reduction never loses join tuples.
    Relation before = JoinAll(states);
    Relation after = JoinAll(*reduced);
    EXPECT_TRUE(before.EqualsAsSet(after)) << "trial " << trial;
  }
  EXPECT_GE(checked, 25);
}

TEST_F(ReducerTest, FullReducerRejectsCyclicSchemas) {
  DatabaseSchema d;
  std::vector<Relation> states = InconsistentTriangle(&d);
  EXPECT_FALSE(ApplyFullReducer(d, states).has_value());
}

TEST_F(ReducerTest, CyclicSchemasDefeatSemijoins) {
  // Bernstein–Goodman: the triangle state is a semijoin fixpoint (every
  // pairwise semijoin is the identity) yet globally inconsistent — no
  // semijoin program can fully reduce a cyclic schema.
  DatabaseSchema d;
  std::vector<Relation> states = InconsistentTriangle(&d);
  int steps = -1;
  std::vector<Relation> fix = SemijoinFixpoint(d, states, &steps);
  EXPECT_EQ(steps, 0);
  for (size_t i = 0; i < states.size(); ++i) {
    EXPECT_TRUE(fix[i].EqualsAsSet(states[i]));
  }
  EXPECT_FALSE(IsGloballyConsistent(d, fix));
  EXPECT_EQ(JoinAll(states).NumRows(), 0);  // the join is empty!
}

TEST_F(ReducerTest, FixpointMatchesFullReducerOnTrees) {
  Rng rng(461);
  for (int trial = 0; trial < 25; ++trial) {
    DatabaseSchema d = RandomTreeSchema(2 + static_cast<int>(rng.Below(4)), 3,
                                        rng).schema;
    std::vector<Relation> states = RandomStates(d, 6, 3, rng);
    auto reduced = ApplyFullReducer(d, states);
    ASSERT_TRUE(reduced.has_value());
    std::vector<Relation> fix = SemijoinFixpoint(d, states);
    for (size_t i = 0; i < states.size(); ++i) {
      EXPECT_TRUE((*reduced)[i].EqualsAsSet(fix[i]))
          << "trial " << trial << " relation " << i;
    }
  }
}

TEST_F(ReducerTest, FixpointNeverLosesJoinTuples) {
  Rng rng(463);
  for (int trial = 0; trial < 25; ++trial) {
    DatabaseSchema d = RandomSchema(2 + static_cast<int>(rng.Below(4)),
                                    2 + static_cast<int>(rng.Below(4)),
                                    1 + static_cast<int>(rng.Below(3)), rng);
    std::vector<Relation> states = RandomStates(d, 5, 3, rng);
    Relation before = JoinAll(states);
    Relation after = JoinAll(SemijoinFixpoint(d, states));
    EXPECT_TRUE(before.EqualsAsSet(after)) << "trial " << trial;
  }
}

TEST_F(ReducerTest, ParallelFixpointBitIdenticalToSerial) {
  // The task-wave fixpoint: per round every relation's neighbor-semijoin
  // chain runs as one wave on the pool. In deterministic mode the fixpoint
  // states — row order, canonical flags — and the effective-step count must
  // be bit-identical to the serial engine's at every thread count, on tree
  // and cyclic schemas alike.
  Rng rng(467);
  std::vector<DatabaseSchema> schemas = {PathSchema(6), Aring(5),
                                         StarSchema(5)};
  for (int t = 0; t < 2; ++t) {
    schemas.push_back(
        RandomTreeSchema(3 + static_cast<int>(rng.Below(4)), 3, rng).schema);
  }
  for (size_t s = 0; s < schemas.size(); ++s) {
    const DatabaseSchema& d = schemas[s];
    std::vector<Relation> states = RandomStates(d, 200, 8, rng);
    int serial_steps = -1;
    std::vector<Relation> serial = SemijoinFixpoint(d, states, &serial_steps);
    for (int threads : {2, 4, 8}) {
      exec::ExecutorPool::Options options;
      options.threads = threads;
      exec::ExecutorPool pool(options);
      exec::ExecContext ctx;
      ctx.threads = threads;
      ctx.pool = &pool;
      ctx.morsel_rows = 16;  // force morsel splitting on small states
      int steps = -1;
      std::vector<Relation> parallel = SemijoinFixpoint(d, states, ctx, &steps);
      EXPECT_EQ(steps, serial_steps) << "schema " << s << " threads "
                                     << threads;
      ASSERT_EQ(serial.size(), parallel.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].IsCanonical(), parallel[i].IsCanonical())
            << "schema " << s << " relation " << i << " threads " << threads;
        EXPECT_TRUE(serial[i].IdenticalTo(parallel[i]))
            << "schema " << s << " relation " << i << " threads " << threads;
      }
    }
  }
}

TEST_F(ReducerTest, FixpointIgnoresRetirementAndAccumulatesStats) {
  // A retire-happy caller context must not break convergence (the round
  // check reads every chain's input row counts, which retirement would
  // empty — the fixpoint strips the flag), and query_stats must cover all
  // rounds, not just the last.
  Rng rng(479);
  DatabaseSchema d = PathSchema(5);
  // Sparse domain (64 ≫ 20 rows): the independent states are guaranteed
  // dangle-heavy, so the fixpoint runs at least one effective round.
  std::vector<Relation> states = RandomStates(d, 20, 64, rng);
  int serial_steps = -1;
  std::vector<Relation> serial = SemijoinFixpoint(d, states, &serial_steps);
  exec::ExecContext ctx;
  ctx.retire_consumed = true;  // ignored by the fixpoint
  exec::QueryStats query_stats;
  ctx.query_stats = &query_stats;
  int steps = -1;
  std::vector<Relation> fix = SemijoinFixpoint(d, states, ctx, &steps);
  EXPECT_EQ(steps, serial_steps);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].IdenticalTo(fix[i])) << "relation " << i;
  }
  EXPECT_EQ(query_stats.retired_states, 0);
  // Round one is the dense program, one semijoin per intersecting ordered
  // pair; later delta rounds only re-run pairs whose rhs shrank, so the
  // total task count sits between one dense round and delta_rounds of them.
  int64_t dense_round = 0;
  for (int i = 0; i < d.NumRelations(); ++i) {
    for (int j = 0; j < d.NumRelations(); ++j) {
      if (i != j && d[i].Intersects(d[j])) ++dense_round;
    }
  }
  EXPECT_GE(query_stats.delta_rounds, 2);  // converged in > 1 round
  EXPECT_GE(query_stats.tasks, dense_round);
  EXPECT_LE(query_stats.tasks, query_stats.delta_rounds * dense_round);
  EXPECT_GT(query_stats.rows_rescanned, 0);
  EXPECT_GT(query_stats.peak_state_bytes, 0);
}

TEST_F(ReducerTest, EmptyRelationPropagates) {
  DatabaseSchema d = PathSchema(3);
  std::vector<Relation> states;
  for (const RelationSchema& r : d.Relations()) states.emplace_back(r);
  states[0].AddRow({1, 2});
  states[0].Canonicalize();
  // states[1] empty: the fixpoint empties everything connected.
  std::vector<Relation> fix = SemijoinFixpoint(d, states);
  EXPECT_EQ(fix[0].NumRows(), 0);
  EXPECT_EQ(fix[1].NumRows(), 0);
}

}  // namespace
}  // namespace gyo
