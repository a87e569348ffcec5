// query_planner: the paper's §4/§6 story end to end.
//
// Given a join query (D, X) over a universal-relation database, the planner
//   1. computes the canonical connection CC(D, X) (Thm 4.1) — the relevant
//      sub-database, with irrelevant relations dropped and useless columns
//      projected out;
//   2. emits three programs — full join, CC-pruned join, and (for tree
//      schemas) a Yannakakis semijoin plan;
//   3. executes all of them on a random UR database and cross-checks the
//      answers.
//
//   $ ./query_planner                      # the paper's §6 example
//   $ ./query_planner "ab,bc,cd" ad        # your own query
//   $ ./query_planner "ab,bc,cd" ad --threads 4   # parallel exec runtime
//
// With --threads N the programs run through the process-wide ExecutorPool
// (sized N here; GYO_EXEC_THREADS sizes it when the flag is absent), and
// --max-concurrent-queries M caps how many queries the pool admits at once.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "exec_flags.h"
#include "gyo/acyclic.h"
#include "query/query.h"
#include "rel/ops.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/catalog.h"
#include "schema/fixtures.h"
#include "schema/parse.h"
#include "tableau/canonical.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  // Split off the optional "--threads N" / "--max-concurrent-queries M"
  // flags; what remains are the positional schema/target arguments.
  gyo::exec::ExecContext ctx;
  gyo::exec::ExecutorPool::Options pool_options;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    gyo_examples::FlagParse parsed =
        gyo_examples::ParseExecFlag(argc, argv, &i, &ctx, &pool_options);
    if (parsed == gyo_examples::FlagParse::kError) return 2;
    if (parsed == gyo_examples::FlagParse::kParsed) continue;
    positional.push_back(argv[i]);
  }
  gyo_examples::ConfigureExecFromFlags(&ctx, pool_options);

  gyo::Catalog catalog;
  gyo::DatabaseSchema d;
  gyo::AttrSet x;
  if (positional.size() >= 2) {
    d = gyo::ParseSchema(catalog, positional[0]);
    x = gyo::ParseAttrSet(catalog, positional[1]);
  } else {
    std::printf("== the paper's Section 6 example ==\n");
    d = gyo::fixtures::Sec6D(catalog);
    x = gyo::fixtures::Sec6X(catalog);
  }
  std::printf("query Q = (D, X), D = %s, X = %s\n\n", d.Format(catalog).c_str(),
              catalog.Format(x).c_str());

  // Step 1: relevance analysis via the canonical connection.
  gyo::CanonicalResult cc = gyo::RelevantSubdatabase(d, x);
  std::printf("CC(D, X) = %s   [%s]\n", cc.schema.Format(catalog).c_str(),
              cc.used_fast_path ? "GYO fast path (Thm 3.3)"
                                : "tableau minimization");
  for (int i = 0; i < cc.schema.NumRelations(); ++i) {
    int src = cc.sources[static_cast<size_t>(i)];
    if (cc.schema[i] == d[src]) {
      std::printf("  keep R%d = %s\n", src, catalog.Format(d[src]).c_str());
    } else {
      std::printf("  keep project[%s](R%d = %s)  (useless columns dropped)\n",
                  catalog.Format(cc.schema[i]).c_str(), src,
                  catalog.Format(d[src]).c_str());
    }
  }
  for (int i = 0; i < d.NumRelations(); ++i) {
    bool used = false;
    for (int src : cc.sources) used = used || (src == i);
    if (!used) {
      std::printf("  drop R%d = %s  (irrelevant)\n", i,
                  catalog.Format(d[i]).c_str());
    }
  }

  // Step 2: programs.
  gyo::Program full = gyo::FullJoinProgram(d, x);
  gyo::Program pruned = gyo::CCPrunedProgram(d, x);
  std::printf("\nfull-join program (%d joins):\n%s", full.NumJoins(),
              full.Format(catalog).c_str());
  std::printf("CC-pruned program (%d joins):\n%s", pruned.NumJoins(),
              pruned.Format(catalog).c_str());
  auto yann = gyo::YannakakisProgram(d, x);
  if (yann.has_value()) {
    std::printf("Yannakakis program (%d semijoins, %d joins):\n%s",
                yann->NumSemijoins(), yann->NumJoins(),
                yann->Format(catalog).c_str());
  } else {
    std::printf("Yannakakis program: n/a (cyclic schema)\n");
  }

  // Step 3: execute on a random UR database (through the exec runtime, on
  // ctx.threads workers) and cross-check.
  gyo::Rng rng(2026);
  gyo::Relation universal = gyo::RandomUniversal(d.Universe(), 64, 6, rng);
  std::vector<gyo::Relation> states = gyo::ProjectDatabase(universal, d);
  gyo::Relation reference = gyo::EvaluateJoinQuery(d, x, states);
  // Collect per-query stats so PrintPoolStatus can report the scheduling
  // counters (steals, admission backlog) of the last query below.
  gyo::exec::QueryStats query_stats;
  if (ctx.threads != 1) ctx.query_stats = &query_stats;
  gyo::Relation via_full = gyo::exec::Run(full, states, ctx);
  gyo::Relation via_pruned = gyo::exec::Run(pruned, states, ctx);
  std::printf("\nexecution on a random UR database (|I| = %lld, %d thread%s):\n",
              static_cast<long long>(universal.NumRows()), ctx.threads,
              ctx.threads == 1 ? "" : "s");
  std::printf("  reference answer: %lld tuples\n",
              static_cast<long long>(reference.NumRows()));
  std::printf("  full join:        %lld tuples  %s\n",
              static_cast<long long>(via_full.NumRows()),
              via_full.EqualsAsSet(reference) ? "[match]" : "[MISMATCH]");
  std::printf("  CC-pruned:        %lld tuples  %s\n",
              static_cast<long long>(via_pruned.NumRows()),
              via_pruned.EqualsAsSet(reference) ? "[match]" : "[MISMATCH]");
  if (yann.has_value()) {
    gyo::Relation via_yann = gyo::exec::Run(*yann, states, ctx);
    std::printf("  Yannakakis:       %lld tuples  %s\n",
                static_cast<long long>(via_yann.NumRows()),
                via_yann.EqualsAsSet(reference) ? "[match]" : "[MISMATCH]");
  }
  if (ctx.threads != 1) gyo_examples::PrintPoolStatus(ctx);
  return 0;
}
