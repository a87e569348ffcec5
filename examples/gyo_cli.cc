// gyo_cli: a command-line front end to the library's decision procedures.
//
//   gyo_cli classify "ab,bc,cd"            tree/cyclic + qual tree
//   gyo_cli reduce   "abc,ab,bc" [sacred]  the GYO reduction GR(D, X)
//   gyo_cli cc       "abg,bcg,acf,ad,de,ea" abc    canonical connection
//   gyo_cli lossless "abc,ab,bc" "ab,bc"   decide ⋈D ⊨ ⋈D'
//   gyo_cli gamma    "abc,ab,bc"           γ-acyclicity + witness
//   gyo_cli treefy   "ab,bc,cd,da" K B     fixed treefication
//   gyo_cli dot      "ab,bc,cd"            qual tree in Graphviz dot
//   gyo_cli solve    "ab,bc,cd" ad         execute the solver programs on a
//                                          random UR database
//
// A global "--threads N" flag routes execution (the solve command) through
// the parallel exec runtime; "--max-concurrent-queries M" additionally caps
// how many queries the process-wide ExecutorPool admits at once (both flags
// configure the shared pool before its lazy creation; the GYO_EXEC_THREADS
// environment variable sizes the pool when --threads is absent). Every
// other command is schema-level analysis and ignores them.
//
// Schemas use the paper's notation: relations separated by commas; either
// one-letter attributes ("ab,bc") or space-separated names inside a
// relation ("part supplier, supplier city").

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "exec_flags.h"
#include "gyo/acyclic.h"
#include "gyo/gamma.h"
#include "gyo/gyo.h"
#include "gyo/qual_graph.h"
#include "query/lossless.h"
#include "query/treefication.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/catalog.h"
#include "schema/parse.h"
#include "tableau/canonical.h"
#include "util/rng.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: gyo_cli [--threads N] [--max-concurrent-queries M] "
               "<classify|reduce|cc|lossless|gamma|treefy|dot|solve>"
               " <schema> [args...]\n");
  return 2;
}

int Classify(gyo::Catalog& catalog, const gyo::DatabaseSchema& d) {
  if (gyo::IsTreeSchema(d)) {
    auto tree = gyo::BuildJoinTree(d);
    std::printf("tree schema; qual tree: %s\n",
                tree->Format(d, catalog).c_str());
  } else {
    std::printf("cyclic schema; least treefying relation: %s\n",
                catalog.Format(gyo::TreefyingRelation(d)).c_str());
  }
  return 0;
}

int Reduce(gyo::Catalog& catalog, const gyo::DatabaseSchema& d,
           const char* sacred_spec) {
  gyo::AttrSet sacred;
  if (sacred_spec != nullptr) {
    sacred = gyo::ParseAttrSet(catalog, sacred_spec);
  }
  gyo::GyoResult r = gyo::GyoReduceFast(d, sacred);
  std::printf("GR(D%s%s) = %s\n", sacred_spec != nullptr ? ", " : "",
              sacred_spec != nullptr ? catalog.Format(sacred).c_str() : "",
              r.reduced.Format(catalog).c_str());
  std::printf("%zu operations; survivors of original relations:",
              r.trace.size());
  for (int s : r.survivors) std::printf(" R%d", s);
  std::printf("\n");
  return 0;
}

int CanonicalCmd(gyo::Catalog& catalog, const gyo::DatabaseSchema& d,
                 const char* target) {
  gyo::AttrSet x = gyo::ParseAttrSet(catalog, target);
  gyo::CanonicalResult cc = gyo::CanonicalConnection(d, x);
  std::printf("CC(D, %s) = %s  [%s]\n", catalog.Format(x).c_str(),
              cc.schema.Format(catalog).c_str(),
              cc.used_fast_path ? "GYO fast path" : "tableau minimization");
  for (int i = 0; i < cc.schema.NumRelations(); ++i) {
    std::printf("  %s  from R%d\n", catalog.Format(cc.schema[i]).c_str(),
                cc.sources[static_cast<size_t>(i)]);
  }
  return 0;
}

int Lossless(gyo::Catalog& catalog, const gyo::DatabaseSchema& d,
             const char* dprime_spec) {
  gyo::DatabaseSchema dprime = gyo::ParseSchema(catalog, dprime_spec);
  if (!dprime.CoveredBy(d)) {
    std::fprintf(stderr, "error: D' must satisfy D' <= D\n");
    return 1;
  }
  bool implied = gyo::JoinDependencyImplies(d, dprime);
  std::printf("join D |= join D': %s\n", implied ? "yes" : "NO (lossy)");
  return implied ? 0 : 1;
}

int Gamma(gyo::Catalog& catalog, const gyo::DatabaseSchema& d) {
  bool acyclic = gyo::IsGammaAcyclic(d);
  std::printf("gamma-acyclic: %s\n", acyclic ? "yes" : "no");
  if (!acyclic) {
    if (auto cycle = gyo::FindWeakGammaCycle(d)) {
      std::printf("gamma-cycle:");
      gyo::DatabaseSchema dd = gyo::Deduplicate(d);
      for (size_t i = 0; i < cycle->relations.size(); ++i) {
        std::printf(" %s -[%s]-",
                    catalog.Format(dd[cycle->relations[i]]).c_str(),
                    catalog.Name(cycle->attributes[i]).c_str());
      }
      std::printf(" (back to start)\n");
    }
  }
  return 0;
}

int Treefy(gyo::Catalog& catalog, const gyo::DatabaseSchema& d, int k, int b) {
  gyo::TreeficationResult r = gyo::FixedTreefication(d, k, b);
  if (r.feasible) {
    std::printf("feasible; add:");
    for (const gyo::AttrSet& s : r.added) {
      std::printf(" %s", catalog.Format(s).c_str());
    }
    std::printf("\n");
    return 0;
  }
  std::printf("infeasible%s\n",
              r.exhausted ? " (search budget exhausted: inconclusive)" : "");
  return 1;
}

// Builds the §4/§6 solver programs for (d, x), executes them on a random UR
// database through the exec runtime (ctx.threads workers), and cross-checks
// every answer against the reference evaluator.
int Solve(gyo::Catalog& catalog, const gyo::DatabaseSchema& d,
          const char* target, const gyo::exec::ExecContext& ctx) {
  gyo::AttrSet x = gyo::ParseAttrSet(catalog, target);
  gyo::Rng rng(2026);
  gyo::Relation universal = gyo::RandomUniversal(d.Universe(), 128, 8, rng);
  std::vector<gyo::Relation> states = gyo::ProjectDatabase(universal, d);
  gyo::Relation reference = gyo::EvaluateJoinQuery(d, x, states);
  std::printf("solving (D, %s) on a random UR database, %d thread%s\n",
              catalog.Format(x).c_str(), ctx.threads,
              ctx.threads == 1 ? "" : "s");

  struct Entry {
    const char* name;
    gyo::Program program;
  };
  std::vector<Entry> entries;
  entries.push_back({"full join", gyo::FullJoinProgram(d, x)});
  entries.push_back({"CC-pruned", gyo::CCPrunedProgram(d, x)});
  if (auto yann = gyo::YannakakisProgram(d, x)) {
    entries.push_back({"Yannakakis", *yann});
  } else {
    std::printf("  Yannakakis: n/a (cyclic schema)\n");
  }

  bool all_match = true;
  for (const Entry& e : entries) {
    gyo::exec::PhysicalPlan plan = gyo::exec::PhysicalPlan::Compile(e.program);
    gyo::Program::Stats stats;
    gyo::exec::QueryStats query_stats;
    gyo::exec::ExecContext query_ctx = ctx;
    query_ctx.query_stats = &query_stats;
    std::vector<gyo::Relation> out = plan.Execute(states, query_ctx, &stats);
    bool match = out.back().EqualsAsSet(reference);
    all_match = all_match && match;
    std::printf(
        "  %-10s %3d stmts, critical path %2d, max intermediate %5lld, "
        "%lld tuples  %s\n",
        e.name, e.program.NumStatements(), plan.CriticalPathLength(),
        static_cast<long long>(stats.max_intermediate_rows),
        static_cast<long long>(stats.result_rows),
        match ? "[match]" : "[MISMATCH]");
    if (ctx.threads != 1) {
      std::printf("             pool: %.2f ms queued, %.2f ms running\n",
                  query_stats.queue_wait_seconds * 1e3,
                  query_stats.run_time_seconds * 1e3);
      gyo_examples::PrintCounters(query_stats, "               ");
    }
  }
  if (ctx.threads != 1) gyo_examples::PrintPoolStatus(ctx);
  return all_match ? 0 : 1;
}

int Dot(gyo::Catalog& catalog, const gyo::DatabaseSchema& d) {
  auto tree = gyo::BuildJoinTree(d);
  if (!tree.has_value()) {
    std::fprintf(stderr, "error: cyclic schema has no qual tree\n");
    return 1;
  }
  std::printf("%s", tree->ToDot(d, catalog).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gyo::exec::ExecContext ctx;
  gyo::exec::ExecutorPool::Options pool_options;
  std::vector<char*> args;
  for (int i = 1; i < argc; ++i) {
    gyo_examples::FlagParse parsed =
        gyo_examples::ParseExecFlag(argc, argv, &i, &ctx, &pool_options);
    if (parsed == gyo_examples::FlagParse::kError) return 2;
    if (parsed == gyo_examples::FlagParse::kParsed) continue;
    args.push_back(argv[i]);
  }
  gyo_examples::ConfigureExecFromFlags(&ctx, pool_options);
  if (args.size() < 2) return Usage();
  gyo::Catalog catalog;
  gyo::DatabaseSchema d = gyo::ParseSchema(catalog, args[1]);
  const std::string cmd = args[0];
  const size_t n = args.size();
  if (cmd == "classify") return Classify(catalog, d);
  if (cmd == "reduce") return Reduce(catalog, d, n > 2 ? args[2] : nullptr);
  if (cmd == "cc" && n > 2) return CanonicalCmd(catalog, d, args[2]);
  if (cmd == "lossless" && n > 2) return Lossless(catalog, d, args[2]);
  if (cmd == "gamma") return Gamma(catalog, d);
  if (cmd == "treefy" && n > 3) {
    return Treefy(catalog, d, std::atoi(args[2]), std::atoi(args[3]));
  }
  if (cmd == "dot") return Dot(catalog, d);
  if (cmd == "solve" && n > 2) return Solve(catalog, d, args[2], ctx);
  return Usage();
}
