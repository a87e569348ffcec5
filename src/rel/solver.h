#ifndef GYO_REL_SOLVER_H_
#define GYO_REL_SOLVER_H_

#include <optional>

#include "rel/program.h"
#include "schema/schema.h"
#include "util/attr_set.h"

namespace gyo {

/// Program builders for solving Q = (D, X) over UR databases — the §4/§6
/// strategies compared in bench_join_strategies (P6).

/// The baseline of §4: join every relation of D left-deep, then project onto
/// X. Always solves (D, X); the intermediate join can be huge.
Program FullJoinProgram(const DatabaseSchema& d, const AttrSet& x);

/// The §6 optimization: restrict to the canonical connection CC(D, X) —
/// irrelevant relations are dropped and useless columns projected out — then
/// join and project. Solves (D, X) on all UR databases by Theorem 4.1.
Program CCPrunedProgram(const DatabaseSchema& d, const AttrSet& x);

struct YannakakisOptions {
  /// Run the 2(n−1)-semijoin full reducer before joining.
  bool full_reduce = true;
  /// Project intermediate join results onto X ∪ (attributes still needed).
  bool early_project = true;
};

/// Yannakakis' algorithm for tree schemas: full-reduce along a qual tree,
/// then join bottom-up with early projection. Returns nullopt for cyclic
/// schemas. With both options on, intermediate results never exceed
/// |output| · |largest relation| on fully-reduced inputs.
std::optional<Program> YannakakisProgram(const DatabaseSchema& d,
                                         const AttrSet& x,
                                         const YannakakisOptions& options =
                                             YannakakisOptions());

/// The tree-schema full reducer compiled as a program: the upward
/// (children-before-parents) then downward 2(n−1) semijoin passes along a
/// qual tree of d. Each semijoin reads the *current* id of its nodes, so the
/// per-node chains carry the data dependencies and semijoins on disjoint
/// subtrees come out independent — the exec dataflow DAG runs those
/// concurrently. final_ids[i] is the id of node i's fully reduced state.
/// Returns nullopt for cyclic schemas. ApplyFullReducer (rel/reducer.h)
/// executes this plan with state retirement.
struct FullReducerPlan {
  Program program;
  std::vector<int> final_ids;
};
std::optional<FullReducerPlan> FullReducerProgram(const DatabaseSchema& d);

/// Evaluation through a tree projection (Theorems 6.1/6.2): given a tree
/// schema `bags` with D ∪ {X} ≤ bags ≤ unions-of-base-relations, builds for
/// each bag a host join of base relations covering it (each base relation is
/// folded into the host join of a bag that contains it), projects hosts onto
/// their bags, full-reduces along the bag tree with 2(|bags|−1) semijoins,
/// and joins with early projection. Returns nullopt if `bags` is cyclic or
/// does not cover D ∪ {X}. Solves (D, X) on all databases (UR or not).
std::optional<Program> TreeProjectionProgram(const DatabaseSchema& d,
                                             const AttrSet& x,
                                             const DatabaseSchema& bags);

}  // namespace gyo

#endif  // GYO_REL_SOLVER_H_
