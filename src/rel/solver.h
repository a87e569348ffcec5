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
/// join and project. Computes π_X(⋈ π_CC(D,X)(states)), which answers (D, X)
/// on UR databases by Theorem 4.1 but not on arbitrary states.
///
/// The |CC| − 1 joins follow an attribute-elimination order, then one final
/// projection onto X. Each CC member starts with all its attributes live.
/// While a live attribute outside X remains, the one whose live relations
/// have the smallest union of live attributes (its scope) is picked — ties
/// to fewer relations, then the lower id — and those relations are joined,
/// each time taking next the one sharing the most attributes with the join
/// so far. The result replaces them, and its attributes outside X that no
/// other relation holds stop being live. What remains is joined the same
/// way. A dead attribute stays in the physical schema (no projection per
/// step) but lies in one relation only, so it is never a join key. On the
/// 6-ring with X = ad this is (ab⋈bc⋈cd) ⋈ (de⋈ef⋈fa): two halves that meet
/// on ad, not a 6-deep chain.
///
/// Why the order is a tree-projection route (Theorems 6.1–6.4): the scopes
/// plus X form a tree schema T. Processed in elimination order, each scope
/// meets the later bags only inside the live attributes its join keeps, and
/// those lie in the next scope that join takes part in, or in X — so each
/// scope is an ear. T covers CC(D, X) ∪ {X}: a CC member lies in the scope
/// of its first elimination, or in X if it never takes part in one. And
/// T ≤ P(D): each scope lies inside the join that realizes it, and X inside
/// the last join.
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
/// each bag a host join from the base relations inside it, plus, for each
/// bag attribute they miss, the first base relation holding it projected
/// onto its part inside the bag — so every base relation is joined into a
/// bag that contains it and no host join leaves its bag. It then
/// full-reduces along the bag tree with 2(|bags|−1) semijoins and joins with
/// early projection. Returns nullopt if `bags` is cyclic or does not cover
/// D ∪ {X}. Solves (D, X) on all databases (UR or not).
std::optional<Program> TreeProjectionProgram(const DatabaseSchema& d,
                                             const AttrSet& x,
                                             const DatabaseSchema& bags);

}  // namespace gyo

#endif  // GYO_REL_SOLVER_H_
