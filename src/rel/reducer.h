#ifndef GYO_REL_REDUCER_H_
#define GYO_REL_REDUCER_H_

#include <optional>
#include <vector>

#include "exec/exec_context.h"
#include "rel/relation.h"
#include "schema/schema.h"

namespace gyo {

/// Semijoin reduction (paper §4, after Bernstein–Chiu and Bernstein–Goodman).
///
/// A database state is *globally consistent* when every relation equals the
/// projection of the full join onto its schema — i.e., no tuple is dangling.
/// UR databases are always globally consistent; general databases are not.
/// For tree schemas a *full reducer* — a fixed sequence of 2(n−1) semijoins —
/// turns any state into a globally consistent one ("the non-UR transformation
/// can be done efficiently using semijoins", §4). For cyclic schemas no full
/// reducer exists: semijoins can reach a fixpoint on a globally inconsistent
/// state.

/// True iff every relation equals π_R(⋈ states). `states` must parallel `d`
/// and be canonicalized.
bool IsGloballyConsistent(const DatabaseSchema& d,
                          const std::vector<Relation>& states);

/// Applies the tree-schema full reducer (an upward and a downward semijoin
/// pass over a qual tree) and returns the reduced states. Returns nullopt if
/// `d` is a cyclic schema.
std::optional<std::vector<Relation>> ApplyFullReducer(
    const DatabaseSchema& d, const std::vector<Relation>& states);

/// Parallel form: the same 2(n−1) semijoins, compiled into a semijoin
/// Program and run on the exec runtime, where the dataflow DAG lets
/// independent subtree semijoins of the upward/downward passes run
/// concurrently (and each large semijoin split into morsels). With the
/// default context this is exactly the serial reducer; the reduced states
/// are bit-identical to it at any thread count.
std::optional<std::vector<Relation>> ApplyFullReducer(
    const DatabaseSchema& d, const std::vector<Relation>& states,
    const exec::ExecContext& ctx);

/// Applies pairwise semijoins Ri ⋉ Rj until no relation shrinks — the best
/// any semijoin program can achieve (the fixpoint is unique: semijoin
/// reduction is confluent). Runs in synchronous *delta rounds*, each
/// compiled into one program whose per-relation chains of neighbor
/// semijoins read the round-start states: the first round chains every
/// relation against all its neighbors; every later round re-semijoins a
/// relation only against the neighbors that shrank in the previous round.
/// The skipped pairs are provably no-ops — once Ri ⋉ Rj has been applied,
/// it can remove nothing until Rj shrinks again — so the per-round states,
/// the effective step count, and the final fixpoint are bit-identical to the
/// dense schedule that re-ran every pair every round; only the wasted scans
/// are gone. Returns the fixpoint states and, via `steps`, the number of
/// effective (relation-shrinking) semijoins applied (if non-null).
std::vector<Relation> SemijoinFixpoint(const DatabaseSchema& d,
                                       const std::vector<Relation>& states,
                                       int* steps = nullptr);

/// Parallel form: the same round schedule on `ctx`'s pool. With the default
/// (serial) context this is exactly the overload above; the fixpoint
/// states — and the `steps` count — are bit-identical to it at any thread
/// count. ctx.retire_consumed/retain_states are ignored
/// (rounds run unretired: the convergence check reads every chain's input
/// row counts); ctx.query_stats, when set, receives totals accumulated
/// across all rounds (peak_state_bytes is the max round's peak), including
/// the delta-round observables delta_rounds and rows_rescanned.
std::vector<Relation> SemijoinFixpoint(const DatabaseSchema& d,
                                       const std::vector<Relation>& states,
                                       const exec::ExecContext& ctx,
                                       int* steps = nullptr);

/// Moving form: consumes `states` — no deep copy of the base relations;
/// rounds move states through the exec runtime's moving entry point.
std::vector<Relation> SemijoinFixpoint(const DatabaseSchema& d,
                                       std::vector<Relation>&& states,
                                       const exec::ExecContext& ctx,
                                       int* steps = nullptr);

}  // namespace gyo

#endif  // GYO_REL_REDUCER_H_
