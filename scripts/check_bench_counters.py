#!/usr/bin/env python3
"""Diffs Google Benchmark correctness counters against committed baselines.

The benchmarks attach correctness counters — result cardinalities and
intermediate-size stats — to every run (e.g. ``result_rows``,
``max_intermediate``, ``reduced_rows_r0``). Unlike timings, these are
machine-independent: they are seeded row counts, identical on every host and
at every thread count (deterministic execution mode). A drift therefore
means an operator or program now computes a different answer, which is a
correctness regression no matter how fast it runs.

Usage:
    check_bench_counters.py [--baseline bench/results] [--fresh build/release]
                            [--check-time PCT]

``--check-time PCT`` additionally gates wall time: a benchmark whose fresh
``real_time`` exceeds its baseline by more than PCT percent fails the check.
It is opt-in (default off) because the committed baselines are recorded on
whatever host last refreshed them — cross-host time comparisons are noise,
so container CI runs counters-only.

For every ``BENCH_*.json`` in the baseline directory, the same-named file
must exist in the fresh directory, every baseline benchmark must appear in
the fresh run, and every checked counter must match exactly. Extra
benchmarks or files in the fresh run are reported but do not fail (new
benchmarks land before their baseline is committed). Exit status: 0 clean,
1 drift/missing data, 2 usage error.
"""

import argparse
import json
import sys
from pathlib import Path

# Counters treated as correctness-bearing. Everything else a benchmark
# reports (times, throughput, morsel tallies that depend on pool width, and
# the memory counters peak_state_bytes / peak_rss_mb, which depend on task
# scheduling and the host) is ignored here. effective_steps (the fixpoint's
# shrinking-semijoin count), fixpoint_rows_* (fixpoint cardinalities), and
# retired_states (dataflow retirement count: every consumed, non-retained
# state is freed exactly once) are deterministic at every thread count, so
# they are pinned alongside the result cardinalities.
# probe_rows_pruned is a per-row function of the data and the hash: each
# kernel tests one whole-build Bloom filter in every morsel, so the count is
# the same at every thread count and morsel size, and it pins too; a drift
# means the Bloom build or the hash kernels changed.
# delta_rounds / rows_rescanned are the semijoin fixpoint's work measures:
# rounds actually executed and input rows scanned by executed semijoins.
# Both are deterministic functions of the seeded start state, so they pin
# wherever a baseline records them — BM_BatchReduce_PathAppend in
# bench_incremental; a drift means the delta-round schedule changed how
# much work a re-reduction costs.
CHECKED_COUNTERS = ("result_rows", "max_intermediate", "queries",
                    "effective_steps", "retired_states", "probe_rows_pruned",
                    "delta_rounds", "rows_rescanned")
CHECKED_PREFIXES = ("reduced_rows", "fixpoint_rows")

# Counters checked for sign, not value, as (bench-name substring, counter,
# meaning-of-a-zero) rules. These are behaviors the benches exist to
# demonstrate but whose exact magnitudes are scheduling- or host-dependent,
# so no exact pin is possible:
#   * tasks_stolen on the deliberately skewed StealImbalance family — a
#     family-wide zero means the hot partition serialized on one deque.
#   * requests_shed on the serve Overload bench — a zero means an
#     over-offered gyo_serve stopped shedding, i.e. backpressure is off and
#     overload degrades into unbounded queueing.
# Each sign check is aggregated over every benchmark the substring matches
# (summed across thread-count args) because any single configuration can
# legitimately come up zero in a fast run, while a family-wide zero means
# the mechanism is off. Baselines recorded on hosts where the behavior never
# triggered leave the constraint vacuous.
#   * plan_cache_hits on the bench_incremental PlanCacheHit family — the
#     bench warms the plan cache and then looks up the identical query, so
#     a zero means the hit path is broken (every lookup silently degraded
#     to a rebuild). Sign-pinned rather than value-pinned so the bench stays
#     free to report per-lookup verdicts.
#   * sip_rows_pruned on the SipStar family — the chain head consults the
#     tail satellites' Bloom filters; a family-wide zero means sideways
#     information passing stopped engaging on the shape built for it.
POSITIVE_RULES = (
    ("StealImbalance", "tasks_stolen",
     "work stealing no longer triggers on the skewed partition"),
    ("SipStar", "sip_rows_pruned",
     "sideways information passing no longer prunes the star chain"),
    ("Serve_Overload", "requests_shed",
     "the overloaded server no longer sheds (backpressure is off)"),
    ("PlanCacheHit", "plan_cache_hits",
     "the warmed plan cache no longer hits on a repeat query"),
)


def checked_counter(name: str) -> bool:
    return name in CHECKED_COUNTERS or name.startswith(CHECKED_PREFIXES)


def positive_counter(bench_name: str, counter: str) -> bool:
    return any(substring in bench_name and counter == rule_counter
               for substring, rule_counter, _ in POSITIVE_RULES)


def load_benchmarks(path: Path) -> tuple:
    """Loads one benchmark JSON file.

    Returns (counters, times): benchmark name -> {counter: value} and
    benchmark name -> real_time in seconds (for the opt-in wall-time gate).
    """
    with path.open() as f:
        report = json.load(f)
    counters, times = {}, {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # aggregates repeat the per-iteration counters
        name = bench["name"]
        counters[name] = {
            key: value
            for key, value in bench.items()
            if (checked_counter(key) or positive_counter(name, key))
            and isinstance(value, (int, float))
        }
        if isinstance(bench.get("real_time"), (int, float)):
            unit = bench.get("time_unit", "ns")
            scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}.get(unit)
            if scale is not None:
                times[name] = bench["real_time"] * scale
    return counters, times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="bench/results", type=Path,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--fresh", default="build/release", type=Path,
                        help="directory of freshly produced BENCH_*.json")
    parser.add_argument("--check-time", metavar="PCT", type=float,
                        default=None,
                        help="opt-in wall-time gate: fail when a benchmark's "
                             "fresh real_time exceeds its baseline by more "
                             "than PCT percent. Off by default because "
                             "baselines are recorded on a different host "
                             "than CI; only enable where baseline and fresh "
                             "runs share a machine class.")
    args = parser.parse_args()
    if args.check_time is not None and args.check_time < 0:
        print("error: --check-time wants a non-negative percentage",
              file=sys.stderr)
        return 2

    baseline_files = sorted(args.baseline.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"error: no BENCH_*.json baselines under {args.baseline}",
              file=sys.stderr)
        return 2

    failures = []
    checked = 0
    for baseline_path in baseline_files:
        fresh_path = args.fresh / baseline_path.name
        if not fresh_path.exists():
            failures.append(f"{baseline_path.name}: missing from {args.fresh} "
                            "(bench binary not run?)")
            continue
        baseline, baseline_times = load_benchmarks(baseline_path)
        fresh, fresh_times = load_benchmarks(fresh_path)
        positive_sums = {}  # POSITIVE_RULES entry -> [baseline_sum, fresh_sum]
        for bench_name, counters in sorted(baseline.items()):
            if bench_name not in fresh:
                failures.append(f"{baseline_path.name}: benchmark "
                                f"'{bench_name}' missing from fresh run")
                continue
            for counter, want in sorted(counters.items()):
                got = fresh[bench_name].get(counter)
                checked += 1
                if got is None:
                    failures.append(
                        f"{baseline_path.name}: {bench_name}: counter "
                        f"'{counter}' missing from fresh run")
                elif positive_counter(bench_name, counter):
                    # Family-aggregated sign check, resolved after the loop
                    # (see above): a single configuration showing zero is a
                    # timing race, the whole family at zero is a regression.
                    for rule in POSITIVE_RULES:
                        if rule[0] in bench_name and counter == rule[1]:
                            sums = positive_sums.setdefault(rule, [0.0, 0.0])
                            sums[0] += want
                            sums[1] += got
                elif got != want:
                    failures.append(
                        f"{baseline_path.name}: {bench_name}: {counter} "
                        f"drifted: baseline {want:g}, fresh {got:g}")
            if args.check_time is not None:
                base_t = baseline_times.get(bench_name)
                fresh_t = fresh_times.get(bench_name)
                if base_t and fresh_t is not None:
                    checked += 1
                    if fresh_t > base_t * (1.0 + args.check_time / 100.0):
                        failures.append(
                            f"{baseline_path.name}: {bench_name}: real_time "
                            f"regressed beyond {args.check_time:g}%: "
                            f"baseline {base_t * 1e3:.3f} ms, fresh "
                            f"{fresh_t * 1e3:.3f} ms")
        for (substring, counter, meaning), (want_sum, got_sum) in sorted(
                positive_sums.items()):
            if want_sum > 0 and got_sum <= 0:
                failures.append(
                    f"{baseline_path.name}: {counter} summed over the "
                    f"'{substring}' family dropped to zero (baseline sum "
                    f"{want_sum:g}): {meaning}")
        for bench_name in sorted(set(fresh) - set(baseline)):
            print(f"note: {baseline_path.name}: new benchmark "
                  f"'{bench_name}' has no baseline yet")

    if failures:
        print(f"bench-check: {len(failures)} counter problem(s):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("If the change is intentional, refresh the baselines with\n"
              "  BENCH_OUT_DIR=bench/results ./scripts/run_benches.sh",
              file=sys.stderr)
        return 1
    print(f"bench-check: {checked} counters match across "
          f"{len(baseline_files)} baseline file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
