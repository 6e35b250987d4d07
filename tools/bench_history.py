#!/usr/bin/env python3
"""Append a benchmark run to the committed perf trajectory.

BENCH_history.json (repo root) is the checked-in, append-only record
of the suite's wall-clock benchmark scalars — one entry per PR and
benchmark — so the perf trajectory lives in the repo instead of only
in CI logs. Two artifacts are accepted: BENCH_throughput (the
simulator-rate benchmark, CI perf-smoke) and BENCH_serving (the
contest-service benchmark, CI serve-smoke). The CI jobs run this
script after their benchmark and upload the appended file as an
artifact; the PR author checks the new entry in (the alternative, a
CI-side commit, would race concurrent PRs).

Usage:
    tools/bench_history.py <BENCH_*.json> [--label TEXT]
        [--history PATH] [--check]

The entry records the benchmark's name and meta block (trace length,
seed, jobs, git revision) plus every scalar, and is skipped when the
history already holds an entry for the same (git revision, benchmark
name) pair — re-runs on one commit should not duplicate entries.
Dirty-tree revisions ("<rev>-dirty") are normalized: the clean rev is
recorded with a separate `"dirty": true` flag, so a rerun on the
clean tree is still recognized as the same commit.

--check compares the new entry against the previous same-name entry
and prints GitHub `::warning::` annotations for regressions: a
mean_mticks_per_s drop of more than 10%, serving_warm_speedup_*
below 5.0, and serving_warm_sims_* above 0 (a warm request that
simulates means the memoization broke). Checks never fail the run
(exit 0): both benchmarks are shared-runner measurements, so the
annotation makes a slowdown visible without gating on noise.
"""

import argparse
import json
import sys
from pathlib import Path

ACCEPTED_NAMES = ("BENCH_throughput", "BENCH_serving")


def split_git_rev(rev):
    """Return (clean_rev, dirty) for a git describe-style revision."""
    if rev.endswith("-dirty"):
        return rev[: -len("-dirty")], True
    return rev, False


def check_entry(entry, previous):
    """Yield (level, message) pairs comparing entry against previous."""
    scalars = entry.get("scalars", {})
    for key, value in sorted(scalars.items()):
        if key.startswith("serving_warm_speedup_") and value < 5.0:
            yield ("warning",
                   f"{key} = {value:.2f} < 5.0: warm requests "
                   "should be far cheaper than cold ones")
        if key.startswith("serving_warm_sims_") and value > 0:
            yield ("warning",
                   f"{key} = {value:.0f} > 0: a warm request "
                   "re-simulated; the Runner memoization is not "
                   "deduplicating identical requests")
    if previous is not None:
        prev_mean = previous.get("scalars", {}).get("mean_mticks_per_s")
        mean = scalars.get("mean_mticks_per_s")
        if prev_mean and mean is not None and mean < 0.9 * prev_mean:
            yield ("warning",
                   f"mean_mticks_per_s regressed >10%: "
                   f"{prev_mean:.2f} -> {mean:.2f}")


def print_checks(entry, previous):
    for level, message in check_entry(entry, previous):
        print(f"::{level}::BENCH_history: {message}")


def last_with_name(history, name):
    """The newest history entry for a benchmark name, or None.

    Entries written before the name field existed are
    BENCH_throughput runs.
    """
    for entry in reversed(history):
        if entry.get("name", "BENCH_throughput") == name:
            return entry
    return None


def main() -> int:
    ap = argparse.ArgumentParser(
        description="append BENCH_throughput / BENCH_serving scalars "
                    "to BENCH_history.json")
    ap.add_argument("result", type=Path,
                    help="BENCH_*.json produced by contest_bench")
    ap.add_argument("--label", default="",
                    help="free-form tag for the entry (e.g. the PR "
                         "title)")
    ap.add_argument("--history",
                    type=Path,
                    default=Path(__file__).resolve().parent.parent
                    / "BENCH_history.json",
                    help="history file to append to (default: repo "
                         "root BENCH_history.json)")
    ap.add_argument("--check", action="store_true",
                    help="emit ::warning:: annotations for "
                         "regressions (never fails the run)")
    args = ap.parse_args()

    result = json.loads(args.result.read_text())
    name = result.get("name")
    if name not in ACCEPTED_NAMES:
        print(f"error: {args.result} is not one of "
              f"{', '.join(ACCEPTED_NAMES)}", file=sys.stderr)
        return 1

    history = []
    if args.history.exists():
        history = json.loads(args.history.read_text())
        if not isinstance(history, list):
            print(f"error: {args.history} is not a JSON array",
                  file=sys.stderr)
            return 1

    entry = {
        "label": args.label,
        "name": name,
        "meta": dict(result.get("meta", {})),
        "scalars": result.get("scalars", {}),
    }

    git, dirty = split_git_rev(entry["meta"].get("git", ""))
    entry["meta"]["git"] = git
    if dirty:
        entry["meta"]["dirty"] = True

    previous = last_with_name(history, name)
    if previous is not None and git:
        # Compare clean revs on both sides: old entries may predate
        # the dirty-flag split and still carry "<rev>-dirty".
        prev_git, _ = split_git_rev(
            previous.get("meta", {}).get("git", ""))
        if prev_git == git:
            print(f"history already has a {name} entry at {git}; "
                  "not appending")
            if args.check:
                older = last_with_name(
                    history[: history.index(previous)], name)
                print_checks(entry, older)
            return 0

    history.append(entry)
    args.history.write_text(json.dumps(history, indent=2) + "\n")
    mean = entry["scalars"].get("mean_mticks_per_s")
    if mean is not None:
        detail = f"mean {mean:.2f} Mticks/s"
    else:
        warm = entry["scalars"].get("serving_warm_rps_j4")
        detail = (f"warm {warm:.1f} req/s at 4 jobs"
                  if warm is not None else "no headline scalar")
    print(f"appended {name} entry #{len(history)} "
          f"({git or 'no git rev'}"
          f"{', ' + args.label if args.label else ''}): {detail}")

    if args.check:
        print_checks(entry, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
