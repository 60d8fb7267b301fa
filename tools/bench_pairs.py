#!/usr/bin/env python3
"""Interleaved parent/change pairs of ``perfbench/run.py`` runs, as JSON.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload desk-regression --pairs 10 --seconds 35 --seed 1 --out BENCH.json

Each pair runs the workload once in each checkout, one process at a time;
even pairs run the parent first, odd pairs the change.  For every gated
end-to-end metric the file records both sides' runs, medians and
quartiles, the pairs in which the change is better, and a verdict against
the metric's bound in this repository's ``BENCHMARK.json`` (see
``verdict``); it also records the tool's own command line, each run's
digest line and environment line, and whether both sides' digests match.
An existing ``--out`` file gains the workload as one more entry of
``runs``.  A run that exits non-zero or ends without a result line stops
the tool with exit code 1, naming the side and the workload.
"""
from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

# its "end_to_end" entries are the gated metrics: name, better ("lower" or
# "higher") and bound; the tool only reads it
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class RunFailed(Exception):
    """A benchmark run that gave no result."""


def run_once(checkout: Path, workload: str, seconds: float, seed: int,
             names: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds),
         "--seed", str(seed)], cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"perfbench/run.py exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        return {
            "correct": result["correct"],
            "failed": result["failed"],
            "metrics": {name: result["metrics"][name]["value"] for name in names},
            "digest": next(line for line in lines if line.startswith("digest ")),
            "env": next(line for line in lines if line.startswith("# env ")),
        }
    except (IndexError, ValueError, KeyError, TypeError, StopIteration) as exc:
        raise RunFailed(f"perfbench/run.py printed no full result ({exc!r})") from None


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def better_pairs(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better; ties count for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The change's verdict on one metric, from paired runs:

    - ``gain``: better in at least nine tenths of the pairs (ties count for
      neither side), and the medians differ by more than the parent's
      quartile spread;
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound``, a fraction of the parent's median;
    - ``unresolved``: the parent's quartile spread is wider than the bound,
      unless every change run is better than every parent run;
    - ``within bound``: otherwise."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gap = sign * (median - statistics.median(change))  # > 0: the change is better
    if 10 * better_pairs(parent, change, better) >= 9 * len(parent) and gap > q3 - q1:
        return "gain"
    if -gap > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not (
            min(sign * p for p in parent) > max(sign * c for c in change)):
        return "unresolved"
    return "within bound"


def pair_count(raw: str) -> int:
    """``--pairs``: quartiles need at least two runs a side."""
    pairs = int(raw)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs for quartiles, got {pairs}")
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    argv = sys.argv[1:] if argv is None else [str(a) for a in argv]
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    names = [metric["name"] for metric in metrics]

    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            try:
                runs[side].append(run_once(getattr(args, side), args.workload, args.seconds,
                                           args.seed, names))
            except RunFailed as exc:
                print(f"bench_pairs: the {side} run of {args.workload} (pair {pair}) failed: {exc}",
                      file=sys.stderr)
                return 1
            print(f"pair {pair} {side}: {runs[side][-1]['metrics']}", flush=True)

    entry = {"command": shlex.join(["python3", "tools/bench_pairs.py", *argv]),
             "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "pairs": args.pairs, "first_side": "parent on even pairs, change on odd pairs",
             "correct": all(r["correct"] and not r["failed"] for side in runs.values() for r in side),
             "metrics": {}}
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        entry["metrics"][name] = {
            "parent": summary(parent), "change": summary(change),
            "change_better_pairs": better_pairs(parent, change, better),
            "bound": bound, "verdict": verdict(parent, change, better, bound),
        }
        print(f"{args.workload} {name}: {entry['metrics'][name]['verdict']}")
    for side, side_runs in runs.items():
        entry[f"{side}_digests"] = sorted({r["digest"] for r in side_runs})
        entry[f"{side}_env"] = side_runs[0]["env"]
    entry["digests_match"] = entry["parent_digests"] == entry["change_digests"]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    doc["runs"].append(entry)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
