#!/usr/bin/env python3
"""Benchmark for bellatrex: tuned-explain latency, survival training and the
threaded desk evaluation, with a separate per-module traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explain-binary --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` sets up several times (the median is ``setup_s``), then runs
the workload's rounds in a closed loop for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs set-up plus one round untraced and
then the same again traced, and reports per-module call counts and self
times; the spans go to ``perfbench/out/``.  ``--workload all`` runs every
workload in its own process.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("explain-binary", "train-survival", "desk-regression")

# Steady environment: BLAS runs on one thread, so that BELLATREX_THREADS is
# the only source of parallelism.  Must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny sizes, for the self-test")
    return parser.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "bellatrex").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": source.hexdigest()[:16],
        "BELLATREX_THREADS": threads,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_figure(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<22} {value:14.6f} {unit:<5} {note}".rstrip())


def _measure(workload, seed: int, seconds: float) -> dict:
    from workloads import Tally

    setups = []
    for _ in range(workload.setup_repeats):
        start = perf_counter()
        state = workload.setup(seed)
        workload.warm_up(state)
        setups.append(perf_counter() - start)

    tally = Tally()
    samples: dict = {}
    deadline = perf_counter() + seconds
    rounds = 0
    while True:
        workload.work(state, samples, tally)
        rounds += 1
        if perf_counter() >= deadline:
            break
    workload.verify(state, tally)

    op = samples.get(workload.op, [])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (1000 * statistics.median(op) if op else float("nan"), "ms"),
        "peak_rss_mb": (_peak_rss_mib(), "MiB"),
    }
    print(f"# {workload.name}: {rounds} rounds in the timed loop; op_ms_p50 times one "
          f"'{workload.op}' operation (n={len(op)})")
    _print_figure("setup_s", metrics["setup_s"][0], "s", f"median of {len(setups)} set-ups")
    for name, (value, unit, note) in workload.figures(samples, state).items():
        _print_figure(name, value, unit, note)
    _print_figure("peak_rss_mb", metrics["peak_rss_mb"][0], "MiB", "max RSS of this process")
    _print_figure("error_rate", tally.failed / max(tally.attempted, 1), "1",
                  f"failed {tally.failed} of {tally.attempted} attempted")
    _print_figure("op_ms_p50", metrics["op_ms_p50"][0], "ms", f"'{workload.op}', n={len(op)}")
    print(f"digest {workload.name} {workload.digest(state)}")
    return {"tally": tally, "metrics": metrics}


def _trace(workload, seed: int) -> dict:
    from tracing import Tracer
    from workloads import Tally

    tally = Tally()
    walls = []
    digests = []
    tracer = Tracer()
    # untraced, traced, untraced: the first pass also warms up, and the
    # overhead is taken against the mean of the two untraced passes
    for traced in (False, True, False):
        samples: dict = {}
        start = perf_counter()
        if traced:
            with tracer:
                state = workload.setup(seed)
                workload.work(state, samples, tally)
        else:
            state = workload.setup(seed)
            workload.work(state, samples, tally)
        walls.append(perf_counter() - start)
        workload.verify(state, tally)
        digests.append(workload.digest(state))
        del state
    if len(set(digests)) != 1:
        tally.fail("traced run produced different outputs than the untraced run")
    untraced = (walls[0] + walls[2]) / 2

    layer = tracer.metrics()
    units = {}
    for name in layer:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(".parallelism"):
            units[name] = "ratio"
        elif name.endswith(".calls_per_instance"):
            units[name] = "calls/instance"
        else:
            units[name] = "count"
    layer["trace.overhead_s"] = walls[1] - untraced
    units["trace.overhead_s"] = "s"
    print(f"# {workload.name}: set-up plus one round, untraced {walls[0]:.6f} s and "
          f"{walls[2]:.6f} s, traced {walls[1]:.6f} s")
    for name, value in layer.items():
        _print_figure(name, value, units[name])
    par = "parallel.parallel_map"
    if f"{par}.parallelism" in layer:
        print(f"# parallelism = item_s / wall_s = {layer[f'{par}.item_s']:.6f} s / "
              f"{layer[f'{par}.wall_s']:.6f} s")
    span_s, self_s = tracer.subtree_check("explain.tune_and_explain")
    if span_s:
        print(f"# explain.tune_and_explain spans {span_s:.6f} s; self times within them sum to {self_s:.6f} s")
    if tracer.absent:
        print(f"# absent (not found in the package): {', '.join(sorted(tracer.absent))}")
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(path)
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(f"digest {workload.name} {digests[1]}")
    return {"tally": tally, "metrics": {name: (value, units[name]) for name, value in layer.items()}}


def _run_one(args) -> int:
    if not (SRC / "bellatrex" / "__init__.py").is_file():
        print(f"error: no bellatrex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    from workloads import make

    OUT.mkdir(exist_ok=True)
    workload = make(args.workload, args.small, OUT)
    threads = workload.trace_threads if args.trace else workload.threads
    os.environ["BELLATREX_THREADS"] = str(threads)
    print("# env " + json.dumps(_environment(threads), sort_keys=True))
    if args.trace:
        result = _trace(workload, args.seed)
    else:
        result = _measure(workload, args.seed, args.seconds)
    tally = result["tally"]
    for message in tally.messages:
        print(f"# FAILED: {message}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        print(f"## {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
