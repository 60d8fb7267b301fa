#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; asserts on no timing.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that every workload prints the result schema with exactly the metric
names and units of BENCHMARK.json, that the traced call counts repeat exactly
between two runs, that the tracer's self times add up and that it reports a
missing function as absent, that design.json names the same metrics, and
that the benchmark fails without a result when the package sources are
missing.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "calls/instance")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
           "--seconds", "0.2", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}, (name, entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), (name, entry)
    return result


def _expect(metrics: dict, spec: list[dict]) -> None:
    assert list(sorted(metrics)) == sorted(m["name"] for m in spec), sorted(set(metrics) ^ {m["name"] for m in spec})
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], (m, metrics[m["name"]])


def check_end_to_end() -> None:
    for name in NAMES:
        proc = _run(name, 0)
        _expect(_result(proc)["metrics"], SPEC["end_to_end"])
        assert f"digest {name} " in proc.stdout
        for figure in ("setup_s", "peak_rss_mb", "error_rate"):
            assert f"\n{figure} " in proc.stdout, figure
        print(f"ok  {name} --trace 0 schema and metric names")


def check_traced() -> None:
    for name in NAMES:
        first, second = (_result(_run(name, 1))["metrics"] for _ in range(2))
        _expect(first, SPEC["per_layer"])
        counts = {k: v["value"] for k, v in first.items() if v["unit"] in COUNT_UNITS}
        again = {k: v["value"] for k, v in second.items() if v["unit"] in COUNT_UNITS}
        assert counts == again, {k: (counts[k], again[k]) for k in counts if counts[k] != again[k]}
        assert first["parallel.parallel_map.calls"]["value"] > 0
        print(f"ok  {name} --trace 1 metric names; {len(counts)} call counts repeat exactly")


def check_tracer() -> None:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import numpy as np

    from bellatrex import explain, numeric, synthdata
    from bellatrex import forest as forest_mod
    from tracing import Tracer

    ds = synthdata.make_binary(120, 24, seed=1)
    forest = forest_mod.fit_forest(ds, forest_mod.ForestParams(n_trees=80, seed=1))
    removed = numeric.nearest_point
    del numeric.nearest_point  # as if a later change deleted it
    try:
        with Tracer() as tracer:
            explain.tune_and_explain(forest, ds.covariates[0], seed=1)
    finally:
        numeric.nearest_point = removed
    assert tracer.absent == ["numeric.nearest_point"], tracer.absent
    metrics = tracer.metrics()
    assert "numeric.nearest_point.self_s" not in metrics
    assert metrics["explain.tune_and_explain.calls"] == 1
    assert metrics["numeric.pca_fit.calls_per_instance"] == 18
    assert metrics["numeric.kmeans_pp.calls_per_instance"] == 27
    span_s, self_s = tracer.subtree_check("explain.tune_and_explain")
    assert np.isclose(span_s, self_s, rtol=1e-9, atol=0), (span_s, self_s)
    assert explain.kmeans_pp is numeric.kmeans_pp, "patches were not restored"
    print("ok  tracer: self times add up; a missing function is reported absent; patches restored")


def check_design() -> None:
    design = json.loads((HERE / "design.json").read_text())
    assert sorted(design["per_layer"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert sorted(design["end_to_end"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert sorted(design["workloads"]) == sorted(NAMES)
    print("ok  design.json names match BENCHMARK.json")


def check_bare_directory() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(NAMES[0], 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without the package sources the benchmark exits non-zero and prints no result")


def main() -> int:
    check_design()
    check_bare_directory()
    check_tracer()
    check_end_to_end()
    check_traced()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
