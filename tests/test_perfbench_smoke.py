"""Smoke test of the benchmark entry point: ``perfbench/run.py`` drives the
package through its public names (``fit_forest``, ``tune_and_explain``,
``run_benchmark`` and others), and a run that loses one of them ends without
its result line.  The last line must be strict JSON: output the package
prints after it, or a workload whose every operation failed (its median is
NaN, which ``json.dumps`` writes as a bare ``NaN``), leaves a last line that
a strict reader refuses."""
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The digest of each workload's first forest, explanation or report at
# these sizes and this seed, the same at any BELLATREX_THREADS.  A change
# that moves any of them is no longer byte-identical to the code that set
# these values.
PINNED_DIGESTS = {
    "explain-binary": "a890372f78e2b58a",
    "train-survival": "777bb5ac9f146dc0",
    "desk-regression": "d5303cd28e2ddae5",
}


def test_benchmark_run_ends_with_a_full_result_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--small",
         "--seconds", "0.2", "--seed", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1],
                        parse_constant=_refuse_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    digests = dict(line.split()[1:] for line in done.stdout.splitlines()
                   if line.startswith("digest "))
    assert digests == PINNED_DIGESTS
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {f"{workload['name']}/{metric['name']}"
                for workload in declared["workloads"] for metric in declared["end_to_end"]}
    assert len(expected) == 9
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


def test_traced_run_reports_every_declared_layer():
    """The traced run wraps package functions by name (``perfbench/tracing.py``):
    one that is renamed or deleted drops its per-layer metrics from the
    result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--small",
         "--trace", "1", "--seed", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1],
                        parse_constant=_refuse_constant)
    assert result["correct"] is True
    digests = dict(line.split()[1:] for line in done.stdout.splitlines()
                   if line.startswith("digest "))
    assert digests == PINNED_DIGESTS
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {f"{workload['name']}/{metric['name']}"
                for workload in declared["workloads"] for metric in declared["per_layer"]}
    assert len(expected) == 3 * 36
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pairs_needs_two_pairs(tmp_path, pairs):
    # one pair ran both benchmark processes, then statistics.quantiles
    # raised and nothing was written
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", "--parent", ".", "--change", ".",
         "--workload", "desk-regression", "--pairs", pairs, "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "need at least 2 pairs" in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == "" and not out.exists()


# A stub benchmark: its n-th run prints op_ms_p50 = op_ms[n] (the last
# value once they run out) and 1.0 for the other metrics.
STUB_RUN = """import json, sys
from pathlib import Path
if {exit_code}:
    sys.exit({exit_code})
seen = Path(__file__).with_name("runs")
run = len(seen.read_text()) if seen.exists() else 0
seen.write_text("x" * (run + 1))
op_ms = {op_ms}
print("# env stub")
print("digest desk-regression {digest}")
print(json.dumps({{"correct": True, "failed": 0, "metrics": {{
    "op_ms_p50": {{"value": op_ms[min(run, len(op_ms) - 1)]}},
    "setup_s": {{"value": 1.0}}, "peak_rss_mb": {{"value": 1.0}}}}}}))
"""


def stub_checkout(root: Path, digest: str = "00", exit_code: int = 0,
                  op_ms: tuple[float, ...] = (1.0,)) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        STUB_RUN.format(digest=digest, exit_code=exit_code, op_ms=list(op_ms)))
    return root


def bench_pairs_args(parent: Path, change: Path, out: Path, pairs: int = 2) -> list[str]:
    return ["--parent", str(parent), "--change", str(change), "--workload", "desk-regression",
            "--pairs", str(pairs), "--out", str(out)]


def bench_pairs(parent: Path, change: Path, out: Path, pairs: int = 2) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
         *bench_pairs_args(parent, change, out, pairs)], capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("failing", ["parent", "change"])
def test_bench_pairs_failed_run_exits_one(tmp_path, failing):
    # a run that exits non-zero ended the tool in a CalledProcessError
    # traceback
    sides = {side: stub_checkout(tmp_path / side, exit_code=3 if side == failing else 0)
             for side in ("parent", "change")}
    out = tmp_path / "bench.json"
    done = bench_pairs(sides["parent"], sides["change"], out)
    assert done.returncode == 1
    assert f"the {failing} run of desk-regression" in done.stderr
    assert "exited with code 3" in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


def test_bench_pairs_records_whether_digests_match(tmp_path):
    out = tmp_path / "bench.json"
    same = bench_pairs(stub_checkout(tmp_path / "a"), stub_checkout(tmp_path / "b"), out)
    moved = bench_pairs(stub_checkout(tmp_path / "c"), stub_checkout(tmp_path / "d", "ff"), out)
    assert same.returncode == moved.returncode == 0
    entries = json.loads(out.read_text())["runs"]
    assert [entry["digests_match"] for entry in entries] == [True, False]
    assert entries[1]["change_digests"] == ["digest desk-regression ff"]
    # each entry names the command line that made it
    assert entries[1]["command"] == shlex.join(
        ["python3", "tools/bench_pairs.py",
         *bench_pairs_args(tmp_path / "c", tmp_path / "d", out)])


TIGHT = tuple(100.0 + k for k in range(10))  # quartile spread 4.5 ms
WIDE = (90.0, 91.0, 92.0, 93.0, 94.0, 150.0, 160.0, 170.0, 180.0, 190.0)  # spread 74.25 ms


@pytest.mark.parametrize("parent, change, expected", [
    (TIGHT, tuple(v - 20 for v in TIGHT), "gain"),
    (TIGHT, tuple(v + 30 for v in TIGHT), "worse"),
    (WIDE, tuple(v + 1 for v in WIDE), "unresolved"),
    # wins every pair, but by less than the parent's spread: every change run
    # is better than every parent run, so a wide spread leaves no doubt
    (WIDE, tuple(85.0 + k / 2 for k in range(10)), "within bound"),
    (TIGHT, tuple(v + 1 for v in TIGHT), "within bound"),
], ids=["gain", "worse", "unresolved", "beats-every-run", "within-bound"])
def test_bench_pairs_states_each_metrics_verdict(tmp_path, parent, change, expected):
    # op_ms_p50's bound in BENCHMARK.json is a quarter of the parent's median
    out = tmp_path / "bench.json"
    done = bench_pairs(stub_checkout(tmp_path / "parent", op_ms=parent),
                       stub_checkout(tmp_path / "change", op_ms=change), out, pairs=10)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(out.read_text())["runs"][0]["metrics"]
    assert metrics["op_ms_p50"]["verdict"] == expected
    assert metrics["op_ms_p50"]["bound"] == 0.25
    assert metrics["op_ms_p50"]["parent"]["runs"] == list(parent)
    assert metrics["setup_s"]["verdict"] == "within bound"
    assert f"desk-regression op_ms_p50: {expected}" in done.stdout


def _refuse_constant(name):
    raise ValueError(f"the result line holds the non-JSON constant {name}")
