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


STUB_RUN = """import json, sys
if {exit_code}:
    sys.exit({exit_code})
print("# env stub")
print("digest desk-regression {digest}")
print(json.dumps({{"correct": True, "failed": 0, "metrics": {{
    name: {{"value": 1.0}} for name in ("op_ms_p50", "setup_s", "peak_rss_mb")}}}}))
"""


def stub_checkout(root: Path, digest: str = "00", exit_code: int = 0) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(digest=digest, exit_code=exit_code))
    return root


def bench_pairs_args(parent: Path, change: Path, out: Path) -> list[str]:
    return ["--parent", str(parent), "--change", str(change), "--workload", "desk-regression",
            "--pairs", "2", "--out", str(out)]


def bench_pairs(parent: Path, change: Path, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
         *bench_pairs_args(parent, change, out)], capture_output=True, text=True, timeout=60)


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


def _refuse_constant(name):
    raise ValueError(f"the result line holds the non-JSON constant {name}")
