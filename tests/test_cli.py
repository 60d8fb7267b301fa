import json
import os

import pytest

from bellatrex.cli import main
from bellatrex.forest import load_forest
from bellatrex.synthdata import (
    make_binary,
    make_survival,
    write_csv,
    write_schema,
)


@pytest.fixture
def binary_files(tmp_path):
    ds = make_binary(120, 5, seed=0)
    data = tmp_path / "data.csv"
    schema = tmp_path / "schema.txt"
    write_csv(ds, data)
    write_schema(ds, schema)
    return ds, data, schema


@pytest.fixture
def survival_files(tmp_path):
    ds = make_survival(90, 4, seed=1)
    data = tmp_path / "surv.csv"
    schema = tmp_path / "surv_schema.txt"
    write_csv(ds, data)
    write_schema(ds, schema)
    return ds, data, schema


def run(args):
    return main([str(a) for a in args])


def test_train_writes_forest_and_log(binary_files, tmp_path):
    _, data, schema = binary_files
    out = tmp_path / "model"
    code = run(["train", "--data", data, "--schema", schema,
                "--trees", 10, "--seed", 3, "--out", out])
    assert code == 0
    forest = load_forest(out / "forest.json")
    assert forest.n_trees == 10
    log = (out / "train_log.txt").read_text()
    assert "oob_error" in log
    assert len(log.strip().splitlines()) == 3 + 10  # header lines + per-tree rows


def test_train_survival_min_split_default(survival_files, tmp_path):
    _, data, schema = survival_files
    out = tmp_path / "model"
    assert run(["train", "--data", data, "--schema", schema,
                "--trees", 5, "--out", out]) == 0
    forest = load_forest(out / "forest.json")
    assert forest.min_samples_split == 10


def test_train_negative_max_depth_is_usage_error(binary_files, tmp_path, capsys):
    _, data, schema = binary_files
    out = tmp_path / "model"
    code = run(["train", "--data", data, "--schema", schema,
                "--trees", 3, "--max-depth", -1, "--out", out])
    assert code == 2
    assert "max_depth" in capsys.readouterr().err
    assert not (out / "forest.json").exists()


def test_invalid_task_is_usage_error(binary_files, tmp_path):
    _, data, _ = binary_files
    with pytest.raises(SystemExit) as err:
        run(["train", "--data", data, "--task", "banana",
             "--target", "label", "--out", tmp_path / "m"])
    assert err.value.code == 2


def test_missing_file_is_data_error(tmp_path):
    code = run(["train", "--data", tmp_path / "absent.csv", "--task", "binary",
                "--target", "label", "--out", tmp_path / "m"])
    assert code == 3


def test_explain_emits_three_files(binary_files, tmp_path):
    _, data, schema = binary_files
    model = tmp_path / "model"
    run(["train", "--data", data, "--schema", schema, "--trees", 20,
         "--out", model])
    out = tmp_path / "expl"
    code = run(["explain", "--data", data, "--schema", schema,
                "--forest", model / "forest.json",
                "--instances", "0,7", "--grid-tau", "5,10",
                "--grid-k", "1,2", "--out", out])
    assert code == 0
    for row in (0, 7):
        for ext in (".txt", ".json", ".tsv"):
            assert (out / f"instance_{row}{ext}").exists()
    doc = json.loads((out / "instance_0.json").read_text())
    assert set(doc) >= {"chosen_tau", "chosen_d", "chosen_k", "rules", "weights",
                        "surrogate", "forest_prediction", "fidelity",
                        "projected_points"}


def test_explain_k_fixed_overrides_grid(binary_files, tmp_path):
    _, data, schema = binary_files
    model = tmp_path / "model"
    run(["train", "--data", data, "--schema", schema, "--trees", 20, "--out", model])
    out = tmp_path / "expl"
    code = run(["explain", "--data", data, "--schema", schema,
                "--forest", model / "forest.json", "--instances", "3",
                "--grid-tau", "10", "--k-fixed", "2", "--out", out])
    assert code == 0
    doc = json.loads((out / "instance_3.json").read_text())
    assert doc["chosen_k"] <= 2
    assert len(doc["rules"]) == doc["chosen_k"]


@pytest.mark.parametrize("k", [0, -2])
def test_explain_k_fixed_below_one_is_usage_error(binary_files, tmp_path, capsys, k):
    _, data, schema = binary_files
    model = tmp_path / "model"
    run(["train", "--data", data, "--schema", schema, "--trees", 10, "--out", model])
    capsys.readouterr()
    out = tmp_path / "expl"
    code = run(["explain", "--data", data, "--schema", schema,
                "--forest", model / "forest.json", "--instances", "3",
                "--grid-tau", "5", "--k-fixed", k, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert "cluster counts must be positive" in err
    assert "Traceback" not in err
    assert not list(out.glob("instance_*"))


def test_explain_fold_selector(binary_files, tmp_path):
    _, data, schema = binary_files
    model = tmp_path / "model"
    run(["train", "--data", data, "--schema", schema, "--trees", 10, "--out", model])
    out = tmp_path / "expl"
    code = run(["explain", "--data", data, "--schema", schema,
                "--forest", model / "forest.json", "--instances", "fold:0",
                "--folds", "8", "--grid-tau", "5", "--grid-k", "1",
                "--grid-d", "2", "--out", out])
    assert code == 0
    produced = list(out.glob("instance_*.json"))
    assert len(produced) == 15  # 120 / 8


def test_explain_schema_mismatch_is_data_error(binary_files, tmp_path):
    _, data, schema = binary_files
    model = tmp_path / "model"
    run(["train", "--data", data, "--schema", schema, "--trees", 5, "--out", model])
    other = make_binary(50, 7, seed=9)
    other_csv = tmp_path / "other.csv"
    other_schema = tmp_path / "other_schema.txt"
    write_csv(other, other_csv)
    write_schema(other, other_schema)
    code = run(["explain", "--data", other_csv, "--schema", other_schema,
                "--forest", model / "forest.json", "--instances", "0",
                "--out", tmp_path / "x"])
    assert code == 3


def trained_model(binary_files, tmp_path):
    _, data, schema = binary_files
    model = tmp_path / "model"
    assert run(["train", "--data", data, "--schema", schema, "--trees", 5,
                "--out", model]) == 0
    return model / "forest.json"


def explain_with_forest(binary_files, tmp_path, forest_path):
    _, data, schema = binary_files
    return run(["explain", "--data", data, "--schema", schema,
                "--forest", forest_path, "--instances", "0",
                "--grid-tau", "5", "--grid-k", "1", "--out", tmp_path / "x"])


def assert_data_error_without_traceback(code, capsys):
    err = capsys.readouterr().err
    assert code == 3
    assert "data error" in err
    assert "Traceback" not in err


def test_explain_missing_forest_file_is_data_error(binary_files, tmp_path, capsys):
    code = explain_with_forest(binary_files, tmp_path, tmp_path / "absent.json")
    assert_data_error_without_traceback(code, capsys)


def test_explain_truncated_forest_is_data_error(binary_files, tmp_path, capsys):
    path = trained_model(binary_files, tmp_path)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    code = explain_with_forest(binary_files, tmp_path, path)
    assert_data_error_without_traceback(code, capsys)


def test_explain_wrong_forest_format_is_data_error(binary_files, tmp_path, capsys):
    path = trained_model(binary_files, tmp_path)
    doc = json.loads(path.read_text())
    doc["format"] = "something-else"
    path.write_text(json.dumps(doc))
    code = explain_with_forest(binary_files, tmp_path, path)
    assert_data_error_without_traceback(code, capsys)


def test_explain_forest_missing_key_is_data_error(binary_files, tmp_path, capsys):
    path = trained_model(binary_files, tmp_path)
    doc = json.loads(path.read_text())
    del doc["trees"][0]["left"]
    path.write_text(json.dumps(doc))
    code = explain_with_forest(binary_files, tmp_path, path)
    assert_data_error_without_traceback(code, capsys)


def test_explain_modes_differ_in_vectors(binary_files, tmp_path):
    _, data, schema = binary_files
    model = tmp_path / "model"
    run(["train", "--data", data, "--schema", schema, "--trees", 20, "--out", model])
    outs = {}
    for mode in ("simple", "weighted"):
        out = tmp_path / f"expl_{mode}"
        assert run(["explain", "--data", data, "--schema", schema,
                    "--forest", model / "forest.json", "--instances", "0",
                    "--grid-tau", "10", "--grid-k", "2", "--grid-d", "none",
                    "--mode", mode, "--out", out]) == 0
        outs[mode] = json.loads((out / "instance_0.json").read_text())
    assert outs["simple"]["mode"] == "simple"
    assert outs["weighted"]["mode"] == "weighted"


def benchmark_args(data, schema, out, threads=None):
    return ["benchmark", "--data", data, "--schema", schema, "--folds", "3",
            "--trees", "10", "--grid-tau", "4,8", "--grid-d", "2,none",
            "--grid-k", "1,2", "--max-test", "12", "--seed", "5",
            "--name", "demo", "--out", out]


def test_benchmark_report_structure(binary_files, tmp_path):
    _, data, schema = binary_files
    out = tmp_path / "bench"
    assert run(benchmark_args(data, schema, out)) == 0
    tsv = (out / "report.tsv").read_text()
    lines = tsv.strip().splitlines()
    # header + 6 methods x 3 folds + 6 averages
    assert len(lines) == 1 + 18 + 6
    assert sum("average" in ln for ln in lines) == 6
    report = json.loads((out / "report.json").read_text())
    assert {a["method"] for a in report["aggregates"]} == {
        "rf", "bellatrex-weighted", "bellatrex-simple", "dt", "small-rf",
        "oob-trees"}


def test_benchmark_byte_identical_reruns_and_threads(binary_files, tmp_path):
    _, data, schema = binary_files
    texts = []
    for i, threads in enumerate(("1", "3", "1")):
        out = tmp_path / f"bench{i}"
        env_before = os.environ.get("BELLATREX_THREADS")
        os.environ["BELLATREX_THREADS"] = threads
        try:
            assert run(benchmark_args(data, schema, out)) == 0
        finally:
            if env_before is None:
                os.environ.pop("BELLATREX_THREADS", None)
            else:
                os.environ["BELLATREX_THREADS"] = env_before
        texts.append((out / "report.tsv").read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_ablate_four_arms(binary_files, tmp_path):
    _, data, schema = binary_files
    out = tmp_path / "abl"
    code = run(["ablate", "--data", data, "--schema", schema, "--folds", "2",
                "--trees", "10", "--grid-tau", "4,8", "--grid-d", "2,none",
                "--grid-k", "1,2", "--max-test", "10", "--out", out])
    assert code == 0
    tsv = (out / "ablation.tsv").read_text()
    for arm in ("full", "no-preselect", "no-pca", "neither"):
        assert arm in tsv
    doc = json.loads((out / "ablation.json").read_text())
    no_pca = [r for r in doc["rows"]
              if r["arm"] == "no-pca" and r["fold"] == "average"][0]
    assert no_pca["mean_chosen_d"] == 5.0  # p


def test_tau_larger_than_forest_is_usage_error(binary_files, tmp_path):
    _, data, schema = binary_files
    out = tmp_path / "bench"
    code = run(["benchmark", "--data", data, "--schema", schema,
                "--trees", "10", "--grid-tau", "40", "--out", out])
    assert code == 2
