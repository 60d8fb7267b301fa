import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellatrex
from bellatrex import cli
from bellatrex.cli import main
from bellatrex.explain import (
    AblationFlags,
    derive_seed,
    plot_tsv,
    render_json_text,
    render_text,
    tune_and_explain,
)
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


def test_verbose_logs_preprocess_summary_to_stderr(tmp_path, capsys):
    # a blank covariate cell is imputed: -v shows preprocess's INFO summary
    # on stderr, and stdout and every written file stay byte-identical
    ds = make_binary(60, 4, seed=2)
    data, schema = tmp_path / "data.csv", tmp_path / "schema.txt"
    write_csv(ds, data)
    write_schema(ds, schema)
    lines = data.read_text().splitlines()
    cells = lines[5].split(",")
    cells[0] = ""
    lines[5] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n")
    outputs = {}
    for verbose in ([], ["-v"]):
        out = tmp_path / f"model{len(verbose)}"
        code = run(verbose + ["train", "--data", data, "--schema", schema, "--trees", 4,
                              "--out", out])
        captured = capsys.readouterr()
        assert code == 0
        outputs[bool(verbose)] = (captured.out.replace(str(out), "OUT"),
                                  {p.name: p.read_bytes() for p in sorted(out.iterdir())},
                                  captured.err)
    assert outputs[True][:2] == outputs[False][:2]
    assert "preprocess: kept 60/60 rows" in outputs[True][2]
    assert "imputed 1 cells" in outputs[True][2]
    assert outputs[False][2] == ""


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


@pytest.mark.parametrize("command", ["train", "explain", "benchmark", "ablate"])
def test_negative_seed_is_usage_error(binary_files, tmp_path, capsys, command):
    # numpy's bare "expected non-negative integer" used to be all it said
    _, data, schema = binary_files
    model = tmp_path / "model"
    assert run(["train", "--data", data, "--schema", schema, "--trees", 5, "--out", model]) == 0
    capsys.readouterr()
    extra = {"train": ["--trees", 3],
             "explain": ["--forest", model / "forest.json", "--instances", "0",
                         "--grid-tau", "4"],
             "benchmark": ["--trees", 5, "--folds", 2, "--grid-tau", "4"],
             "ablate": ["--trees", 5, "--folds", 2, "--grid-tau", "4"]}[command]
    out = tmp_path / "out"
    code = run([command, "--data", data, "--schema", schema, *extra, "--seed", -1,
                "--out", out])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("usage error: ") and "seed" in err
    assert not out.exists()


def test_invalid_task_is_usage_error(binary_files, tmp_path):
    _, data, _ = binary_files
    with pytest.raises(SystemExit) as err:
        run(["train", "--data", data, "--task", "banana",
             "--target", "label", "--out", tmp_path / "m"])
    assert err.value.code == 2


def test_duplicate_header_is_data_error(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    data.write_text("a,a,label\n" + "".join(f"{i},{-i},{i % 2}\n" for i in range(12)))
    code = run(["train", "--data", data, "--task", "binary", "--target", "label",
                "--trees", 3, "--out", tmp_path / "m"])
    err = capsys.readouterr().err
    assert code == 3
    assert "data error" in err and "'a' more than once" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m" / "forest.json").exists()


@pytest.mark.parametrize("command", ["train", "benchmark"])
@pytest.mark.parametrize("where", ["schema", "data"])
def test_undecodable_input_is_data_error(binary_files, tmp_path, capsys, where, command):
    # a UnicodeDecodeError is a ValueError, so these files used to be a
    # "usage error" (exit 2)
    _, data, schema = binary_files
    bad = {"data": data, "schema": schema}[where]
    bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xff\xfe", 1))
    out = tmp_path / "m"
    code = run([command, "--data", data, "--schema", schema, "--trees", 3, "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("data error: ") and str(bad) in err and "decode" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "explain", "benchmark", "ablate"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_out_that_cannot_be_a_directory_is_usage_error(binary_files, tmp_path, capsys,
                                                       monkeypatch, command, below):
    # the directory used to be made only after the work: train fitted the
    # forest and benchmark and ablate cross-validated, then each ended in a
    # FileExistsError or NotADirectoryError traceback (exit 1)
    _, data, schema = binary_files
    model = tmp_path / "model"
    assert run(["train", "--data", data, "--schema", schema, "--trees", 5, "--out", model]) == 0
    capsys.readouterr()
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "sub" if below else taken
    extra = {"train": ["--trees", 3],
             "explain": ["--forest", model / "forest.json", "--instances", "0",
                         "--grid-tau", "4"],
             "benchmark": ["--trees", 5, "--folds", 2, "--grid-tau", "4"],
             "ablate": ["--trees", 5, "--folds", 2, "--grid-tau", "4"]}[command]

    def no_work(*args, **kwargs):
        pytest.fail("the input was read before --out was checked")

    monkeypatch.setattr(cli, "_load_dataset", no_work)
    code = run([command, "--data", data, "--schema", schema, *extra, "--out", out])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("usage error: ") and f"{taken} is not a directory" in err
    assert "Traceback" not in err
    assert taken.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["data.csv", "schema.txt", "model", "taken"])


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


@pytest.mark.parametrize("files", ["binary_files", "survival_files"])
def test_explain_files_equal_per_row_explanations(files, tmp_path, request):
    _, data, schema = request.getfixturevalue(files)
    model = tmp_path / "model"
    run(["train", "--data", data, "--schema", schema, "--trees", 20, "--seed", 4,
         "--out", model])
    out = tmp_path / "expl"
    argv = ["explain", "--data", data, "--schema", schema, "--forest", model / "forest.json",
            "--instances", "0,3,17", "--grid-tau", "5,10", "--seed", 6, "--out", out]
    assert run(argv) == 0
    args = cli.build_parser().parse_args([str(a) for a in argv])
    ds = cli._load_dataset(args)
    forest = load_forest(model / "forest.json")
    for row in (0, 3, 17):
        e = tune_and_explain(forest, ds.covariates[row], cli._tuning_grid(args), args.mode,
                             AblationFlags(), seed=derive_seed(6, 909, row))
        stem = out / f"instance_{row}"
        assert stem.with_suffix(".txt").read_text() == render_text(e, ds.covariate_names, forest)
        assert stem.with_suffix(".json").read_text() == render_json_text(
            e, ds.covariate_names, forest)
        assert stem.with_suffix(".tsv").read_text() == plot_tsv(e)


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


@pytest.mark.parametrize("arm", ["--no-preselect", "--no-pca"])
def test_explain_checks_only_the_axes_it_tunes(binary_files, tmp_path, capsys, arm):
    # the CLI checked the whole grid before explain_batch checked each arm's
    # own axes: --no-preselect on a 40-tree forest failed on the default
    # taus 50 and 80, --no-pca on a dimension it never projects to
    _, data, schema = binary_files
    model = tmp_path / "model"
    run(["train", "--data", data, "--schema", schema, "--trees", 40, "--out", model])
    grid = [] if arm == "--no-preselect" else ["--grid-tau", "20", "--grid-d", "0"]
    args = ["explain", "--data", data, "--schema", schema, "--forest", model / "forest.json",
            "--instances", "3", *grid, "--seed", 4]
    capsys.readouterr()
    assert run([*args, arm, "--out", tmp_path / "expl"]) == 0
    doc = json.loads((tmp_path / "expl" / "instance_3.json").read_text())
    assert doc["chosen_tau"] == (40 if arm == "--no-preselect" else 20)
    if arm == "--no-pca":
        assert doc["chosen_d"] == 5  # p, the identity
    # the grid the arm does tune over is still checked
    code = run([*args, arm, "--grid-k", "1,50", "--out", tmp_path / "bad"])
    err = capsys.readouterr().err
    assert code == 2 and "usage error: every K must be <= every tau" in err


@pytest.mark.parametrize("grid, message", [
    (["--grid-tau", "20,50"], "every tau must lie in [1, 40]"),
    (["--grid-tau", "20", "--grid-d", "0"], "projection dimensions must be positive"),
])
def test_explain_invalid_grid_is_usage_error(binary_files, tmp_path, capsys, grid, message):
    _, data, schema = binary_files
    model = tmp_path / "model"
    run(["train", "--data", data, "--schema", schema, "--trees", 40, "--out", model])
    capsys.readouterr()
    code = run(["explain", "--data", data, "--schema", schema, "--forest", model / "forest.json",
                "--instances", "3", *grid, "--out", tmp_path / "expl"])
    err = capsys.readouterr().err
    assert code == 2 and f"usage error: {message}" in err
    assert not (tmp_path / "expl").exists()


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


def run_process(args, timeout=60):
    """The CLI in a child process, under a timeout: (exit code, stderr)."""
    src = str(Path(bellatrex.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "bellatrex.cli", *map(str, args)],
                          capture_output=True, text=True, timeout=timeout, env=env)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("low, high", [("-inf", "inf"), ("-Infinity", "Infinity")])
def test_train_infinite_covariate_is_data_error(tmp_path, low, high):
    # with only -inf and inf in a column, a split's midpoint was NaN, every
    # row went right and training never ended; an infinite cell is now
    # rejected.  The CLI runs in a child process under a time limit
    data = tmp_path / "inf.csv"
    data.write_text("x,y\n" + f"{low},0\n" * 3 + f"{high},1\n" * 3)
    schema = tmp_path / "schema.txt"
    schema.write_text("task=binary\ntarget=y\n")
    code, err = run_process(["train", "--data", data, "--schema", schema, "--trees", 2,
                             "--out", tmp_path / "model"])
    assert code == 3, err
    assert "covariate 'x' is infinite in row 0" in err
    assert "Traceback" not in err


def _split_nodes(tree):
    return [v for v, j in enumerate(tree["feature"]) if j >= 0]


def _threshold_short(doc):
    doc["trees"][1]["threshold"].pop()


def _node_pred_truncated(doc):
    for tree in doc["trees"]:
        tree["node_pred"] = tree["node_pred"][: len(tree["node_pred"]) // 2]


def _feature_out_of_range(doc):
    doc["trees"][-1]["feature"][0] = 5  # the forest has p = 5


def _child_out_of_range(doc):
    doc["trees"][-1]["left"][0] = doc["trees"][-1]["right"][0] = 10 ** 6


def _child_is_own_node(doc):
    for tree in doc["trees"]:
        tree["left"][0] = tree["right"][0] = 0


def _leaf_with_children(doc):
    tree = doc["trees"][0]
    leaf = tree["feature"].index(-1)
    tree["left"][leaf] = tree["right"][leaf] = 0


def _cycle_cut_off_from_root(doc):
    # a non-root split node a under s hands its left child to s and becomes
    # its own left child: every node keeps one parent, but a and its right
    # subtree are no longer reachable from the root
    tree = doc["trees"][0]
    a = next(v for v in _split_nodes(tree) if v > 0)
    s = next(v for v in _split_nodes(tree) if a in (tree["left"][v], tree["right"][v]))
    side = "left" if tree["left"][s] == a else "right"
    tree[side][s] = tree["left"][a]
    tree["left"][a] = a


def _p_differs_from_names(doc):
    doc["p"] = 6


def _split_threshold_null(doc):
    tree = doc["trees"][0]
    tree["threshold"][_split_nodes(tree)[0]] = None


def _node_pred_nan(doc):
    doc["trees"][2]["node_pred"][0] = [float("nan")]


def _feature_overflows(doc):
    doc["trees"][0]["feature"][0] = 10 ** 20


def _sample_count_overflows(doc):
    doc["trees"][1]["sample_count"][0] = 10 ** 30


# each corrupts the forest.json of a 5-tree binary forest over 5 covariates
FOREST_FAULTS = {
    "array-lengths-disagree": _threshold_short,
    "node-pred-truncated": _node_pred_truncated,
    "split-feature-out-of-range": _feature_out_of_range,
    "child-out-of-range": _child_out_of_range,
    "child-is-own-node": _child_is_own_node,
    "leaf-with-children": _leaf_with_children,
    "cycle-cut-off-from-root": _cycle_cut_off_from_root,
    "p-differs-from-names": _p_differs_from_names,
    "split-threshold-null": _split_threshold_null,
    "node-pred-nan": _node_pred_nan,
    "feature-overflows-int32": _feature_overflows,
    "sample-count-overflows-int64": _sample_count_overflows,
}


@pytest.mark.parametrize("fault", sorted(FOREST_FAULTS))
def test_explain_malformed_forest_is_data_error(binary_files, tmp_path, fault):
    path = trained_model(binary_files, tmp_path)
    doc = json.loads(path.read_text())
    FOREST_FAULTS[fault](doc)
    path.write_text(json.dumps(doc))
    _, data, schema = binary_files
    code, err = run_process(["explain", "--data", data, "--schema", schema,
                             "--forest", path, "--instances", "0,1,2,3",
                             "--grid-tau", "5", "--grid-k", "1", "--out", tmp_path / "x"])
    assert code == 3, err
    assert "data error: malformed serialized forest" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("version", [2, "1"])
def test_explain_unknown_forest_version_is_data_error(binary_files, tmp_path, version):
    # the loader never read "version": any value loaded as version 1
    path = trained_model(binary_files, tmp_path)
    doc = json.loads(path.read_text())
    doc["version"] = version
    path.write_text(json.dumps(doc))
    _, data, schema = binary_files
    code, err = run_process(["explain", "--data", data, "--schema", schema,
                             "--forest", path, "--instances", "0", "--grid-tau", "5",
                             "--out", tmp_path / "x"])
    assert code == 3, err
    assert f"data error: unsupported forest format version {json.dumps(version)};" in err


def test_explain_deeply_nested_forest_is_data_error(binary_files, tmp_path):
    # the parser's recursion limit ended in a RecursionError traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    _, data, schema = binary_files
    code, err = run_process(["explain", "--data", data, "--schema", schema,
                             "--forest", path, "--instances", "0", "--out", tmp_path / "x"])
    assert code == 3, err
    assert f"data error: forest file {path}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "explain"])
def test_unwritable_output_is_usage_error(binary_files, tmp_path, capsys, command):
    # a directory where an output file goes: the write raised an OSError
    # that ended in a traceback
    _, data, schema = binary_files
    out = tmp_path / "out"
    if command == "train":
        blocked = out / "forest.json"
        args = ["train", "--data", data, "--schema", schema, "--trees", 3, "--out", out]
    else:
        blocked = out / "instance_0.txt"
        args = ["explain", "--data", data, "--schema", schema,
                "--forest", trained_model(binary_files, tmp_path), "--instances", "0",
                "--grid-tau", "5", "--grid-k", "1", "--out", out]
    blocked.mkdir(parents=True)
    capsys.readouterr()
    code = run(args)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"usage error: cannot write {blocked}" in err


def test_explain_leaf_km_key_not_a_leaf_is_data_error(survival_files, tmp_path):
    _, data, schema = survival_files
    model = tmp_path / "model"
    assert run(["train", "--data", data, "--schema", schema, "--trees", 5,
                "--out", model]) == 0
    path = model / "forest.json"
    doc = json.loads(path.read_text())
    tree = doc["trees"][0]
    assert tree["feature"][0] >= 0
    tree["leaf_km"]["0"] = next(iter(tree["leaf_km"].values()))
    path.write_text(json.dumps(doc))
    code, err = run_process(["explain", "--data", data, "--schema", schema,
                             "--forest", path, "--instances", "0",
                             "--grid-tau", "5", "--grid-k", "1", "--out", tmp_path / "x"])
    assert code == 3, err
    assert "leaf_km" in err and "Traceback" not in err


def test_explain_covariate_count_mismatch_is_data_error(binary_files, tmp_path, capsys):
    # without covariate names in the file, only p tells the schemas apart
    path = trained_model(binary_files, tmp_path)
    doc = json.loads(path.read_text())
    doc["covariate_names"] = None
    path.write_text(json.dumps(doc))
    other = make_binary(50, 7, seed=9)
    other_csv = tmp_path / "other.csv"
    other_schema = tmp_path / "other_schema.txt"
    write_csv(other, other_csv)
    write_schema(other, other_schema)
    capsys.readouterr()
    code = run(["explain", "--data", other_csv, "--schema", other_schema,
                "--forest", path, "--instances", "0", "--grid-tau", "5",
                "--out", tmp_path / "x"])
    err = capsys.readouterr().err
    assert code == 3
    assert "forest has 5 covariates, the data has 7" in err
    assert not list((tmp_path / "x").glob("instance_*"))


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


def test_tau_larger_than_forest_is_usage_error(binary_files, tmp_path, capsys):
    _, data, schema = binary_files
    for command in ("benchmark", "ablate"):
        out = tmp_path / command
        code = run([command, "--data", data, "--schema", schema,
                    "--trees", "10", "--grid-tau", "40", "--out", out])
        err = capsys.readouterr().err
        assert code == 2, command
        assert "tau" in err and "Traceback" not in err, err
        assert not out.exists(), command


@pytest.mark.parametrize("command, report", [("benchmark", "report.tsv"),
                                             ("ablate", "ablation.tsv")])
@pytest.mark.parametrize("max_test", [-1, -2])
def test_negative_max_test_is_usage_error(binary_files, tmp_path, capsys, command, report,
                                          max_test):
    # a negative cap used to drop that many test rows of every fold silently
    _, data, schema = binary_files
    out = tmp_path / "bench"
    code = run([command, "--data", data, "--schema", schema, "--folds", "2",
                "--trees", "5", "--grid-tau", "4", "--max-test", max_test, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert "max_test must be non-negative" in err
    assert "Traceback" not in err
    assert not (out / report).exists()


@pytest.mark.parametrize("instances", ["", " , "])
def test_explain_without_instances_is_usage_error(binary_files, tmp_path, capsys, instances):
    _, data, schema = binary_files
    model = tmp_path / "model"
    run(["train", "--data", data, "--schema", schema, "--trees", 5, "--out", model])
    capsys.readouterr()
    out = tmp_path / "expl"
    code = run(["explain", "--data", data, "--schema", schema,
                "--forest", model / "forest.json", "--instances", instances,
                "--grid-tau", "4", "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert "--instances names no rows" in err
    assert not list(out.glob("instance_*"))


@pytest.mark.parametrize("schema_text, header, bad_row, target", [
    ("task=regression\ntarget=y\n", "x,y", "0.5,inf", "y"),
    ("task=regression\ntarget=y\n", "x,y", "0.5,-Infinity", "y"),
    ("task=survival\ntime=t\nevent=e\n", "x,t,e", "0.5,inf,1", "t"),
])
@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_infinite_target_is_data_error(tmp_path, capsys, schema_text, header, bad_row, target,
                                       command):
    # an infinite target used to train a forest of NaN node predictions
    # (train exited 0) and a benchmark of NaN performance; survival times
    # of inf trained and explained
    lines = [f"{(i % 7) / 7},{1 + i % 5}" + (",1" if "e" in header else "") for i in range(40)]
    lines[17] = bad_row
    data = tmp_path / "inf_target.csv"
    data.write_text(header + "\n" + "\n".join(lines) + "\n")
    schema = tmp_path / "schema.txt"
    schema.write_text(schema_text)
    out = tmp_path / "out"
    code = run([command, "--data", data, "--schema", schema, "--trees", 3, "--folds", 2,
                "--out", out] if command == "benchmark" else
               [command, "--data", data, "--schema", schema, "--trees", 3, "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"target {target!r} is infinite in row 17" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["benchmark", "ablate"])
@pytest.mark.parametrize("option", [["--mode", "simple"], ["--no-preselect"], ["--no-pca"]])
def test_cross_validation_rejects_explain_only_options(binary_files, tmp_path, capsys, command,
                                                       option):
    # benchmark runs both modes and ablate every arm; these options used to
    # be accepted and ignored
    _, data, schema = binary_files
    out = tmp_path / "bench"
    with pytest.raises(SystemExit) as exc:
        run([command, "--data", data, "--schema", schema, "--trees", 5, "--grid-tau", 4,
             *option, "--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not out.exists()


def test_explain_keeps_pipeline_options():
    args = cli.build_parser().parse_args(
        ["explain", "--data", "d.csv", "--forest", "f.json", "--instances", "0", "--out", "o",
         "--mode", "simple", "--no-preselect", "--no-pca"])
    assert (args.mode, args.no_preselect, args.no_pca) == ("simple", True, True)


def test_overflowing_target_range_trains(tmp_path, capsys):
    # targets of -1.5e308 and 1.7e308: hi - lo overflowed, and the forest
    # was grown on NaN targets
    lines = [f"{(i % 7) / 7},{(-1.5e308, 1.7e308, 0.0, 1e307)[i % 4]!r}" for i in range(40)]
    data = tmp_path / "wide.csv"
    data.write_text("x,y\n" + "\n".join(lines) + "\n")
    schema = tmp_path / "schema.txt"
    schema.write_text("task=regression\ntarget=y\n")
    out = tmp_path / "model"
    code = run(["train", "--data", data, "--schema", schema, "--trees", 3, "--out", out])
    err = capsys.readouterr().err
    assert code == 0, err
    assert "Traceback" not in err
    forest = load_forest(out / "forest.json")
    assert all(np.isfinite(tree.node_pred).all() for tree in forest.trees)
