import numpy as np
import pytest

from bellatrex.data import (
    Dataset,
    TargetSpec,
    TaskKind,
    kfold,
    load_csv,
    parse_schema,
    preprocess,
    scale_targets,
)
from bellatrex.errors import EmptyDataError, ParseError, SchemaError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_binary_counts(tmp_path):
    path = write(tmp_path, "d.csv", "a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
    ds = load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)
    assert ds.n == 3 and ds.p == 2
    assert ds.task is TaskKind.BINARY
    assert ds.covariate_names == ("a", "b")


def test_load_csv_missing_event_column_is_schema_error(tmp_path):
    path = write(tmp_path, "d.csv", "a,time\n1,2\n3,4\n")
    with pytest.raises(SchemaError):
        load_csv(path, TargetSpec(time="time", event="event"), TaskKind.SURVIVAL)
    with pytest.raises(SchemaError):
        load_csv(path, TargetSpec(time="time"), TaskKind.SURVIVAL)


def test_load_csv_malformed_row_reports_row_number(tmp_path):
    path = write(tmp_path, "d.csv", "a,b,y\n1,2,0\n3,4\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)


@pytest.mark.parametrize("text, target, name", [
    ("a,a,y\n1,2,0\n3,4,1\n", "y", "a"),  # the second 'a' column used to be lost
    ("a,y,y\n1,0,1\n3,1,0\n", "y", "y"),  # a repeated target name dropped a column
    ("a, b,b ,y\n1,2,3,0\n", "y", "b"),  # names are compared after stripping
], ids=["covariate", "target", "stripped"])
def test_load_csv_rejects_duplicate_header_names(tmp_path, text, target, name):
    path = write(tmp_path, "d.csv", text)
    with pytest.raises(ParseError, match=f"column '{name}' more than once"):
        load_csv(path, TargetSpec(columns=(target,)), TaskKind.BINARY)


def test_load_csv_missing_target_column(tmp_path):
    path = write(tmp_path, "d.csv", "a,b\n1,2\n")
    with pytest.raises(SchemaError, match="target column"):
        load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)


def test_nonbinary_label_rejected(tmp_path):
    path = write(tmp_path, "d.csv", "a,y\n1,2\n2,0\n")
    with pytest.raises(SchemaError, match="must be 0 or 1"):
        load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)


def test_one_hot_expansion_adds_levels_minus_one(tmp_path):
    path = write(tmp_path, "d.csv",
                 "a,c,y\n1,red,0\n2,green,1\n3,blue,0\n4,red,1\n")
    raw = load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)
    assert raw.categorical == {"c"}
    ds = preprocess(raw)
    # 3 levels one-hot replace the original column: p goes from 2 to 4
    assert ds.p == raw.p + 2
    onehot = [j for j, name in enumerate(ds.covariate_names) if name.startswith("c=")]
    assert len(onehot) == 3
    assert np.allclose(ds.covariates[:, onehot].sum(axis=1), 1.0)


def test_preprocess_drops_column_over_threshold(tmp_path):
    rows = ["a,b,y"]
    for i in range(10):
        b = "" if i < 4 else str(i)  # 40% missing
        rows.append(f"{i},{b},{i % 2}")
    path = write(tmp_path, "d.csv", "\n".join(rows) + "\n")
    raw = load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)
    ds = preprocess(raw, col_drop_threshold=0.30)
    assert ds.covariate_names == ("a",)
    kept = preprocess(raw, col_drop_threshold=0.45)
    assert kept.covariate_names == ("a", "b")


def test_preprocess_median_imputation(tmp_path):
    path = write(
        tmp_path, "d.csv",
        "a,b,c,d,y\n1,5,5,5,0\nNA,6,6,6,1\n3,7,7,7,0\n4,8,8,8,1\n",
    )
    raw = load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)
    ds = preprocess(raw)
    assert ds.n == 4
    assert ds.covariates[1, 0] == 3.0  # median of {1, 3, 4}


def test_preprocess_median_imputation_middle_value(tmp_path):
    # column [1, ?, 3] imputes the median 2.0 of the present values
    rows = ["a,b,c,d,y", "1,5,5,5,0", "NA,6,6,6,1", "3,7,7,7,0"]
    path = write(tmp_path, "d.csv", "\n".join(rows) + "\n")
    raw = load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)
    ds = preprocess(raw, col_drop_threshold=0.40)
    assert ds.covariates[1, 0] == 2.0


def test_preprocess_mode_imputation_tie_is_lexicographic(tmp_path):
    path = write(
        tmp_path, "d.csv",
        "c,f1,f2,f3,y\nb,1,1,1,0\na,2,2,2,1\nNA,3,3,3,0\nb,4,4,4,1\na,5,5,5,0\n",
    )
    raw = load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)
    ds = preprocess(raw)
    names = dict(zip(ds.covariate_names, ds.covariates[2]))
    assert names["c=a"] == 1.0  # tie between a and b resolves to "a"


def test_preprocess_no_missing_is_identity(tmp_path):
    path = write(tmp_path, "d.csv", "a,b,y\n1,2,0\n3,4,1\n")
    raw = load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)
    ds = preprocess(raw)
    assert np.array_equal(ds.covariates, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_preprocess_idempotent(tmp_path):
    path = write(tmp_path, "d.csv",
                 "a,c,y\n1,u,0.5\nNA,v,1.5\n3,u,2.5\n4,NA,3.5\n")
    raw = load_csv(path, TargetSpec(columns=("y",)), TaskKind.REGRESSION)
    once = preprocess(raw)
    twice = preprocess(once)
    assert once.covariate_names == twice.covariate_names
    assert np.array_equal(once.covariates, twice.covariates)
    assert np.array_equal(once.targets, twice.targets)


def test_preprocess_drops_rows_with_missing_targets(tmp_path):
    path = write(tmp_path, "d.csv", "a,y\n1,0\n2,NA\n3,1\n")
    raw = load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)
    ds = preprocess(raw)
    assert ds.n == 2


def test_preprocess_all_dropped_is_empty_error(tmp_path):
    path = write(tmp_path, "d.csv", "a,b,y\nNA,NA,0\nNA,NA,1\n")
    raw = load_csv(path, TargetSpec(columns=("y",)), TaskKind.BINARY)
    with pytest.raises(EmptyDataError):
        preprocess(raw, col_drop_threshold=0.5, row_drop_threshold=0.5)


def test_target_normalization_bounds():
    targets = np.array([[2.0], [4.0], [10.0]])
    ds = Dataset(
        task=TaskKind.REGRESSION,
        covariates=np.zeros((3, 1)),
        covariate_names=("a",),
        targets=targets,
        target_names=("y",),
        preprocessed=True,
    )
    scaled = scale_targets(ds)
    assert scaled.targets.min() == 0.0 and scaled.targets.max() == 1.0


def test_target_normalization_uses_fold_stats_and_clips():
    targets = np.array([[0.0], [10.0], [20.0]])
    ds = Dataset(
        task=TaskKind.REGRESSION,
        covariates=np.zeros((3, 1)),
        covariate_names=("a",),
        targets=targets,
        target_names=("y",),
        preprocessed=True,
    )
    scaled = scale_targets(ds, rows=np.array([0, 1]))
    assert scaled.targets[1, 0] == 1.0
    assert scaled.targets[2, 0] == 1.0  # outside the training range, clipped


def test_overflowing_target_range_scales_by_halves():
    # hi - lo overflows to inf here; the scaled targets used to be NaN and 0
    # with an "invalid value" warning
    targets = np.array([[-1.5e308, 2.0], [1.7e308, 4.0], [0.0, 10.0], [1e308, 3.0]])
    ds = Dataset(
        task=TaskKind.MULTI_TARGET,
        covariates=np.zeros((4, 1)),
        covariate_names=("a",),
        targets=targets,
        target_names=("y", "z"),
        preprocessed=True,
    )
    with np.errstate(all="raise"):
        scaled = scale_targets(ds).targets
    lo, hi = -1.5e308, 1.7e308
    assert scaled[:, 0].tolist() == [0.0, 1.0, (0.0 - lo / 2) / (hi / 2 - lo / 2),
                                     (1e308 / 2 - lo / 2) / (hi / 2 - lo / 2)]
    assert 0.0 < scaled[2, 0] < scaled[3, 0] < 1.0
    # a range that does not overflow keeps the plain formula's bytes
    expected = np.clip((targets[:, 1] - 2.0) / 8.0, 0.0, 1.0)
    assert scaled[:, 1].tobytes() == expected.tobytes()


def test_constant_target_maps_to_zeros():
    ds = Dataset(
        task=TaskKind.REGRESSION,
        covariates=np.zeros((3, 1)),
        covariate_names=("a",),
        targets=np.full((3, 1), 7.0),
        target_names=("y",),
        preprocessed=True,
    )
    assert np.all(scale_targets(ds).targets == 0.0)


def test_survival_time_must_be_positive(tmp_path):
    path = write(tmp_path, "d.csv", "a,time,event\n1,0,1\n2,3,0\n")
    with pytest.raises(SchemaError, match="positive"):
        load_csv(path, TargetSpec(time="time", event="event"), TaskKind.SURVIVAL)


def test_kfold_even_split():
    plan = kfold(10, 5, seed=0)
    sizes = np.bincount(plan.assignments)
    assert np.array_equal(sizes, np.full(5, 2))


def test_kfold_remainder_distribution():
    plan = kfold(11, 5, seed=0)
    sizes = sorted(np.bincount(plan.assignments), reverse=True)
    assert sizes == [3, 2, 2, 2, 2]


def test_kfold_deterministic():
    a = kfold(37, 5, seed=9)
    b = kfold(37, 5, seed=9)
    assert np.array_equal(a.assignments, b.assignments)
    c = kfold(37, 5, seed=10)
    assert not np.array_equal(a.assignments, c.assignments)


def test_kfold_k_greater_than_n():
    with pytest.raises(ValueError):
        kfold(3, 5, seed=0)


def test_split_partitions():
    plan = kfold(23, 4, seed=2)
    train, test = plan.split(1)
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(23))


def test_parse_schema_round_trip(tmp_path):
    path = write(tmp_path, "s.txt",
                 "# comment\ntask=survival\ntime=T\nevent=E\ncategorical=c1,c2\n")
    task, spec = parse_schema(path)
    assert task is TaskKind.SURVIVAL
    assert spec.time == "T" and spec.event == "E"
    assert spec.categorical == ("c1", "c2")


def test_parse_schema_unknown_task(tmp_path):
    path = write(tmp_path, "s.txt", "task=banana\n")
    with pytest.raises(SchemaError):
        parse_schema(path)


def test_forced_categorical_override(tmp_path):
    path = write(tmp_path, "d.csv", "a,y\n1,0\n2,1\n1,0\n")
    raw = load_csv(path, TargetSpec(columns=("y",), categorical=("a",)), TaskKind.BINARY)
    assert raw.categorical == {"a"}
    ds = preprocess(raw)
    assert set(ds.covariate_names) == {"a=1", "a=2"}
