"""Command-line surface: train, explain, benchmark, ablate.

Exit codes: 0 success, 2 usage error, 3 data error, 4 internal failure.
An output file that cannot be written is a usage error that names it.
Every command runs on one thread; BELLATREX_THREADS is no longer read.
``-v`` sends the package's INFO log lines (such as the preprocessing
summary of dropped rows and imputed cells) to stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import __version__
from .data import Dataset, TargetSpec, TaskKind, kfold, load_csv, parse_schema, preprocess
from .errors import BellatrexError, DataError, SchemaError
from .evaluation import (
    ABLATION_COLUMNS,
    BenchmarkConfig,
    benchmark_json,
    benchmark_tsv,
    rows_to_tsv,
    run_ablation,
    run_benchmark,
)
from .explain import (
    MODE_SIMPLE,
    MODE_WEIGHTED,
    AblationFlags,
    TuningGrid,
    derive_seed,
    explain_batch,
    plot_tsv,
    render_json_text,
    render_text,
)
from .forest import ForestParams, fit_forest, load_forest, oob_errors, save_forest

TASK_CHOICES = [t.value for t in TaskKind]


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input CSV (header row required)")
    parser.add_argument("--schema", help="key=value schema file declaring task and targets")
    parser.add_argument("--task", choices=TASK_CHOICES, help="prediction task")
    parser.add_argument("--target", help="target column (binary/regression)")
    parser.add_argument("--targets", help="comma-separated target columns (multi tasks)")
    parser.add_argument("--time-col", help="survival time column")
    parser.add_argument("--event-col", help="survival event column")
    parser.add_argument("--categorical", help="comma-separated columns forced categorical")
    parser.add_argument("--col-drop-threshold", type=float, default=0.30)
    parser.add_argument("--row-drop-threshold", type=float, default=0.30)


def _add_forest_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--min-split", type=int, default=None)
    parser.add_argument("--mtry", type=int, default=None)
    parser.add_argument("--max-depth", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-tau", default="20,50,80")
    parser.add_argument("--grid-d", default="2,5,none")
    parser.add_argument("--grid-k", default="1,2,3")
    parser.add_argument("--k-fixed", type=int, default=None,
                        help="override the cluster-count grid with one value")


def _split_csv_list(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _load_dataset(args, scale: bool = True) -> Dataset:
    if args.schema:
        task, spec = parse_schema(args.schema)
    else:
        if not args.task:
            raise SchemaError("either --schema or --task is required")
        task = TaskKind(args.task)
        spec = TargetSpec(
            columns=_split_csv_list(args.targets) or
            ((args.target,) if args.target else ()),
            time=args.time_col,
            event=args.event_col,
            categorical=(),
        )
    if args.categorical:
        spec = replace(spec, categorical=_split_csv_list(args.categorical))
    raw = load_csv(args.data, spec, task)
    return preprocess(
        raw,
        col_drop_threshold=args.col_drop_threshold,
        row_drop_threshold=args.row_drop_threshold,
        scale=scale,
    )


def _forest_params(args) -> ForestParams:
    return ForestParams(
        n_trees=args.trees,
        min_samples_split=args.min_split,
        mtry=args.mtry,
        seed=args.seed,
        max_depth=args.max_depth,
    )


def _tuning_grid(args) -> TuningGrid:
    taus = tuple(int(v) for v in _split_csv_list(args.grid_tau))
    dims = tuple(
        None if v.lower() in ("none", "nopca", "no-pca") else int(v)
        for v in _split_csv_list(args.grid_d)
    )
    ks = (args.k_fixed,) if args.k_fixed is not None else tuple(
        int(v) for v in _split_csv_list(args.grid_k))
    return TuningGrid(taus=taus, dims=dims, ks=ks)


def _out_dir(args) -> Path:
    """``--out``, checked before any work: the path, or else its nearest
    existing ancestor, must be a directory.  Writers create it."""
    out = Path(args.out)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")
    return out


@contextmanager
def _writing(out: Path):
    """Create ``out`` for the outputs written inside the block; an OSError
    while creating or writing becomes a usage error naming the path."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from exc


def cmd_train(args) -> None:
    out = _out_dir(args)
    ds = _load_dataset(args)
    params = _forest_params(args)
    forest = fit_forest(ds, params)
    errs = oob_errors(forest, ds)
    lines = [
        f"task={forest.task.value} n={ds.n} p={ds.p} trees={forest.n_trees}",
        f"min_samples_split={forest.min_samples_split} mtry={forest.mtry}"
        f" seed={params.seed}",
        "tree\toob_error\tmax_depth\tmean_leaf_depth\tnodes",
    ]
    for i, tree in enumerate(forest.trees):
        max_d, mean_d = tree.depth_stats()
        lines.append(f"{i}\t{errs[i]:.6f}\t{max_d}\t{mean_d:.2f}\t{tree.n_nodes}")
    with _writing(out):
        save_forest(forest, out / "forest.json")
        (out / "train_log.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'forest.json'} and {out / 'train_log.txt'}")


def _select_instances(args, ds: Dataset) -> list[int]:
    raw = args.instances
    if raw.startswith("fold:"):
        fold = int(raw.split(":", 1)[1])
        plan = kfold(ds.n, args.folds, args.seed)
        _, test_idx = plan.split(fold)
        return [int(i) for i in test_idx]
    rows = [int(v) for v in _split_csv_list(raw)]
    if not rows:
        raise ValueError("--instances names no rows")
    for r in rows:
        if not 0 <= r < ds.n:
            raise DataError(f"instance index {r} out of range [0, {ds.n})")
    return rows


def cmd_explain(args) -> None:
    out = _out_dir(args)
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    ds = _load_dataset(args)
    forest = load_forest(args.forest)
    if forest.task is not ds.task:
        raise SchemaError(
            f"forest task {forest.task.value} does not match data task {ds.task.value}")
    if forest.covariate_names and tuple(forest.covariate_names) != ds.covariate_names:
        raise SchemaError("forest and dataset covariate schemas do not match")
    if forest.p != ds.p:
        raise SchemaError(f"forest has {forest.p} covariates, the data has {ds.p}")
    grid = _tuning_grid(args)  # explain_batch checks the axes each arm tunes over
    flags = AblationFlags(skip_preselection=args.no_preselect,
                          skip_projection=args.no_pca)
    rows = _select_instances(args, ds)
    explanations = explain_batch(forest, ds.covariates[rows], grid, args.mode, flags,
                                 [derive_seed(args.seed, 909, row) for row in rows])
    with _writing(out):
        for row, explanation in zip(rows, explanations):
            stem = out / f"instance_{row}"
            stem.with_suffix(".txt").write_text(
                render_text(explanation, ds.covariate_names, forest))
            stem.with_suffix(".json").write_text(
                render_json_text(explanation, ds.covariate_names, forest))
            stem.with_suffix(".tsv").write_text(plot_tsv(explanation))
            print(f"instance {row}: fidelity={explanation.fidelity:.4f} "
                  f"tau={explanation.chosen_tau} d={explanation.chosen_d} "
                  f"K={explanation.chosen_k}")


def _benchmark_config(args) -> BenchmarkConfig:
    return BenchmarkConfig(
        folds=args.folds,
        params=_forest_params(args),
        grid=_tuning_grid(args),
        max_test=args.max_test,
        seed=args.seed,
    )


def _cross_validate(args, run, stem: str, tsv, doc) -> None:
    """Run ``run`` (``run_benchmark`` or ``run_ablation``) on the data and
    write its result as ``stem``.tsv (``tsv(result)``) and ``stem``.json
    (``doc(result)``)."""
    out = _out_dir(args)
    ds = _load_dataset(args, scale=False)
    result = run(ds, args.name or Path(args.data).stem, _benchmark_config(args))
    with _writing(out):
        (out / f"{stem}.tsv").write_text(tsv(result))
        (out / f"{stem}.json").write_text(json.dumps(doc(result), indent=2) + "\n")
    print(f"wrote {out / stem}.tsv and {out / stem}.json")


def cmd_benchmark(args) -> None:
    _cross_validate(args, run_benchmark, "report",
                    lambda result: benchmark_tsv(*result), lambda result: benchmark_json(*result))


def cmd_ablate(args) -> None:
    _cross_validate(args, run_ablation, "ablation",
                    lambda rows: rows_to_tsv(rows, ABLATION_COLUMNS), lambda rows: {"rows": rows})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellatrex",
        description="Train random forests and explain their predictions "
                    "with a few representative decision rules.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress and data summaries to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit and serialize a forest")
    _add_data_args(p_train)
    _add_forest_args(p_train)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_explain = sub.add_parser("explain", help="explain instances of a dataset")
    _add_data_args(p_explain)
    _add_grid_args(p_explain)
    # benchmark and ablate run both modes and every arm themselves
    p_explain.add_argument("--mode", choices=[MODE_SIMPLE, MODE_WEIGHTED],
                           default=MODE_WEIGHTED)
    p_explain.add_argument("--no-preselect", action="store_true",
                           help="keep every tree (skip pre-selection)")
    p_explain.add_argument("--no-pca", action="store_true",
                           help="skip the projection step")
    p_explain.add_argument("--forest", required=True, help="serialized forest file")
    p_explain.add_argument("--instances", required=True,
                           help='row indices "3,5,7" or "fold:F" for fold F test rows')
    p_explain.add_argument("--folds", type=int, default=5)
    p_explain.add_argument("--seed", type=int, default=0)
    p_explain.add_argument("--out", required=True)
    p_explain.set_defaults(func=cmd_explain)

    for command, help_text, func in (
            ("benchmark", "run the cross-validated comparison", cmd_benchmark),
            ("ablate", "four-arm pipeline ablation", cmd_ablate)):
        p_cv = sub.add_parser(command, help=help_text)
        _add_data_args(p_cv)
        _add_forest_args(p_cv)
        _add_grid_args(p_cv)
        p_cv.add_argument("--folds", type=int, default=5)
        p_cv.add_argument("--max-test", type=int, default=100)
        p_cv.add_argument("--name", help="dataset name in reports (default: file stem)")
        p_cv.add_argument("--out", required=True)
        p_cv.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    package_log = logging.getLogger("bellatrex")
    handler, level = logging.StreamHandler(sys.stderr), package_log.level
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    if args.verbose:
        package_log.addHandler(handler)
        package_log.setLevel(logging.INFO)
    try:
        args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (BellatrexError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
