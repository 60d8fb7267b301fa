"""Local rule-based explanations for random forest predictions.

Given a trained forest and a test instance, the pipeline pre-selects the
trees closest to the ensemble prediction, represents their decision paths as
per-covariate vectors, projects and clusters those vectors, and returns the
rule nearest each cluster centre together with a cluster-weighted surrogate
prediction.  Stage sizes are tuned per instance by maximizing fidelity to
the forest.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    FoldPlan,
    TargetSpec,
    TaskKind,
    kfold,
    load_csv,
    parse_schema,
    preprocess,
    scale_targets,
)
from .errors import (
    BellatrexError,
    DataError,
    EmptyDataError,
    ParseError,
    SchemaError,
    UndefinedMetricError,
)
from .explain import (
    MODE_SIMPLE,
    MODE_WEIGHTED,
    AblationFlags,
    Explanation,
    FinalRule,
    TuningGrid,
    explain_batch,
    explain_fixed,
    plot_tsv,
    preselect,
    render_json,
    render_text,
    tune_and_explain,
)
from .forest import (
    Forest,
    ForestParams,
    PathStep,
    Tree,
    best_split,
    decision_path,
    fit_forest,
    fit_forests,
    forest_predict,
    load_forest,
    oob_errors,
    save_forest,
    tree_predict,
)
from .metrics import (
    auroc,
    complexity,
    dissimilarity,
    jaccard_similarity,
    mae,
    weighted_auroc,
)
from .numeric import (
    Clustering,
    Projection,
    kmeans_pp,
    nearest_point,
    pca_fit,
    pca_transform,
)
from .evaluation import (
    BenchmarkConfig,
    MetricReport,
    baseline_oob_trees,
    run_ablation,
    run_benchmark,
)
from .survival import (
    StepFunction,
    concordance_index,
    kaplan_meier,
    logrank_score,
    nelson_aalen,
    risk_score,
)

__all__ = [name for name in dir() if not name.startswith("_")]
