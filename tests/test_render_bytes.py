"""The bytes that ``render_text``, ``render_json_text`` and ``plot_tsv``
give for hand-built explanations, as literal strings.  Every explanation is
``explain_fixed`` at ``dim=None``, so no eigendecomposition runs and the
bytes do not depend on the BLAS kernel."""
import numpy as np
import pytest

from bellatrex.data import TaskKind
from bellatrex.explain import explain_fixed, plot_tsv, render_json_text, render_text
from bellatrex.survival import StepFunction

from conftest import leaf_tree, make_forest, make_tree
from test_explain import four_tree_forest, six_split_explanation


def six_split():
    forest, e = six_split_explanation()
    return e, forest.covariate_names, forest


def two_rules():
    # no names and no forest: default covariate names, no survival curves
    forest = four_tree_forest()
    e = explain_fixed(forest, -np.ones(3), tau=4, dim=None, n_clusters=2, seed=0)
    return e, None, None


def root_leaf():
    forest = make_forest([leaf_tree(0.42)], p=2)
    e = explain_fixed(forest, np.zeros(2), tau=1, dim=None, n_clusters=1, seed=0)
    return e, forest.covariate_names, forest


def two_targets():
    task = TaskKind.MULTI_TARGET
    split = make_tree([
        {"feature": 1, "threshold": 0.25, "left": 1, "right": 2, "fraction": 1.0,
         "pred": [1.5, -2.0]},
        {"pred": [1.25, -2.5], "fraction": 0.6},
        {"pred": [2.0, 1.0], "fraction": 0.4},
    ], task=task)
    forest = make_forest([split, leaf_tree([1.75, 0.125], task=task)], p=2, task=task)
    e = explain_fixed(forest, np.array([0.1234567, 0.3]), tau=2, dim=None, n_clusters=2, seed=0)
    return e, ("age", "dose"), forest


def survival():
    # the first tree's leaf has a Kaplan-Meier curve, the second's an empty one
    task = TaskKind.SURVIVAL
    split = make_tree([
        {"feature": 0, "threshold": 50.0, "left": 1, "right": 2, "fraction": 1.0, "pred": 3.5},
        {"pred": 2.25, "fraction": 0.7},
        {"pred": 6.0, "fraction": 0.3},
    ], task=task)
    split.leaf_km[1] = StepFunction(np.array([2.0, 5.5, 12.0]), np.array([0.9, 0.6, 0.3125]), 1.0)
    leaf = leaf_tree(3.0, task=task)
    leaf.leaf_km[0] = StepFunction(np.array([]), np.array([]), 1.0)
    forest = make_forest([split, leaf], p=1, task=task)
    e = explain_fixed(forest, np.array([41.0]), tau=2, dim=None, n_clusters=2, seed=0)
    return e, forest.covariate_names, forest


# each case: (explanation, covariate names, forest given to the renderers)
CASES = {"six_split": six_split, "two_rules": two_rules, "root_leaf": root_leaf,
         "two_targets": two_targets, "survival": survival}

# per case: (text, JSON document, plot TSV)
EXPECTED = {
    "six_split": (
        "forest prediction = 0.244\n"
        "surrogate prediction = 0.244 (fidelity = 1.0000)\n"
        "chosen: tau=1, d=4, K=1\n"
        "\n"
        "rule 1 (w_1=1.00) initial estimate = 0.390\n"
        "  (x0 = -1) x0 <= 0 -> 0.317\n"
        "  (x1 = -1) x1 <= 0 -> 0.209\n"
        "  (x1 = -1) x1 <= 0 -> 0.271\n"
        "  (x2 = -1) x2 <= 0 -> 0.238\n"
        "  (x3 = -1) x3 <= 0 -> 0.275\n"
        "  (x1 = -1) x1 <= 0 -> 0.244 (leaf)\n",
        """\
{
  "chosen_tau": 1,
  "chosen_d": 4,
  "chosen_k": 1,
  "mode": "weighted",
  "k_clamped": false,
  "forest_prediction": 0.244,
  "surrogate": 0.244,
  "fidelity": 1.0,
  "weights": [
    1.0
  ],
  "rules": [
    {
      "tree_index": 0,
      "weight": 1.0,
      "length": 6,
      "initial_estimate": 0.39,
      "prediction": 0.244,
      "steps": [
        {
          "feature_index": 0,
          "feature": "x0",
          "value": -1.0,
          "threshold": 0.0,
          "direction": "<=",
          "sample_fraction": 1.0,
          "prediction": 0.317
        },
        {
          "feature_index": 1,
          "feature": "x1",
          "value": -1.0,
          "threshold": 0.0,
          "direction": "<=",
          "sample_fraction": 0.8,
          "prediction": 0.209
        },
        {
          "feature_index": 1,
          "feature": "x1",
          "value": -1.0,
          "threshold": 0.0,
          "direction": "<=",
          "sample_fraction": 0.5,
          "prediction": 0.271
        },
        {
          "feature_index": 2,
          "feature": "x2",
          "value": -1.0,
          "threshold": 0.0,
          "direction": "<=",
          "sample_fraction": 0.3,
          "prediction": 0.238
        },
        {
          "feature_index": 3,
          "feature": "x3",
          "value": -1.0,
          "threshold": 0.0,
          "direction": "<=",
          "sample_fraction": 0.2,
          "prediction": 0.275
        },
        {
          "feature_index": 1,
          "feature": "x1",
          "value": -1.0,
          "threshold": 0.0,
          "direction": "<=",
          "sample_fraction": 0.1,
          "prediction": 0.244
        }
      ]
    }
  ],
  "projected_points": [
    {
      "tree_index": 0,
      "x": 1.0,
      "y": 1.4000000000000001,
      "cluster": 0,
      "is_representative": true,
      "rule_prediction": 0.244
    }
  ]
}
""",
        "x\ty\tcluster\tis_representative\trule_prediction\n"
        "1\t1.4\t0\t1\t0.244\n",
    ),
    "two_rules": (
        "forest prediction = 0.400\n"
        "surrogate prediction = 0.400 (fidelity = 1.0000)\n"
        "chosen: tau=4, d=3, K=2\n"
        "\n"
        "rule 1 (w_1=0.75) initial estimate = 0.400\n"
        "  (x0 = -1) x0 <= 0 -> 0.500 (leaf)\n"
        "\n"
        "rule 2 (w_2=0.25) initial estimate = 0.400\n"
        "  (x1 = -1) x1 <= 0 -> 0.100 (leaf)\n",
        """\
{
  "chosen_tau": 4,
  "chosen_d": 3,
  "chosen_k": 2,
  "mode": "weighted",
  "k_clamped": false,
  "forest_prediction": 0.4,
  "surrogate": 0.4,
  "fidelity": 1.0,
  "weights": [
    0.75,
    0.25
  ],
  "rules": [
    {
      "tree_index": 0,
      "weight": 0.75,
      "length": 1,
      "initial_estimate": 0.4,
      "prediction": 0.5,
      "steps": [
        {
          "feature_index": 0,
          "feature": "x0",
          "value": -1.0,
          "threshold": 0.0,
          "direction": "<=",
          "sample_fraction": 1.0,
          "prediction": 0.5
        }
      ]
    },
    {
      "tree_index": 3,
      "weight": 0.25,
      "length": 1,
      "initial_estimate": 0.4,
      "prediction": 0.1,
      "steps": [
        {
          "feature_index": 1,
          "feature": "x1",
          "value": -1.0,
          "threshold": 0.0,
          "direction": "<=",
          "sample_fraction": 1.0,
          "prediction": 0.1
        }
      ]
    }
  ],
  "projected_points": [
    {
      "tree_index": 0,
      "x": 1.0,
      "y": 0.0,
      "cluster": 0,
      "is_representative": true,
      "rule_prediction": 0.5
    },
    {
      "tree_index": 1,
      "x": 1.0,
      "y": 0.0,
      "cluster": 0,
      "is_representative": false,
      "rule_prediction": 0.5
    },
    {
      "tree_index": 2,
      "x": 1.0,
      "y": 0.0,
      "cluster": 0,
      "is_representative": false,
      "rule_prediction": 0.5
    },
    {
      "tree_index": 3,
      "x": 0.0,
      "y": 1.0,
      "cluster": 1,
      "is_representative": true,
      "rule_prediction": 0.1
    }
  ]
}
""",
        "x\ty\tcluster\tis_representative\trule_prediction\n"
        "1\t0\t0\t1\t0.5\n"
        "1\t0\t0\t0\t0.5\n"
        "1\t0\t0\t0\t0.5\n"
        "0\t1\t1\t1\t0.1\n",
    ),
    "root_leaf": (
        "forest prediction = 0.420\n"
        "surrogate prediction = 0.420 (fidelity = 1.0000)\n"
        "chosen: tau=1, d=2, K=1\n"
        "\n"
        "rule 1 (w_1=1.00) initial estimate = 0.420\n",
        """\
{
  "chosen_tau": 1,
  "chosen_d": 2,
  "chosen_k": 1,
  "mode": "weighted",
  "k_clamped": false,
  "forest_prediction": 0.42,
  "surrogate": 0.42,
  "fidelity": 1.0,
  "weights": [
    1.0
  ],
  "rules": [
    {
      "tree_index": 0,
      "weight": 1.0,
      "length": 0,
      "initial_estimate": 0.42,
      "prediction": 0.42,
      "steps": []
    }
  ],
  "projected_points": [
    {
      "tree_index": 0,
      "x": 0.0,
      "y": 0.0,
      "cluster": 0,
      "is_representative": true,
      "rule_prediction": 0.42
    }
  ]
}
""",
        "x\ty\tcluster\tis_representative\trule_prediction\n"
        "0\t0\t0\t1\t0.42\n",
    ),
    "two_targets": (
        "forest prediction = [1.875, 0.562]\n"
        "surrogate prediction = [1.875, 0.562] (fidelity = 1.0000)\n"
        "chosen: tau=2, d=2, K=2\n"
        "\n"
        "rule 1 (w_1=0.50) initial estimate = [1.500, -2.000]\n"
        "  (dose = 0.3) dose > 0.25 -> [2.000, 1.000] (leaf)\n"
        "\n"
        "rule 2 (w_2=0.50) initial estimate = [1.750, 0.125]\n",
        """\
{
  "chosen_tau": 2,
  "chosen_d": 2,
  "chosen_k": 2,
  "mode": "weighted",
  "k_clamped": false,
  "forest_prediction": [
    1.875,
    0.5625
  ],
  "surrogate": [
    1.875,
    0.5625
  ],
  "fidelity": 1.0,
  "weights": [
    0.5,
    0.5
  ],
  "rules": [
    {
      "tree_index": 0,
      "weight": 0.5,
      "length": 1,
      "initial_estimate": [
        1.5,
        -2.0
      ],
      "prediction": [
        2.0,
        1.0
      ],
      "steps": [
        {
          "feature_index": 1,
          "feature": "dose",
          "value": 0.3,
          "threshold": 0.25,
          "direction": ">",
          "sample_fraction": 1.0,
          "prediction": [
            2.0,
            1.0
          ]
        }
      ]
    },
    {
      "tree_index": 1,
      "weight": 0.5,
      "length": 0,
      "initial_estimate": [
        1.75,
        0.125
      ],
      "prediction": [
        1.75,
        0.125
      ],
      "steps": []
    }
  ],
  "projected_points": [
    {
      "tree_index": 0,
      "x": 0.0,
      "y": 1.0,
      "cluster": 0,
      "is_representative": true,
      "rule_prediction": [
        2.0,
        1.0
      ]
    },
    {
      "tree_index": 1,
      "x": 0.0,
      "y": 0.0,
      "cluster": 1,
      "is_representative": true,
      "rule_prediction": [
        1.75,
        0.125
      ]
    }
  ]
}
""",
        "x\ty\tcluster\tis_representative\trule_prediction\n"
        "0\t1\t0\t1\t2;1\n"
        "0\t0\t1\t1\t1.75;0.125\n",
    ),
    "survival": (
        "forest prediction = 2.625\n"
        "surrogate prediction = 2.625 (fidelity = 1.0000)\n"
        "chosen: tau=2, d=1, K=2\n"
        "\n"
        "rule 1 (w_1=0.50) initial estimate = 3.500\n"
        "  (x0 = 41) x0 <= 50 -> 2.250 (leaf)\n"
        "  leaf survival curve: S(2)=0.900, S(5.5)=0.600, S(12)=0.312\n"
        "\n"
        "rule 2 (w_2=0.50) initial estimate = 3.000\n",
        """\
{
  "chosen_tau": 2,
  "chosen_d": 1,
  "chosen_k": 2,
  "mode": "weighted",
  "k_clamped": false,
  "forest_prediction": 2.625,
  "surrogate": 2.625,
  "fidelity": 1.0,
  "weights": [
    0.5,
    0.5
  ],
  "rules": [
    {
      "tree_index": 0,
      "weight": 0.5,
      "length": 1,
      "initial_estimate": 3.5,
      "prediction": 2.25,
      "steps": [
        {
          "feature_index": 0,
          "feature": "x0",
          "value": 41.0,
          "threshold": 50.0,
          "direction": "<=",
          "sample_fraction": 1.0,
          "prediction": 2.25
        }
      ],
      "km_times": [
        2.0,
        5.5,
        12.0
      ],
      "km_values": [
        0.9,
        0.6,
        0.3125
      ]
    },
    {
      "tree_index": 1,
      "weight": 0.5,
      "length": 0,
      "initial_estimate": 3.0,
      "prediction": 3.0,
      "steps": [],
      "km_times": [],
      "km_values": []
    }
  ],
  "projected_points": [
    {
      "tree_index": 0,
      "x": 1.0,
      "y": 0.0,
      "cluster": 0,
      "is_representative": true,
      "rule_prediction": 2.25
    },
    {
      "tree_index": 1,
      "x": 0.0,
      "y": 0.0,
      "cluster": 1,
      "is_representative": true,
      "rule_prediction": 3.0
    }
  ]
}
""",
        "x\ty\tcluster\tis_representative\trule_prediction\n"
        "1\t0\t0\t1\t2.25\n"
        "0\t0\t1\t1\t3\n",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rendered_bytes(case):
    e, names, forest = CASES[case]()
    text, doc, tsv = EXPECTED[case]
    assert render_text(e, names, forest) == text
    assert render_json_text(e, names, forest) == doc
    assert plot_tsv(e) == tsv
