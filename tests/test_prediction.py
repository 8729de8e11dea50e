"""Stacked prediction against the per-tree reference (oracles.reference_distribution).

Every tree of a j48, rt, rf or bagging model (`trees.TreeModel`, a lone
tree being a forest of one) is routed in one pass; a vote adds its members'
matrices. The
distributions must carry the reference's bits on rows with Absent cells
(routed left and right), present -inf and +inf, values exactly at split
thresholds, and batches of 0 and 1 rows and one row either side of the
block size, for the default block size and for blocks of a few rows. A
vote with a naive Bayes member raises ValueError on a batch with a present
-inf or +inf cell instead, naming the column, as naive Bayes does.
"""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devfp.classifiers import Hyperparams, ModelSpec, train_model
from devfp.classifiers import trees
from devfp.classifiers.trees import TreeModel
from devfp.features import CANONICAL_ATTRIBUTES
from modeldocs import document_model, leaf, split, tree_params
from oracles import reference_distribution
from tables import make_dataset

# the default block, and blocks of one and of a few rows
BLOCK_PAIRS = [trees._BLOCK_PAIRS, 1, 6]
VALUES = [None, 0.0, 1.0, 2.0, 3.0, 5.5, 7.0]


@st.composite
def datasets(draw):
    """A dataset of 2..40 rows over 1..3 attributes and 2..3 classes, Absent cells included."""
    n_classes = draw(st.integers(2, 3))
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from("ABC"[:n_classes]), min_size=n, max_size=n).filter(
        lambda names: len(set(names)) >= 2))
    columns = {
        attribute: draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
        for attribute in CANONICAL_ATTRIBUTES[:k]
    }
    return make_dataset(columns, names)


def tree_members(model) -> list:
    if isinstance(model, TreeModel):
        return [model]
    return [tree for member in getattr(model, "members", ()) for tree in tree_members(member)]


def has_naive_bayes(model) -> bool:
    return model.variant == "nb" or any(map(has_naive_bayes, getattr(model, "members", ())))


def block_rows(model) -> set:
    """The rows per block of each routing pass that predicting with model runs."""
    return {max(1, trees._BLOCK_PAIRS // len(tree.sizes)) for tree in tree_members(model)}


def assert_same_bits(model, X):
    if has_naive_bayes(model) and np.isinf(X).any():
        column = model.schema[int(np.flatnonzero(np.isinf(X).any(axis=0))[0])]
        with pytest.raises(ValueError, match=f"column '{column}' holds an infinite value"):
            model.distribution_batch(X)
        return
    got, want = model.distribution_batch(X), reference_distribution(model, X)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS)
@given(dataset=datasets(), seed=st.integers(0, 99), data=st.data())
@settings(max_examples=25)
def test_stacked_prediction_matches_reference(block_pairs, dataset, seed, data):
    hp = Hyperparams(seed=seed, forest_trees=3, bagging_rounds=2)
    models = [
        train_model(dataset, ModelSpec("j48", hp)),
        train_model(dataset, ModelSpec("rf", hp)),
        train_model(dataset, ModelSpec("bagging", hp)),
        train_model(dataset, ModelSpec("vote", hp, ("nb", "rf", "j48"))),
    ]
    k = len(dataset.attributes)
    for model in models:
        cells = [[math.nan, math.inf, -math.inf, 0.0, 4.0] for _ in range(k)]
        for tree in tree_members(model):
            for attribute, threshold in zip(tree.feature[tree.feature >= 0].tolist(), tree.threshold.tolist()):
                cells[attribute] += [threshold, math.nextafter(threshold, math.inf)]
        pool = np.array(data.draw(st.lists(
            st.tuples(*(st.sampled_from(c) for c in cells)), min_size=1, max_size=12)))
        with patch.object(trees, "_BLOCK_PAIRS", block_pairs):
            sizes = {0, 1}.union(*({b - 1, b, b + 1} for b in block_rows(model)))
            for n in sorted(sizes):
                assert_same_bits(model, pool[np.arange(n) % len(pool)])


def test_absent_cells_routed_both_ways():
    # one split on ip.len at 5.5 per tree: Absent goes left in the first, right in the second
    schema, classes = ("ip.len",), ("A", "B")
    nodes = [leaf(0, 4), leaf(4, 0)]
    lone = [[*nodes, split(0, 5.5, "left", 1, 0)], [*nodes, split(0, 5.5, "right", 1, 0)]]
    forest = document_model("rf", schema, classes, tree_params(*lone))
    X = np.array([[math.nan], [-math.inf], [5.5], [math.nextafter(5.5, math.inf)], [math.inf]])
    left, right = forest.proba[0], forest.proba[1]  # each tree's left leaf comes first
    expected = np.array([left + right, 2 * left, 2 * left, 2 * right, 2 * right]) / 2
    assert np.array_equal(forest.distribution_batch(X), expected)
    for block_pairs in BLOCK_PAIRS:
        with patch.object(trees, "_BLOCK_PAIRS", block_pairs):
            assert_same_bits(forest, X)
            for tree in lone:
                assert_same_bits(document_model("j48", schema, classes, tree_params(tree)), X)
