"""Frontier growth against the per-node reference grower in `oracles.py`.

Every model must match the reference node arrays bit for bit: j48 pruned and
unpruned, rt, and every tree of rf and bagging, alone and as members of a
vote, each grown under its documented RNG key, on small datasets with
Absent cells, repeated values and gain ties. Each property also runs with
the per-step row cap patched small, so that nodes and whole trees wait
across steps. The forest properties also draw the usable CPU count, which
cuts the trees into chunks grown by forked workers: 1 (no worker), 2, or
more than the trees. `grow_trees` grows each tree on the distinct rows of
its sample with their counts as weights, so it is also run directly on
datasets and samples whose rows repeat, against the reference tree of the
rows one by one; and `split_segments` must give the same bits on weighted
entries, on the same entries one by one, and split into segment ranges.
The bulk bootstrap must draw exactly what one randrange call per row draws
and leave the RNG in the same state. A random tree searches floor(log2 k) +
1 of its k attributes, so the datasets' width decides whether it searches
some (k of 3 or more) or all of them.
"""

import math
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devfp import selection, workers
from devfp.classifiers import Hyperparams, ModelSpec, derive_rng, train_model
from devfp.classifiers import trees
from devfp.classifiers.base import bootstrap_indices
from devfp.features import CANONICAL_ATTRIBUTES
from devfp.selection import gain_ratios, rank, split_segments, value_codes, xlog2x_table
from oracles import (
    reference_best_split,
    reference_bootstrap,
    reference_columns,
    reference_score_column,
    reference_tree,
)
from tables import make_dataset

# the default cap, and one so small that every step scores a single node
STEP_ROWS = [trees._STEP_ROWS, 1]
# usable CPUs: no worker, chunks of unequal size, and more than the trees
WORKERS = [1, 2, 4]
VALUES = [math.nan, 0.0, 1.0, 2.0, 3.0, 5.5, 7.0]


@st.composite
def datasets(draw):
    """A dataset of 2..40 rows over 1..4 attributes and 2..4 classes."""
    n_classes = draw(st.integers(2, 4))
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from("ABCD"[:n_classes]), min_size=n, max_size=n).filter(
        lambda names: len(set(names)) >= 2))
    columns = {
        attribute: draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
        for attribute in CANONICAL_ATTRIBUTES[:k]
    }
    return make_dataset(columns, names)


def arrays(dataset):
    return dataset.matrix(), dataset.class_codes(), len(dataset.class_names)


def assert_same_trees(model, references: list) -> None:
    """model's columns are the reference trees' breadth-first columns, one
    tree after another, and it routes each split to the reference's children."""
    want = reference_columns(references)
    for name, column in want.items():
        got = getattr(model, name)
        assert (got.dtype, got.shape, got.tobytes()) == (column.dtype, column.shape, column.tobytes()), name
    # the model numbers its splits first, then its leaves, each in node order
    split = want["feature"] >= 0
    n_splits, n = int(np.count_nonzero(split)), len(split)
    number = np.where(split, np.cumsum(split) - 1, n_splits + np.cumsum(~split) - 1)
    first = np.cumsum(want["sizes"]) - want["sizes"]
    children = np.concatenate([np.stack((r["left"], r["right"]), axis=1) + at for r, at in zip(references, first)])
    child = np.repeat(np.arange(n)[:, None], 2, axis=1)
    child[:n_splits] = number[children[split]]
    assert model.child.tolist() == child.ravel().tolist()
    assert model.roots.tolist() == number[first].tolist()


def reference_forest(X, y, n_classes, hp, variant, token, rounds) -> list:
    """The reference trees of an rf (rt trees) or bagging (j48 trees) model:
    tree i grows on as many rows as the dataset holds, drawn from (token, variant, i)."""
    references = []
    for i in range(rounds):
        rng = derive_rng(token, variant, i)
        sample = reference_bootstrap(rng, len(y))
        references.append(reference_tree(X[sample], y[sample], n_classes, hp, rng if variant == "rf" else None))
    return references


@pytest.mark.parametrize("step_rows", STEP_ROWS)
@given(dataset=datasets(), prune=st.booleans(), min_leaf=st.integers(1, 3))
@settings(max_examples=60)
def test_c45_matches_reference(step_rows, dataset, prune, min_leaf):
    hp = Hyperparams(c45_prune=prune, c45_min_leaf=min_leaf)
    with patch.object(trees, "_STEP_ROWS", step_rows):
        model = train_model(dataset, ModelSpec("j48", hp))
    assert_same_trees(model, [reference_tree(*arrays(dataset), hp)])


@pytest.mark.parametrize("step_rows", STEP_ROWS)
@given(dataset=datasets(), min_leaf=st.integers(1, 3), seed=st.integers(0, 99))
@settings(max_examples=60)
def test_random_tree_matches_reference(step_rows, dataset, min_leaf, seed):
    hp = Hyperparams(seed=seed, c45_min_leaf=min_leaf)
    with patch.object(trees, "_STEP_ROWS", step_rows):
        model = train_model(dataset, ModelSpec("rt", hp))
    assert_same_trees(model, [reference_tree(*arrays(dataset), hp, derive_rng(seed, "rt"))])


@pytest.mark.parametrize("step_rows", STEP_ROWS)
@given(dataset=datasets(), min_leaf=st.integers(1, 3), seed=st.integers(0, 99), cpus=st.sampled_from(WORKERS))
@settings(max_examples=40)
def test_ensemble_members_match_reference(step_rows, dataset, min_leaf, seed, cpus):
    hp = Hyperparams(seed=seed, forest_trees=3, bagging_rounds=3, c45_min_leaf=min_leaf)
    X, y, n_classes = arrays(dataset)
    with patch.object(trees, "_STEP_ROWS", step_rows), patch.object(workers, "_usable_cpus", lambda: cpus):
        forest = train_model(dataset, ModelSpec("rf", hp))
        bagging = train_model(dataset, ModelSpec("bagging", hp))
    assert_same_trees(forest, reference_forest(X, y, n_classes, hp, "rf", seed, 3))
    assert_same_trees(bagging, reference_forest(X, y, n_classes, hp, "bagging", seed, 3))


@pytest.mark.parametrize("step_rows", STEP_ROWS)
@given(dataset=datasets(), seed=st.integers(0, 99), cpus=st.sampled_from(WORKERS))
@settings(max_examples=30)
def test_vote_members_match_reference(step_rows, dataset, seed, cpus):
    # vote member i of variant v draws from (seed, "vote", i, v): an rt member
    # directly, an rf or bagging member through a 64-bit token taking the seed's place
    hp = Hyperparams(seed=seed, forest_trees=2, bagging_rounds=2)
    X, y, n_classes = arrays(dataset)
    with patch.object(trees, "_STEP_ROWS", step_rows), patch.object(workers, "_usable_cpus", lambda: cpus):
        vote = train_model(dataset, ModelSpec("vote", hp, ("rt", "rf", "bagging")))
    rt, rf, bagging = vote.members
    assert_same_trees(rt, [reference_tree(X, y, n_classes, hp, derive_rng(seed, "vote", 0, "rt"))])
    token = derive_rng(seed, "vote", 1, "rf").getrandbits(64)
    assert_same_trees(rf, reference_forest(X, y, n_classes, hp, "rf", token, 2))
    token = derive_rng(seed, "vote", 2, "bagging").getrandbits(64)
    assert_same_trees(bagging, reference_forest(X, y, n_classes, hp, "bagging", token, 2))


def random_trees_rngs(seed: int, n_trees: int) -> list:
    return [random.Random(f"tree|{seed}|{t}") for t in range(n_trees)]


@pytest.mark.parametrize("step_rows", STEP_ROWS)
@given(data=st.data(), dataset=datasets(), kind=st.sampled_from(["rf", "bagging", "j48", "rt"]),
       prune=st.booleans(), min_leaf=st.integers(1, 3), seed=st.integers(0, 99), cpus=st.integers(1, 3))
@settings(max_examples=60)
def test_grow_trees_matches_reference_on_expanded_rows(step_rows, data, dataset, kind, prune, min_leaf, seed, cpus):
    # the rows repeat, and so do the rows of each sample: a tree grows on
    # distinct (values, class) rows with their counts, and must be the
    # reference tree of its sample's rows one by one
    X, y, n_classes = arrays(dataset)
    copies = np.array(data.draw(st.lists(st.integers(0, len(y) - 1), min_size=1, max_size=2 * len(y))))
    X, y = X[copies], y[copies]
    if kind in ("j48", "rt"):
        samples = [np.arange(len(y))]
    else:
        samples = [np.array(data.draw(st.lists(st.integers(0, len(y) - 1), min_size=1, max_size=2 * len(y))))
                   for _ in range(data.draw(st.integers(1, 4)))]
    n_trees = len(samples)
    hp = Hyperparams(c45_prune=prune, c45_min_leaf=min_leaf)
    randomized = kind in ("rf", "rt")
    with patch.object(trees, "_STEP_ROWS", step_rows), patch.object(workers, "_usable_cpus", lambda: cpus):
        got = trees.grow_trees(X, y, n_classes, n_trees, samples.__getitem__, hp,
                               random_trees_rngs(seed, n_trees) if randomized else None)
    references = [
        reference_tree(X[sample], y[sample], n_classes, hp, rng)
        for sample, rng in zip(samples, random_trees_rngs(seed, n_trees) if randomized else [None] * n_trees)
    ]
    for name, column in reference_columns(references).items():
        assert (got[name].dtype, got[name].shape, got[name].tobytes()) == (column.dtype, column.shape,
                                                                           column.tobytes()), name


@given(data=st.data(), n_classes=st.integers(1, 4))
@settings(max_examples=150)
def test_split_segments_ranges_and_weights_keep_every_bit(data, n_classes):
    # one call; the same call split into segment ranges under every lower
    # bit budget down to one segment per range; and one call on the entries
    # repeated by their weights, each of weight 1: the same SegmentSplits,
    # whose every segment is the reference scan of its rows one by one over
    # every cut (split_segments skips the cuts between two runs of one class)
    n, k = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
    X = np.array(data.draw(st.lists(st.sampled_from(VALUES), min_size=n * k, max_size=n * k))).reshape(n, k)
    codes, values = value_codes(X)
    sizes = np.array(data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=6)))
    n_entries = int(sizes.sum())
    entry = st.lists(st.integers(0, n - 1), min_size=n_entries, max_size=n_entries)
    rows = np.array(data.draw(entry))
    labels = np.array(data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n_entries, max_size=n_entries)))
    weights = np.array(data.draw(st.lists(st.integers(1, 5), min_size=n_entries, max_size=n_entries)))
    m = data.draw(st.integers(1, k))
    cand = np.array([sorted(data.draw(st.permutations(range(k)))[:m]) for _ in sizes])
    xlog2x = xlog2x_table(int(weights.sum()))

    def same(a, b):
        return all(x.dtype == z.dtype and x.tobytes() == z.tobytes() for x, z in zip(a, b))

    want = split_segments(codes, values, rows, labels, weights, sizes, cand, n_classes, xlog2x)
    node = np.repeat(np.arange(len(sizes)), sizes)
    one_by_one = np.repeat(np.arange(n_entries), weights)
    for segment, (f, column) in enumerate((f, column) for f in range(len(sizes)) for column in cand[f]):
        entries = one_by_one[node[one_by_one] == f]
        cells = X[rows[entries], column]
        present = ~np.isnan(cells)
        threshold = None if math.isnan(want.threshold[segment]) else float(want.threshold[segment])
        got = (threshold, float(want.info_gain[segment]), float(want.split_info[segment]))
        assert got == reference_best_split(cells[present], labels[entries][present], n_classes), segment
        assert want.n_present[segment] == np.count_nonzero(present)
    expanded = split_segments(codes, values, np.repeat(rows, weights), np.repeat(labels, weights),
                              np.ones(int(weights.sum()), dtype=np.int64), np.bincount(node, weights).astype(np.intp),
                              cand, n_classes, xlog2x)
    assert same(expanded, want)
    bits = selection._KEY_BITS
    while True:
        bits -= 1
        with patch.object(selection, "_KEY_BITS", bits):
            try:
                got = split_segments(codes, values, rows, labels, weights, sizes, cand, n_classes, xlog2x)
            except ValueError:
                break  # not even a lone segment fits in so few bits
        assert same(got, want), bits


@given(
    values=st.lists(st.sampled_from(VALUES), min_size=1, max_size=40),
    data=st.data(),
    n_classes=st.integers(2, 4),
)
@settings(max_examples=200)
def test_split_scores_match_reference_bits(values, data, n_classes):
    column = np.array(values)
    labels = np.array(data.draw(st.lists(st.integers(0, n_classes - 1), min_size=len(values), max_size=len(values))))
    present = ~np.isnan(column)
    codes, distinct = value_codes(column[:, None])
    xlog2x = xlog2x_table(len(values))

    def scores(labels, n_classes):
        # one node of every row, each of weight 1, with the one column a candidate
        n = len(values)
        return split_segments(codes, distinct, np.arange(n), labels, np.ones(n, dtype=np.int64), np.array([n]),
                              np.zeros((1, 1), dtype=np.intp), n_classes, xlog2x)

    splits = scores(labels, n_classes)
    ratio, gain = gain_ratios(splits, np.array([len(column)]))
    threshold = float(splits.threshold[0]) if gain[0] > 0.0 else None
    assert (float(ratio[0]), float(gain[0]), threshold) == reference_score_column(column, labels, n_classes)
    if present.any():
        # the present classes coded 0.., as ranking codes a dataset's classes
        classes, class_codes = np.unique(labels[present], return_inverse=True)
        coded = np.zeros(len(values), dtype=np.intp)  # an Absent cell's class is never read
        coded[present] = class_codes
        got = scores(coded, len(classes))
        threshold = None if math.isnan(got.threshold[0]) else float(got.threshold[0])
        want = reference_best_split(column[present], class_codes, len(classes))
        assert (threshold, float(got.info_gain[0]), float(got.split_info[0])) == want
    names = [chr(65 + c) for c in labels]
    if len(set(names)) >= 2:
        dataset = make_dataset({"ip.len": values}, names)
        (score,) = rank(dataset)
        want = reference_score_column(column, dataset.class_codes(), len(dataset.class_names))
        assert (score.gain_ratio, score.info_gain) == want[:2]


@pytest.mark.parametrize("n", [1, 2, 3, 1836, 4096, 4097, 46114])
@pytest.mark.parametrize("share", [1.0, 0.5, 0.01])
def test_bulk_bootstrap_replays_randrange(n, share):
    # a sample as large as its dataset, of n rows scaled by share: sizes on
    # both sides of powers of two, where randrange's share of rejected words jumps
    n = max(1, round(share * n))
    for key in range(3):
        bulk, per_row = random.Random(f"bootstrap|{key}"), random.Random(f"bootstrap|{key}")
        drawn = bootstrap_indices(bulk, n)
        assert drawn.dtype == np.intp
        assert drawn.tolist() == reference_bootstrap(per_row, n).tolist()
        assert bulk.getstate() == per_row.getstate()
