"""Decision trees: gain-ratio growth, pessimistic pruning, random trees.

One grower grows a list of trees at once, each from a sample of row indices
into a shared feature matrix (all rows, or a bootstrap sample). It codes the
matrix's values once and keeps one row of each distinct (values, class)
pair; a tree grows on the distinct rows of its sample, each with its count
as an integer weight, and every count growth reads is a sum of weights. It
cuts the trees into one contiguous chunk per usable CPU and grows every
chunk but the first in a forked worker (see `devfp.workers`), which shares
the coded rows, draws its own trees' samples and sends its columns back; the
chunks' columns are then joined in tree order. A tree depends only on its
own sample and RNG, so the columns do not depend on the number of chunks.
Within a chunk, pending nodes of every tree wait in one first-in, first-out
queue, the roots first. Each step takes a frontier from the head of the
queue and scores all its (node, candidate attribute) pairs with one batched
split search, `selection.split_segments`; the children of the nodes that
split join the tail, left before right. So each tree's nodes are created,
searched and numbered in its own breadth-first order, and a random tree
draws the candidate set of each searched node from its RNG in that order,
however the steps are cut. A step scores at most _STEP_ROWS distinct rows
(node rows times candidates); nodes beyond that wait, so a step's working
memory does not grow with the number of trees.

At every node the split is the (attribute, threshold) pair maximizing gain
ratio among candidate attributes whose missing-scaled info gain is positive,
the first candidate winning ties; rows with an Absent split value follow the
branch that received the majority of training rows.

Nodes are appended to flat arrays as they are created, parents before
children. Pessimistic pruning then runs one growth step at a time across the
chunk's trees, the last step first, and each tree keeps its surviving nodes
in their order, the breadth-first order of the model format. A trained model
(`TreeModel`, one class for j48, rt, rf and bagging) holds all its trees as
one set of the model format's columns; a lone tree is a forest of one.

Prediction routes every tree of a model at once. Every (tree, row) pair of
a block of rows moves one level per step through flat gathers and a
child[2 * node + (x > threshold)] table, which the model builds once from
its columns. Absent needs no test per step: it reads as -inf at a node that
sends it left and as +inf at one that sends it right, which is exact
because every threshold is finite (growth takes midpoints of finite values,
and TreeModel rejects non-finite ones). The leaf distributions are then
added in tree order and divided by the tree count, the bits of a per-tree
loop.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Optional, Sequence

import numpy as np

from .. import workers
from ..selection import gain_ratios, split_segments, value_codes, xlog2x_table
from .base import VARIANT_C45, VARIANT_RANDOM_TREE, Hyperparams, TrainedModel


# ---------------------------------------------------------------------------
# Pessimistic pruning (normal-approximation upper confidence bound)


def _added_errors(n: float, e: float, confidence: float) -> float:
    """Extra errors added to e for a pessimistic estimate at the given
    confidence, for n rows of which e, an integer count, are errors."""
    if e == 0.0:
        return n * (1.0 - confidence ** (1.0 / n))
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1.0 - confidence)
    f = (e + 0.5) / n
    r = (f + z * z / (2.0 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4.0 * n * n))) / (
        1.0 + z * z / n
    )
    return r * n - e


def _pessimistic_errors(counts: np.ndarray, confidence: float) -> np.ndarray:
    """Pessimistic error estimate of each row of a class-count matrix: its
    errors (the integer count of rows outside its majority class) plus the
    added errors."""
    n = counts.sum(axis=1, dtype=np.float64)
    e = n - counts.max(axis=1)
    return np.array([e + _added_errors(n, e, confidence) for n, e in zip(n.tolist(), e.tolist())])


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True, eq=False)
class TreeModel(TrainedModel):
    """A j48, rt, rf or bagging model: every tree as one set of the model
    format's columns (a lone tree is a forest of one).

    Tree t holds sizes[t] nodes, the trees one after another. `feature` has
    one entry per node: each tree's nodes in breadth-first order, so that
    its r-th split has its children at its nodes 2r + 1 (left) and 2r + 2
    (right), a split holding the schema attribute it tests and a leaf -1.
    `threshold` and `absent_left` have one entry per split, in node
    order: a row goes right when its value is greater than the threshold,
    left when it is not, and left when it is Absent exactly if absent_left.
    Every threshold is finite: prediction relies on it. `counts` has one row
    of training class counts (int32, half the memory of int64) per leaf, in
    node order, none negative and not all 0. A j48 or rt model is one tree.
    Columns that break any of this raise ValueError.

    The routing columns are built once, here. A node's number is its split
    index when it is a split, else the number of splits plus its leaf index,
    which is its row of `counts` and of `proba`, the Laplace-smoothed
    distribution (count_c + 1) / (total + n_classes). Split s reads column[s]
    of a block's value matrix, which holds the k schema columns with Absent
    as -inf and then as +inf, so column[s] is the attribute plus k when the
    split sends Absent right. It goes to child[2 * s + 1] when the value is
    greater than threshold[s], else to child[2 * s]. Both children of a leaf
    are itself, so a row that reached a leaf stays there. roots[t] is the
    number of tree t's first node.
    """

    sizes: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    absent_left: np.ndarray
    counts: np.ndarray
    column: np.ndarray = field(init=False, repr=False)
    child: np.ndarray = field(init=False, repr=False)
    proba: np.ndarray = field(init=False, repr=False)
    roots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        split = self.feature >= 0
        n, n_splits, k = len(split), int(np.count_nonzero(split)), len(self.schema)
        if not len(self.sizes):
            raise ValueError(f"{self.variant} model has no members")
        if len(self.sizes) > 1 and self.variant in (VARIANT_C45, VARIANT_RANDOM_TREE):
            raise ValueError(f"a {self.variant} model is one tree, not {len(self.sizes)}")
        # checked before np.repeat below, which sizes read from a file must not make huge
        if not (np.all((1 <= self.sizes) & (self.sizes <= n)) and self.sizes.sum() == n):
            raise ValueError(f"malformed tree: sizes must cut the {n} nodes into trees")
        if not np.all((-1 <= self.feature) & (self.feature < k)):
            raise ValueError(f"malformed tree: every attribute must lie in [-1, {k})")
        if not len(self.threshold) == len(self.absent_left) == n_splits:
            raise ValueError(f"malformed tree: threshold and absent_left need an entry per split, {n_splits}")
        if not np.isfinite(self.threshold).all():
            raise ValueError("malformed tree: every threshold must be finite")
        if self.counts.shape != (n - n_splits, len(self.class_names)):
            raise ValueError(f"malformed tree: counts must hold a row per leaf, {n - n_splits}, and a column per class")
        if not ((self.counts >= 0).all() and self.counts.any(axis=1).all()):
            raise ValueError("malformed tree: every leaf needs non-negative counts, not all 0")
        # tree t's r-th split has its children at the tree's nodes 2r + 1 and
        # 2r + 2; each tree before it holds twice its splits plus one nodes, so
        # split s (counted over all trees) has its left child at node 2s + t + 1
        split_tree = np.repeat(np.arange(len(self.sizes)), self.sizes)[split]
        left = 2 * np.arange(n_splits) + split_tree + 1
        if not (np.array_equal(2 * np.bincount(split_tree, minlength=len(self.sizes)) + 1, self.sizes)
                and np.all(left > np.flatnonzero(split))):
            raise ValueError(
                "malformed tree: in breadth-first order a tree of s splits has 2s + 1 nodes,"
                " and its r-th split has its children at nodes 2r + 1 and 2r + 2, after it"
            )
        number = np.empty(n, dtype=np.intp)
        number[split] = np.arange(n_splits)
        number[~split] = np.arange(n_splits, n)
        child = np.empty((n, 2), dtype=np.intp)
        child[:n_splits] = number[left[:, None] + np.arange(2)]
        child[n_splits:] = np.arange(n_splits, n)[:, None]
        column = self.feature[split] + np.where(self.absent_left, 0, k)
        proba = self.counts + 1.0
        proba /= proba.sum(axis=1, keepdims=True)  # integer-valued sums: exactly total + n_classes
        for name, value in (("column", column), ("child", child.ravel()), ("proba", proba),
                            ("roots", number[np.cumsum(self.sizes) - self.sizes])):
            object.__setattr__(self, name, value)

    def distribution_batch(self, X: np.ndarray) -> np.ndarray:
        """The mean of the trees' class distributions: their leaf `proba`
        rows added in tree order, then divided by the tree count."""
        n_trees = len(self.sizes)
        total = np.zeros((X.shape[0], self.proba.shape[1]))
        block = max(1, _BLOCK_PAIRS // n_trees)
        for start in range(0, X.shape[0], block):
            out = total[start:start + block]
            for rows in self._leaf_rows(X[start:start + block]):
                out += self.proba.take(rows, axis=0)
        total /= n_trees
        return total

    def _leaf_rows(self, X: np.ndarray) -> np.ndarray:
        """(trees x rows): the leaf index that each tree routes each row of X
        to. Every (tree, row) pair of the block moves one level per step, and
        the pairs at a leaf are dropped once at most 3/4 of them still route:
        a dropped pair costs a compaction, a kept one a step. A pair at a
        leaf reads the last split's column and threshold (take clips its
        number), which cannot move it."""
        n, k = X.shape
        if k != len(self.schema):
            raise ValueError(f"rows have {k} columns, the model's schema {len(self.schema)}")
        n_splits = len(self.threshold)
        absent = np.isnan(X)
        values = np.concatenate((np.where(absent, -np.inf, X), np.where(absent, np.inf, X)), axis=1).ravel()
        node = np.repeat(self.roots, n)  # pair p is (tree p // n, row p % n)
        pair = np.flatnonzero(node < n_splits)
        at = node[pair]
        offset = pair % n * (2 * k)
        while at.size:
            cell = self.column.take(at, mode="clip")
            cell += offset
            value = values.take(cell)
            del cell  # freed before the next gather, which bounds a block's memory
            right = value > self.threshold.take(at, mode="clip")
            at += at
            at += right
            at = self.child.take(at)
            routing = at < n_splits
            if 4 * np.count_nonzero(routing) <= 3 * at.size:
                node[pair] = at
                keep = np.flatnonzero(routing)
                at = at[keep]
                pair = pair[keep]
                offset = offset[keep]
        rows = node.reshape(len(self.sizes), n)
        rows -= n_splits
        return rows


# (tree, row) pairs routed per block of rows. It bounds prediction's working
# memory; a lone tree routes this many rows per block.
_BLOCK_PAIRS = 12_000


# Distinct rows scored per growth step, summed over the frontier's (node,
# candidate attribute) pairs. It bounds the step's working memory; a larger
# node is scored on its own.
_STEP_ROWS = 1 << 15


def grow_trees(
    X: np.ndarray, y: np.ndarray, n_classes: int, n_trees: int, sample: Callable[[int], np.ndarray],
    hp: Hyperparams, rngs: Optional[Sequence[random.Random]] = None,
) -> dict:
    """The TreeModel columns (sizes, feature, threshold, absent_left and
    counts) of n_trees trees, tree t grown on sample(t): row indices into X,
    y, a row as often as it is drawn. A tree grows on the distinct (feature
    values, class) pairs of its sample, each weighted by how many of its
    rows hold it; every count that growth reads is a sum of weights, exact
    in integers, so the tree is the one that its rows would grow one by one.

    With rngs None the trees are C4.5 trees over every attribute, pruned
    when hp.c45_prune; otherwise tree t is an unpruned random tree whose
    searched nodes each draw a sorted candidate set from rngs[t], in the
    tree's breadth-first order.

    `workers.run_chunks` cuts the trees into one contiguous chunk per
    usable CPU: the caller grows the first, a forked worker each other one,
    and the chunks' columns are joined in tree order. Each process calls
    sample(t) for its own trees only, in tree order, before its growth
    starts, so the RNGs of a worker's trees advance in the worker, not in
    the caller. A worker's exception is raised here; no worker outlives the
    call, nor its caller by more than a growth step.
    """
    codes, values = value_codes(X)
    first, inverse = _distinct_rows(np.column_stack((codes, y)))
    codes, y = codes[first], y[first]

    def grow(start: int, stop: int) -> dict:
        # each tree's (row, weight) columns; a chunk's are pending at once, int32 halves them
        roots = []
        for t in range(start, stop):
            weights = np.bincount(inverse[sample(t)], minlength=len(first))
            rows = np.flatnonzero(weights)
            roots.append(np.array((rows, weights[rows]), dtype=np.int32))
        return _grow(codes, values, y, n_classes, roots, hp, None if rngs is None else rngs[start:stop])

    parts = workers.run_chunks(grow, n_trees)
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse): the index of one row of each distinct row of `a`,
    and for every row of `a` the position in `first` of its equal row.
    np.unique(axis=0) finds the same rows, but it sorts them as structured
    scalars, about 8x slower than lexsort on 37k rows of 5 columns."""
    order = np.lexsort(a.T)
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _grow(
    codes: np.ndarray, values: np.ndarray, y: np.ndarray, n_classes: int,
    roots: list[np.ndarray], hp: Hyperparams, rngs: Optional[Sequence[random.Random]],
) -> dict:
    """grow_trees' columns of one tree per int32 array of (row, weight)
    columns in `roots`, which it empties, in this process: row r has the
    value codes codes[r] (see value_codes) and the class y[r]. A worker
    whose caller has died leaves at the next step."""
    k = codes.shape[1]
    # a random tree searches floor(log2 k) + 1 candidates, Weka's default: never more than k
    m = k if rngs is None else k.bit_length()
    xlog2x = xlog2x_table(max(int(entries[1].sum()) for entries in roots))  # no node weighs more than its tree
    attributes = list(range(k))

    def splittable(counts: np.ndarray) -> np.ndarray:
        return (counts.sum(axis=1) >= hp.c45_min_leaf) & (np.count_nonzero(counts, axis=1) > 1)

    n_trees = len(roots)
    # The node table, a block per step: the tree and class counts of each
    # new node, and (ids, attributes, thresholds, absent_left, left child
    # ids) of the nodes that split, whose right children follow their left
    # ones. The roots are ids 0..n_trees-1.
    tree_blocks = [np.arange(n_trees)]
    counts_blocks = [np.array([np.bincount(y[rows], weights, n_classes) for rows, weights in roots], dtype=np.int32)]
    grows = splittable(counts_blocks[0])
    # A pending node is (tree, id, its (row, weight) columns), in one
    # first-in, first-out queue. Pending nodes hold the only references to
    # their rows: a sample is freed once its root splits, and the children
    # of one step share an array, freed once the last of them is taken.
    queue = deque((t, t, entries) for t, entries in enumerate(roots) if grows[t])
    roots.clear()
    split_blocks = []
    n_nodes = n_trees
    while queue:
        workers.leave_if_orphaned()
        tree_of, ids, entries, candidates = [], [], [], []
        budget = _STEP_ROWS
        while queue and (not ids or queue[0][2].shape[1] * m <= budget):
            t, node, node_entries = queue.popleft()
            budget -= node_entries.shape[1] * m
            tree_of.append(t)
            ids.append(node)
            entries.append(node_entries)
            if rngs is not None:
                candidates.append(attributes if m >= k else sorted(rngs[t].sample(attributes, m)))

        cand = np.array(candidates) if rngs is not None else np.broadcast_to(np.arange(k), (len(ids), k))
        sizes = np.array([node_entries.shape[1] for node_entries in entries])
        entries = np.concatenate(entries, axis=1, dtype=np.int64)
        chosen, attribute, threshold = _best_splits(codes, values, xlog2x, y, n_classes, entries, cand, sizes)
        if not len(chosen):
            continue
        absent_left, children, child_start, child_counts = _route(
            codes, values, y, n_classes, entries, np.repeat(np.arange(len(ids)), sizes), chosen, attribute, threshold
        )

        child_trees = np.repeat(np.array(tree_of)[chosen], 2)
        left = n_nodes + 2 * np.arange(len(chosen))
        split_blocks.append((np.array(ids)[chosen], attribute, threshold, absent_left, left))
        tree_blocks.append(child_trees)
        counts_blocks.append(child_counts)
        child_start, tree_list = child_start.tolist(), child_trees.tolist()
        for c in np.flatnonzero(splittable(child_counts)).tolist():  # left, right of each chosen node
            queue.append((tree_list[c], n_nodes + c, children[:, child_start[c]:child_start[c + 1]]))
        n_nodes += len(child_trees)

    counts = np.concatenate(counts_blocks)
    del counts_blocks  # free the blocks before _finish allocates
    confidence = hp.c45_confidence if rngs is None and hp.c45_prune else None
    return _finish(np.concatenate(tree_blocks), counts, split_blocks, n_trees, confidence)


def _best_splits(
    codes: np.ndarray, values: np.ndarray, xlog2x: np.ndarray, y: np.ndarray, n_classes: int,
    entries: np.ndarray, cand: np.ndarray, sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(chosen, attribute, threshold): the frontier nodes that split, each
    with its best candidate and threshold. Frontier node f holds the sizes[f]
    (row, weight) columns of `entries` that follow the earlier nodes', and
    the candidates cand[f]; (f, j) is segment f * m + j."""
    n_frontier, m = cand.shape
    row, weight = entries
    splits = split_segments(codes, values, row, y[row], weight, sizes, cand, n_classes, xlog2x)
    node_weight = np.add.reduceat(weight, np.cumsum(sizes) - sizes)
    ratio = gain_ratios(splits, np.repeat(node_weight, m))[0].reshape(n_frontier, m)
    choice = ratio.argmax(axis=1)  # the first maximum: the lowest candidate wins ties
    chosen = np.flatnonzero(ratio[np.arange(n_frontier), choice] > 0.0)
    choice = choice[chosen]
    return chosen, cand[chosen, choice], splits.threshold.reshape(n_frontier, m)[chosen, choice]


def _route(
    codes: np.ndarray, values: np.ndarray, y: np.ndarray, n_classes: int, entries: np.ndarray, owner: np.ndarray,
    chosen: np.ndarray, attribute: np.ndarray, threshold: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(absent_left, entries, start, class counts) of the children of the
    chosen frontier nodes, ordered left, right per node: child c holds the
    int32 (row, weight) columns entries[:, start[c]:start[c + 1]]. Absent
    rows join the side of more present weight, the left one on a tie."""
    slot = np.full(owner[-1] + 1, -1)
    slot[chosen] = np.arange(len(chosen))
    routed = np.flatnonzero(slot[owner] >= 0)
    (row, weight), split = entries[:, routed], slot[owner[routed]]
    code = codes.ravel()[row * codes.shape[1] + attribute[split]]  # codes[row, attribute[split]], faster
    absent = code < 0
    go_right = values.take(code) > threshold[split]  # an Absent cell's -1 reads the last value
    go_right &= ~absent
    # the weight of each split's left, right and absent rows
    sides = _weighted_counts(go_right + 2 * absent, weight, split, len(chosen), 3)
    absent_left = sides[:, 0] >= sides[:, 1]
    child = 2 * split + (go_right | absent & ~absent_left[split])
    n_children = 2 * len(chosen)
    start = np.append(0, np.cumsum(np.bincount(child, minlength=n_children)))
    counts = _weighted_counts(y[row], weight, child, n_children, n_classes)
    return absent_left, entries[:, routed[np.argsort(child, kind="stable")]].astype(np.int32), start, counts


def _weighted_counts(
    label: np.ndarray, weight: np.ndarray, group: np.ndarray, n_groups: int, n_labels: int,
) -> np.ndarray:
    """(n_groups x n_labels) int32: the summed weight of each group's rows
    of each label. Summed weights are integers below 2**53, which float64
    holds exactly."""
    counts = np.bincount(group * n_labels + label, weights=weight, minlength=n_groups * n_labels)
    return counts.reshape(n_groups, n_labels).astype(np.int32)


def _finish(
    tree: np.ndarray, counts: np.ndarray, split_blocks: list, n_trees: int, confidence: Optional[float],
) -> dict:
    """The TreeModel columns of the trees of the node table (whose first
    n_trees nodes are the roots): pruned bottom-up when a confidence is
    given. A tree's node ids ascend in its breadth-first order, the order
    of the model format, so its surviving nodes keep their order."""
    n = len(tree)
    feature = np.full(n, -1, dtype=np.intp)
    threshold = np.zeros(n)
    absent_left = np.zeros(n, dtype=bool)
    for nodes, attribute, cut, absent, _ in split_blocks:
        feature[nodes] = attribute
        threshold[nodes] = cut
        absent_left[nodes] = absent

    # a block's children split in later blocks, if at all: pruning walks the
    # blocks last first, and a node survives when its parent is a surviving split
    if confidence is not None:
        # a subtree whose pessimistic error is no lower than its root's as a leaf collapses
        errors = _pessimistic_errors(counts, confidence)
        for nodes, *_, left in reversed(split_blocks):
            subtree = errors[left] + errors[left + 1]
            collapse = errors[nodes] <= subtree
            errors[nodes[~collapse]] = subtree[~collapse]
            feature[nodes[collapse]] = -1
    kept = np.zeros(n, dtype=bool)
    kept[:n_trees] = True
    for nodes, *_, left in split_blocks:
        left = left[kept[nodes] & (feature[nodes] >= 0)]
        kept[left] = kept[left + 1] = True
    node = np.flatnonzero(kept)
    node = node[np.argsort(tree[node], kind="stable")]
    sizes = np.bincount(tree[node], minlength=n_trees)
    # the node table goes before the columns are gathered: this lowers train-eval rf's peak RSS
    del tree, kept
    feature = feature[node]
    split = node[feature >= 0]
    return {
        "sizes": sizes,
        "feature": feature,
        "threshold": threshold[split],
        "absent_left": absent_left[split],
        "counts": counts[node[feature < 0]],
    }
