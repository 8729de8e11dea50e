"""Decision trees: gain-ratio growth, pessimistic pruning, random trees.

One grower grows a list of trees at once, each from a sample of row indices
into a shared feature matrix (all rows, or a bootstrap sample). Each step
takes a frontier of pending nodes from every tree and scores all its
(node, candidate attribute) pairs with one batched split search,
`selection.split_segments`. C4.5 trees put every pending node into the
frontier; a random tree puts in one node per step, in depth-first order
(left before right), so it draws the candidate sets of each node from its
RNG in the same order as plain recursive growth. A step scores at most
_STEP_ROWS rows (node rows times candidates); nodes beyond that wait, so a
step's working memory does not grow with the number of trees.

At every node the split is the (attribute, threshold) pair maximizing gain
ratio among candidate attributes whose missing-scaled info gain is positive,
the first candidate winning ties; rows with an Absent split value follow the
branch that received the majority of training rows.

Nodes are appended to flat arrays as they are created, parents before
children. Pessimistic pruning and the post-order numbering of the model
format then run one tree level at a time across all trees. A trained tree
is a set of parallel node arrays in the style of scikit-learn's `Tree`.

Prediction routes every tree of a forest at once (`StackedTrees`; a lone
tree is a forest of one). The trees' split nodes are stacked into one set
of node columns, and every (tree, row) pair of a block of rows moves one
level per step through flat gathers and a child[2 * node + (x > threshold)]
table. Absent needs no test per step: it reads as -inf at a node that sends
it left and as +inf at one that sends it right, which is exact because
every threshold is finite (growth takes midpoints of finite values, and
the loader rejects non-finite ones). The leaf distributions are then added
in tree order and divided by the tree count, the bits of a per-tree loop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Iterable, Optional, Sequence

import numpy as np

from ..selection import gain_ratios, split_segments, value_codes
from .base import Hyperparams, TrainedModel


# ---------------------------------------------------------------------------
# Pessimistic pruning (normal-approximation upper confidence bound)


def _added_errors(n: float, e: float, confidence: float) -> float:
    """Extra errors added to e for a pessimistic estimate at the given confidence."""
    if e < 1.0:
        base = n * (1.0 - confidence ** (1.0 / n))
        if e == 0.0:
            return base
        return base + e * (_added_errors(n, 1.0, confidence) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1.0 - confidence)
    f = (e + 0.5) / n
    r = (f + z * z / (2.0 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4.0 * n * n))) / (
        1.0 + z * z / n
    )
    return r * n - e


def _pessimistic_errors(counts: np.ndarray, confidence: float) -> np.ndarray:
    """Pessimistic error estimate of each row of a class-count matrix, one
    scalar evaluation per distinct (rows, errors) pair."""
    n = counts.sum(axis=1)
    e = n - counts.max(axis=1)
    pairs, inverse = np.unique(np.stack((n, e), axis=1), axis=0, return_inverse=True)
    estimates = [float(e) + _added_errors(float(n), float(e), confidence) for n, e in pairs.tolist()]
    return np.array(estimates)[inverse.ravel()]


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True, eq=False)
class TreeModel(TrainedModel):
    """A binary decision tree as parallel node arrays (children before parents).

    Split node i (feature[i] >= 0) sends a row to left[i] when its value of
    schema attribute feature[i] is <= threshold[i], to right[i] when it is
    greater, and to left[i] when it is Absent exactly if absent_left[i].
    Every threshold is finite: prediction relies on it. Leaves have feature
    -1; their training class counts are the rows of `counts` (int32, half
    the memory of int64), in node order. Only leaves carry the
    Laplace-smoothed distribution (count_c + 1) / (total + n_classes),
    computed once here. Prediction routes the tree as a forest of one
    (`StackedTrees`).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    absent_left: np.ndarray
    counts: np.ndarray
    root: int
    leaf: np.ndarray = field(init=False, repr=False)  # node -> row of counts/proba
    proba: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "leaf", np.cumsum(self.feature < 0) - 1)
        counts = self.counts.astype(np.float64)
        proba = (counts + 1.0) / (counts.sum(axis=1, keepdims=True) + counts.shape[1])
        object.__setattr__(self, "proba", proba)

    def distribution_batch(self, X: np.ndarray) -> np.ndarray:
        return StackedTrees((self,), len(self.schema)).mean_distribution(X)


# (tree, row) pairs routed per block of rows. It bounds prediction's working
# memory; a lone tree routes this many rows per block.
_BLOCK_PAIRS = 12_000


class StackedTrees:
    """The node columns of a sequence of trees, stacked to route them all at once.

    Stacked node numbers run over every tree's split nodes first, tree by
    tree in node order, then over every tree's leaves, tree by tree in the
    order of their `proba` rows: leaf j of tree t is number leaf_start[t] + j,
    and a number routes on exactly when it is below n_splits. Split number s
    reads column[s] of a block's value matrix, which holds the k schema
    columns with Absent as -inf and then as +inf, so column[s] is the
    feature plus k when the node sends Absent right. It goes to
    child[2 * s + 1] when the value is greater than threshold[s], else to
    child[2 * s]. A leaf's threshold is NaN and both its children are itself,
    so a pair that reached a leaf stays there until its block drops it.

    The columns take 32 bytes per node. They are built for each prediction
    call and dropped after it: held with a model, they raised the peak RSS
    of `train-eval rf`, whose save_model ran on top of them.
    """

    def __init__(self, trees: Sequence[TreeModel], n_attributes: int) -> None:
        self.probas = [tree.proba for tree in trees]
        splits = [tree.feature >= 0 for tree in trees]
        split_start = np.cumsum([0, *map(np.count_nonzero, splits)])
        self.n_splits = n_splits = int(split_start[-1])
        self.leaf_start = n_splits + np.cumsum([0, *(len(p) for p in self.probas)])
        n_nodes = int(self.leaf_start[-1])
        self.n_attributes = n_attributes
        self.column = np.zeros(n_nodes, dtype=np.intp)
        self.threshold = np.full(n_nodes, np.nan)
        child = np.empty((n_nodes, 2), dtype=np.intp)
        child[n_splits:] = np.arange(n_splits, n_nodes)[:, None]
        roots = []
        for t, (tree, split) in enumerate(zip(trees, splits)):
            number = np.where(split, split_start[t] + np.cumsum(split) - 1, self.leaf_start[t] + tree.leaf)
            at = slice(split_start[t], split_start[t + 1])
            self.column[at] = tree.feature[split] + np.where(tree.absent_left[split], 0, n_attributes)
            self.threshold[at] = tree.threshold[split]
            child[at, 0] = number[tree.left[split]]
            child[at, 1] = number[tree.right[split]]
            roots.append(number[tree.root])
        self.child = child.ravel()
        self.roots = np.array(roots, dtype=np.intp)

    def mean_distribution(self, X: np.ndarray) -> np.ndarray:
        """The mean of the trees' class distributions for rows X (n x k,
        NaN = Absent): their leaf `proba` rows added in tree order, then
        divided by the tree count."""
        n_trees = len(self.probas)
        total = np.zeros((X.shape[0], self.probas[0].shape[1]))
        block = max(1, _BLOCK_PAIRS // n_trees)
        for start in range(0, X.shape[0], block):
            out = total[start:start + block]
            for proba, rows in zip(self.probas, self._leaf_rows(X[start:start + block])):
                out += proba.take(rows, axis=0)
        total /= n_trees
        return total

    def _leaf_rows(self, X: np.ndarray) -> np.ndarray:
        """(trees x rows): the proba row of the leaf that each tree routes
        each row of X to. The block moves its routing pairs one level per
        step, and drops those at a leaf once at most 3/4 of them still route:
        a dropped pair costs a compaction, a kept one a step."""
        n, k = X.shape
        if k != self.n_attributes:
            raise ValueError(f"rows have {k} columns, the model's schema {self.n_attributes}")
        absent = np.isnan(X)
        values = np.concatenate((np.where(absent, -np.inf, X), np.where(absent, np.inf, X)), axis=1).ravel()
        node = np.repeat(self.roots, n)  # pair p is (tree p // n, row p % n)
        pair = np.flatnonzero(node < self.n_splits)
        at = node[pair]
        offset = pair % n * (2 * k)
        while at.size:
            cell = self.column.take(at)
            cell += offset
            value = values.take(cell)
            del cell  # freed before the next gather, which bounds a block's memory
            right = value > self.threshold.take(at)
            at += at
            at += right
            at = self.child.take(at)
            routing = at < self.n_splits
            if 4 * np.count_nonzero(routing) <= 3 * at.size:
                node[pair] = at
                keep = np.flatnonzero(routing)
                at = at[keep]
                pair = pair[keep]
                offset = offset[keep]
        rows = node.reshape(len(self.probas), n)
        rows -= self.leaf_start[:-1, None]
        return rows


# Rows scored per growth step, summed over the frontier's (node, candidate
# attribute) pairs. It bounds the step's working memory; a larger node is
# scored on its own.
_STEP_ROWS = 1 << 15


def grow_trees(
    X: np.ndarray, y: np.ndarray, n_classes: int, samples: Iterable[np.ndarray], hp: Hyperparams,
    rngs: Optional[Sequence[random.Random]] = None,
) -> list[dict]:
    """TreeModel node arrays of one tree per sample (row indices into X, y),
    all taken from `samples` before growth starts.

    With rngs None the trees are C4.5 trees over every attribute, pruned
    when hp.c45_prune; otherwise tree t is an unpruned random tree whose
    searched nodes each draw a sorted candidate set from rngs[t].
    """
    codes, values = value_codes(X)
    k = X.shape[1]
    m = k if rngs is None else hp.resolved_rt_feature_count(k)
    attributes = list(range(k))

    def splittable(sizes: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return (sizes >= hp.c45_min_leaf) & (np.count_nonzero(counts, axis=1) > 1)

    # A pending node is (id, rows, depth). Pending nodes hold the only
    # reference to their rows, so each sample is freed once its root splits.
    # Every tree's rows are pending at once: int32 halves them.
    pending: list[list[tuple[int, np.ndarray, int]]] = [
        [(t, rows.astype(np.int32), 0)] for t, rows in enumerate(samples)
    ]
    n_trees = len(pending)
    # The node table, a block per step: the tree, depth and class counts of
    # each new node, and (ids, attributes, thresholds, absent_left, first
    # child id) of the nodes that split, whose children are ids first + 2i
    # (left) and first + 2i + 1 (right). The roots are ids 0..n_trees-1.
    tree_blocks = [np.arange(n_trees)]
    depth_blocks = [np.zeros(n_trees, dtype=np.intp)]
    counts_blocks = [np.array([np.bincount(y[s[0][1]], minlength=n_classes) for s in pending], dtype=np.int32)]
    split_blocks = []
    n_nodes = n_trees
    for t in np.flatnonzero(~splittable(np.array([len(s[0][1]) for s in pending]), counts_blocks[0])):
        pending[t].clear()

    first = 0  # the tree admitted first; it rotates so that no tree starves
    while any(pending):
        ids, rows, depths, tree_of, candidates = [], [], [], [], []
        budget = _STEP_ROWS
        for t in [*range(first, n_trees), *range(first)]:
            stack = pending[t]
            while stack and (not ids or len(stack[-1][1]) * m <= budget):
                node, node_rows, depth = stack.pop()
                budget -= len(node_rows) * m
                ids.append(node)
                rows.append(node_rows)
                depths.append(depth)
                tree_of.append(t)
                if rngs is not None:
                    candidates.append(attributes if m >= k else sorted(rngs[t].sample(attributes, m)))
                    break
        first = (tree_of[-1] + 1) % n_trees

        cand = np.array(candidates) if rngs is not None else np.broadcast_to(np.arange(k), (len(ids), k))
        sizes = np.array([len(r) for r in rows])
        row = np.concatenate(rows, dtype=np.intp)
        owner = np.repeat(np.arange(len(ids)), sizes)
        chosen, attribute, threshold = _best_splits(codes, values, y, n_classes, row, owner, cand, sizes)
        if not len(chosen):
            continue
        absent_left, child_rows, child_start, child_counts = _route(
            X, y, n_classes, row, owner, chosen, attribute, threshold
        )

        first_child = n_nodes
        n_nodes += 2 * len(chosen)
        child_trees = np.repeat(np.array(tree_of)[chosen], 2)
        child_depths = np.repeat(np.array(depths)[chosen] + 1, 2)
        split_blocks.append((np.array(ids)[chosen], attribute, threshold, absent_left, first_child))
        tree_blocks.append(child_trees)
        depth_blocks.append(child_depths)
        counts_blocks.append(child_counts)
        grows = splittable(np.diff(child_start), child_counts).tolist()
        child_start, child_depths = child_start.tolist(), child_depths.tolist()
        for i, t in enumerate(child_trees[::2].tolist()):
            for c in (2 * i + 1, 2 * i):  # right pushed first: left grows first
                if grows[c]:
                    node_rows = child_rows[child_start[c]:child_start[c + 1]].astype(np.int32)
                    pending[t].append((first_child + c, node_rows, child_depths[c]))

    counts = np.concatenate(counts_blocks)
    del counts_blocks  # free the blocks before _finish allocates
    confidence = hp.c45_confidence if rngs is None and hp.c45_prune else None
    return _finish(np.concatenate(tree_blocks), np.concatenate(depth_blocks), counts, split_blocks, n_trees, confidence)


def _best_splits(
    codes: np.ndarray, values: np.ndarray, y: np.ndarray, n_classes: int,
    row: np.ndarray, owner: np.ndarray, cand: np.ndarray, sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(chosen, attribute, threshold): the frontier nodes that split, each
    with its best candidate and threshold. Frontier node f holds the rows
    row[owner == f] and candidates cand[f]; (f, j) is segment f * m + j."""
    n_frontier, m = cand.shape
    k = codes.shape[1]
    cell = codes.ravel()[(row * k)[:, None] + np.repeat(cand, sizes, axis=0)]  # codes[row, cand[owner]], faster
    present = cell >= 0
    segment = owner[:, None] * m + np.arange(m)
    label = np.broadcast_to(y[row][:, None], cell.shape)
    splits = split_segments(segment[present], cell[present], label[present], values, n_frontier * m, n_classes)
    ratio = gain_ratios(splits, np.repeat(sizes, m))[0].reshape(n_frontier, m)
    choice = ratio.argmax(axis=1)  # the first maximum: the lowest candidate wins ties
    chosen = np.flatnonzero(ratio[np.arange(n_frontier), choice] > 0.0)
    choice = choice[chosen]
    return chosen, cand[chosen, choice], splits.threshold.reshape(n_frontier, m)[chosen, choice]


def _route(
    X: np.ndarray, y: np.ndarray, n_classes: int, row: np.ndarray, owner: np.ndarray,
    chosen: np.ndarray, attribute: np.ndarray, threshold: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(absent_left, rows, start, class counts) of the children of the
    chosen frontier nodes, ordered left, right per node: child c holds
    rows[start[c]:start[c + 1]]. Absent rows join the side with more
    present rows, the left one on a tie."""
    slot = np.full(owner[-1] + 1, -1)
    slot[chosen] = np.arange(len(chosen))
    routed = slot[owner] >= 0
    row, split = row[routed], slot[owner[routed]]
    value = X.ravel()[row * X.shape[1] + attribute[split]]  # X[row, attribute[split]], faster
    go_left = value <= threshold[split]
    n_left = np.bincount(split[go_left], minlength=len(chosen))
    n_right = np.bincount(split[value > threshold[split]], minlength=len(chosen))
    absent_left = n_left >= n_right
    go_left |= np.isnan(value) & absent_left[split]
    child = 2 * split + ~go_left
    n_children = 2 * len(chosen)
    start = np.append(0, np.cumsum(np.bincount(child, minlength=n_children)))
    counts = np.bincount(child * n_classes + y[row], minlength=n_children * n_classes)
    return absent_left, row[np.argsort(child, kind="stable")], start, counts.reshape(-1, n_classes).astype(np.int32)


def _finish(
    tree: np.ndarray, depth: np.ndarray, counts: np.ndarray, split_blocks: list, n_trees: int,
    confidence: Optional[float],
) -> list[dict]:
    """Node arrays of each tree of the node table (whose first n_trees nodes
    are the roots): pruned bottom-up when a confidence is given, then
    numbered in the post-order of the model format."""
    n = len(tree)
    feature = np.full(n, -1, dtype=np.intp)
    threshold = np.zeros(n)
    absent_left = np.zeros(n, dtype=bool)
    left = np.full(n, -1, dtype=np.intp)
    for nodes, attribute, cut, absent, first_child in split_blocks:
        feature[nodes] = attribute
        threshold[nodes] = cut
        absent_left[nodes] = absent
        left[nodes] = first_child + 2 * np.arange(len(nodes))
    right = left + 1
    levels = np.split(np.argsort(depth, kind="stable"), np.cumsum(np.bincount(depth))[:-1])

    if confidence is not None:
        # a subtree whose pessimistic error is no lower than its root's as a leaf collapses
        errors = _pessimistic_errors(counts, confidence)
        for level in reversed(levels):
            level = level[feature[level] >= 0]
            subtree = errors[left[level]] + errors[right[level]]
            collapse = errors[level] <= subtree
            errors[level[~collapse]] = subtree[~collapse]
            feature[level[collapse]] = -1

    # the model format numbers a tree's nodes in reverse (node, left, right) pre-order
    size = np.ones(n, dtype=np.intp)
    for level in reversed(levels):
        level = level[feature[level] >= 0]
        size[level] += size[left[level]] + size[right[level]]
    pre = np.zeros(n, dtype=np.intp)
    kept = np.zeros(n, dtype=bool)
    kept[:n_trees] = True
    for level in levels:
        level = level[kept[level] & (feature[level] >= 0)]
        kept[left[level]] = kept[right[level]] = True
        pre[left[level]] = pre[level] + 1
        pre[right[level]] = pre[level] + 1 + size[left[level]]
    number = size[tree] - 1 - pre
    node = np.flatnonzero(kept)
    node = node[np.lexsort((number[node], tree[node]))]

    leaf = feature < 0
    threshold[leaf] = 0.0
    absent_left[leaf] = False
    left = np.where(leaf, -1, number[left])
    right = np.where(leaf, -1, number[right])
    end = np.cumsum(size[:n_trees])
    trees = []
    for t in range(n_trees):
        nodes = node[end[t] - size[t]:end[t]]
        trees.append({
            "feature": feature[nodes],
            "threshold": threshold[nodes],
            "left": left[nodes],
            "right": right[nodes],
            "absent_left": absent_left[nodes],
            "counts": counts[nodes[leaf[nodes]]],
            "root": int(size[t]) - 1,
        })
    return trees

