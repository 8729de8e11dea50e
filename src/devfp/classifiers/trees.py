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
format then run one tree level at a time across all trees. A trained model
(`TreeModel`, one class for j48, rt, rf and bagging) holds all its trees as
one set of the model format's columns; a lone tree is a forest of one.

Prediction routes every tree of a model at once. Every (tree, row) pair of
a block of rows moves one level per step through flat gathers and a
child[2 * node + (x > threshold)] table, which the model builds once from
its columns. Absent needs no test per step: it reads as -inf at a node that
sends it left and as +inf at one that sends it right, which is exact
because every threshold is finite (growth takes midpoints of finite values,
and the loader rejects non-finite ones). The leaf distributions are then
added in tree order and divided by the tree count, the bits of a per-tree
loop.
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
    """A j48, rt, rf or bagging model: every tree as one set of the model
    format's columns (a lone tree is a forest of one).

    Tree t holds sizes[t] nodes, the trees one after another. `feature` has
    one entry per node: each tree's nodes in post-order (right subtree, left
    subtree, node), a split holding the schema attribute it tests and a leaf
    -1. `threshold` and `absent_left` have one entry per split, in node
    order: a row goes right when its value is greater than the threshold,
    left when it is not, and left when it is Absent exactly if absent_left.
    Every threshold is finite: prediction relies on it. `counts` has one row
    of training class counts (int32, half the memory of int64) per leaf, in
    node order.

    The routing columns are built once, here. A node's number is its split
    index when it is a split, else the number of splits plus its leaf index,
    which is its row of `counts` and of `proba`, the Laplace-smoothed
    distribution (count_c + 1) / (total + n_classes). Split s reads column[s]
    of a block's value matrix, which holds the k schema columns with Absent
    as -inf and then as +inf, so column[s] is the attribute plus k when the
    split sends Absent right. It goes to child[2 * s + 1] when the value is
    greater than threshold[s], else to child[2 * s]. Both children of a leaf
    are itself, so a row that reached a leaf stays there. roots[t] is the
    number of tree t's last node.
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
        split = self.feature >= 0
        n, n_splits = len(split), len(self.threshold)
        right = _right_children(self.sizes, split)
        number = np.empty(n, dtype=np.intp)
        number[split] = np.arange(n_splits)
        number[~split] = np.arange(n_splits, n)
        child = np.empty((n, 2), dtype=np.intp)
        child[:n_splits, 0] = number[np.flatnonzero(split) - 1]  # the node before a split is its left child
        child[:n_splits, 1] = number[right]
        child[n_splits:] = np.arange(n_splits, n)[:, None]
        column = self.feature[split] + np.where(self.absent_left, 0, len(self.schema))
        proba = self.counts + 1.0
        proba /= proba.sum(axis=1, keepdims=True)  # integer-valued sums: exactly total + n_classes
        for name, value in (("column", column), ("child", child.ravel()), ("proba", proba),
                            ("roots", number[np.cumsum(self.sizes) - 1])):
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


def _right_children(sizes: np.ndarray, split: np.ndarray) -> np.ndarray:
    """The right child of each split, in node order, of trees of these sizes
    whose nodes are in post-order and are splits where `split` holds.

    Let h be the stack height after each node, counted on from tree to tree:
    the running sum of +1 per leaf and -1 per split. Tree t must end at
    h = t + 1 and stay at h >= t + 1, so every split has two subtrees before
    it in its tree. The right child of a split is then the last earlier node
    with the same h. Raises ValueError when the nodes are not such trees.
    """
    height = np.cumsum(np.where(split, -1, 1))
    end = np.cumsum(sizes)
    tops = np.arange(1, len(sizes) + 1)
    if not (np.array_equal(height[end - 1], tops) and np.all(np.minimum.reduceat(height, end - sizes) >= tops)):
        raise ValueError(
            "malformed tree: in post-order every split needs two subtrees before it, and a tree ends at its root"
        )
    # among the nodes of one height, in node order, the one before a split is its right child
    order = np.argsort(height, kind="stable")
    del height
    right = np.empty(len(split), dtype=np.intp)
    right[order[1:]] = order[:-1]
    return right[split]


# (tree, row) pairs routed per block of rows. It bounds prediction's working
# memory; a lone tree routes this many rows per block.
_BLOCK_PAIRS = 12_000


# Rows scored per growth step, summed over the frontier's (node, candidate
# attribute) pairs. It bounds the step's working memory; a larger node is
# scored on its own.
_STEP_ROWS = 1 << 15


def grow_trees(
    X: np.ndarray, y: np.ndarray, n_classes: int, samples: Iterable[np.ndarray], hp: Hyperparams,
    rngs: Optional[Sequence[random.Random]] = None,
) -> dict:
    """The TreeModel columns (sizes, feature, threshold, absent_left and
    counts) of one tree per sample (row indices into X, y), all taken from
    `samples` before growth starts.

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
) -> dict:
    """The TreeModel columns of the trees of the node table (whose first
    n_trees nodes are the roots): pruned bottom-up when a confidence is
    given, then put in the post-order of the model format."""
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
    sizes = size[:n_trees].copy()
    # the node table goes before the columns are gathered: this lowers train-eval rf's peak RSS
    del tree, depth, left, right, levels, size, pre, kept, number
    feature = feature[node]
    split = node[feature >= 0]
    return {
        "sizes": sizes,
        "feature": feature,
        "threshold": threshold[split],
        "absent_left": absent_left[split],
        "counts": counts[node[feature < 0]],
    }

