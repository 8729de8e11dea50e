"""Decision trees: gain-ratio growth, pessimistic pruning, random trees.

Growth is recursive in spirit but implemented with explicit stacks so that
pathological data (long alternating value runs) cannot hit the interpreter
recursion limit. At every node the candidate (attribute, threshold) pair is
the one maximizing gain ratio among attributes whose missing-scaled info
gain is positive; rows with an Absent split value follow the branch that
received the majority of training rows.

A trained tree is a set of parallel node arrays in the style of
scikit-learn's `Tree`, numbered in the post-order of model format v1, and
predicts all rows of a batch at once, one tree level per step.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Optional, Sequence

import numpy as np

from ..selection import score_column
from .base import (
    Hyperparams,
    TrainedModel,
    VARIANT_C45,
    VARIANT_RANDOM_TREE,
    dataset_arrays,
    derive_rng,
)


# ---------------------------------------------------------------------------
# Growth

# Builder nodes are dicts while the tree is mutable (growth + pruning), then
# flattened into the node arrays of a TreeModel.


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    min_leaf: int,
    pick_candidates: Callable[[], Sequence[int]],
) -> dict:
    root: dict = {}
    stack: list[tuple[dict, np.ndarray]] = [(root, np.arange(len(y), dtype=np.intp))]
    while stack:
        node, idx = stack.pop()
        sub_y = y[idx]
        counts = np.bincount(sub_y, minlength=n_classes)
        node["counts"] = counts
        node["leaf"] = True
        if len(idx) < min_leaf or np.count_nonzero(counts) <= 1:
            continue
        best_ratio = 0.0
        best_attr = -1
        best_threshold = 0.0
        for attribute in pick_candidates():
            column = X[idx, attribute]
            ratio, scaled_gain, threshold = score_column(column, sub_y, n_classes)
            if scaled_gain > 0.0 and ratio > best_ratio:
                best_ratio = ratio
                best_attr = attribute
                best_threshold = threshold
        if best_attr < 0:
            continue  # no positive-gain split
        column = X[idx, best_attr]
        present = ~np.isnan(column)
        go_left = present & (column <= best_threshold)
        go_right = present & (column > best_threshold)
        absent_left = bool(go_left.sum() >= go_right.sum())
        if absent_left:
            go_left |= ~present
        else:
            go_right |= ~present
        node["leaf"] = False
        node["attribute"] = int(best_attr)
        node["threshold"] = float(best_threshold)
        node["absent_left"] = absent_left
        node["left"] = {}
        node["right"] = {}
        # left pushed last so it grows first: fixed traversal order keeps
        # per-node RNG draws (random trees) reproducible
        stack.append((node["right"], idx[go_right]))
        stack.append((node["left"], idx[go_left]))
    return root


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


def _pessimistic_errors(counts: np.ndarray, confidence: float) -> float:
    n = float(counts.sum())
    e = n - float(counts.max())
    return e + _added_errors(n, e, confidence)


def _post_order(root: dict) -> list[dict]:
    """Builder nodes in the post-order of model format v1: right subtree, left
    subtree, node (children before parents); the reverse of a (node, left,
    right) pre-order walk."""
    order: list[dict] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node["leaf"]:
            stack.append(node["right"])
            stack.append(node["left"])
    order.reverse()
    return order


def _prune(root: dict, confidence: float) -> None:
    """Collapse subtrees whose pessimistic leaf error is no worse, bottom-up."""
    for node in _post_order(root):
        if node["leaf"]:
            node["est_errors"] = _pessimistic_errors(node["counts"], confidence)
            continue
        subtree_errors = node["left"]["est_errors"] + node["right"]["est_errors"]
        leaf_errors = _pessimistic_errors(node["counts"], confidence)
        if leaf_errors <= subtree_errors:
            node["leaf"] = True
            del node["left"], node["right"]
            node["est_errors"] = leaf_errors
        else:
            node["est_errors"] = subtree_errors


def _flatten(root: dict) -> dict:
    """TreeModel node arrays for a builder tree, numbered in post-order."""
    order = _post_order(root)
    index = {id(node): i for i, node in enumerate(order)}

    def column(value: Callable[[dict], object], leaf_value: object, dtype) -> np.ndarray:
        return np.array([leaf_value if n["leaf"] else value(n) for n in order], dtype=dtype)

    return {
        "feature": column(lambda n: n["attribute"], -1, np.intp),
        "threshold": column(lambda n: n["threshold"], 0.0, np.float64),
        "left": column(lambda n: index[id(n["left"])], -1, np.intp),
        "right": column(lambda n: index[id(n["right"])], -1, np.intp),
        "absent_left": column(lambda n: n["absent_left"], False, bool),
        "counts": np.array([n["counts"] for n in order if n["leaf"]], dtype=np.int32),
        "root": len(order) - 1,
    }


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True, eq=False)
class TreeModel(TrainedModel):
    """A binary decision tree as parallel node arrays (children before parents).

    Split node i (feature[i] >= 0) sends a row to left[i] when its value of
    schema attribute feature[i] is <= threshold[i], to right[i] when it is
    greater, and to left[i] when it is Absent exactly if absent_left[i].
    Leaves have feature -1; their training class counts are the rows of
    `counts` (int32, half the memory of int64), in node order. Only leaves
    carry the Laplace-smoothed distribution (count_c + 1) / (total +
    n_classes), computed once here.
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
        node = np.full(X.shape[0], self.root, dtype=np.intp)
        rows = np.flatnonzero(self.feature[node] >= 0)
        while rows.size:
            at = node[rows]
            value = X[rows, self.feature[at]]
            go_left = np.where(np.isnan(value), self.absent_left[at], value <= self.threshold[at])
            at = np.where(go_left, self.left[at], self.right[at])
            node[rows] = at
            rows = rows[self.feature[at] >= 0]
        return self.proba[self.leaf[node]]


def grow_c45(X: np.ndarray, y: np.ndarray, n_classes: int, hp: Hyperparams) -> dict:
    """C4.5 growth (+ optional pruning) on raw arrays: TreeModel node arrays."""
    k = X.shape[1]
    all_attributes = tuple(range(k))
    root = _grow(X, y, n_classes, hp.c45_min_leaf, lambda: all_attributes)
    if hp.c45_prune:
        _prune(root, hp.c45_confidence)
    return _flatten(root)


def grow_random(
    X: np.ndarray, y: np.ndarray, n_classes: int, hp: Hyperparams, rng: random.Random
) -> dict:
    """Random-tree growth on raw arrays (sampled candidates, never pruned): node arrays."""
    k = X.shape[1]
    m = hp.resolved_rt_feature_count(k)
    attributes = list(range(k))

    def pick() -> Sequence[int]:
        if m >= k:
            return attributes
        return sorted(rng.sample(attributes, m))

    return _flatten(_grow(X, y, n_classes, hp.c45_min_leaf, pick))


def train_c45(dataset, hyperparams: Optional[Hyperparams] = None) -> TreeModel:
    """Grow a gain-ratio decision tree, pessimistically pruned by default."""
    hp = hyperparams or Hyperparams()
    X, y, class_names = dataset_arrays(dataset)
    arrays = grow_c45(X, y, len(class_names), hp)
    return TreeModel(
        schema=tuple(dataset.attributes), class_names=class_names, hyperparams=hp,
        variant=VARIANT_C45, **arrays,
    )


def train_random_tree(
    dataset, hyperparams: Optional[Hyperparams] = None, rng: Optional[random.Random] = None
) -> TreeModel:
    """Grow one unpruned tree over per-node random candidate attributes.

    The rng (or the hyperparameter seed when rng is None) fully determines
    the tree for a given dataset. When the candidate count covers every
    attribute the sampling degenerates and the tree equals an unpruned C4.5
    tree.
    """
    hp = hyperparams or Hyperparams()
    X, y, class_names = dataset_arrays(dataset)
    if rng is None:
        rng = derive_rng(hp.seed, "rt")
    arrays = grow_random(X, y, len(class_names), hp, rng)
    return TreeModel(
        schema=tuple(dataset.attributes), class_names=class_names, hyperparams=hp,
        variant=VARIANT_RANDOM_TREE, **arrays,
    )
