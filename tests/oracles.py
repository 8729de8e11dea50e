"""Independent reference implementations used to check results.

The brute-force functions are deliberately naive: plain enumeration over
thresholds, textbook formulas, no numpy. The reference tree grower below
them is devfp's earlier per-node grower, kept verbatim in arithmetic: one
split search per node and attribute, builder dicts, then post-order
flattening. The frontier grower must reproduce its node arrays bit for bit.
Neither shares code with the package internals.
"""

from __future__ import annotations

import math
from collections import Counter
from statistics import NormalDist

import numpy as np


def brute_entropy(labels) -> float:
    n = len(labels)
    return -sum((c / n) * math.log2(c / n) for c in Counter(labels).values())


def brute_entropy_counts(counts) -> float:
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


def brute_split_candidates(values, labels):
    """Every candidate midpoint with its (threshold, info_gain, split_info)."""
    pairs = sorted(zip(values, labels), key=lambda p: p[0])
    v = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    n = len(v)
    if n < 2 or v[0] == v[-1] or len(set(y)) < 2:
        return []
    parent = brute_entropy(y)
    out = []
    for i in range(n - 1):
        if v[i] == v[i + 1]:
            continue
        threshold = (v[i] + v[i + 1]) / 2.0
        left, right = y[: i + 1], y[i + 1 :]
        gain = parent - (len(left) * brute_entropy(left) + len(right) * brute_entropy(right)) / n
        out.append((threshold, gain, brute_entropy_counts([len(left), len(right)])))
    return out


def brute_best_split(values, labels):
    """(threshold, info_gain, split_info) by midpoint enumeration.

    Ties take the smallest threshold (first in ascending scan, strictly
    greater comparison). Degenerate input yields (None, 0.0, 0.0).
    """
    best = (None, 0.0, 0.0)
    for threshold, gain, split_info in brute_split_candidates(values, labels):
        if gain > best[1]:
            best = (threshold, gain, split_info)
    return best


def brute_gain_ratio(column, labels) -> float:
    """Gain ratio with present-fraction scaling over a column with None cells."""
    present = [(v, l) for v, l in zip(column, labels) if v is not None]
    if len(present) < 2:
        return 0.0
    _, gain, split_info = brute_best_split([p[0] for p in present], [p[1] for p in present])
    scaled = gain * len(present) / len(column)
    if split_info > 0.0 and scaled > 0.0:
        return scaled / split_info
    return 0.0


# ---------------------------------------------------------------------------
# Reference per-node tree growth


def reference_entropy(class_counts) -> float:
    total = 0.0
    for count in class_counts:
        total += count
    result = 0.0
    for count in class_counts:
        if count > 0:
            p = count / total
            result -= p * math.log2(p)
    return result


def _entropy_rows(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    p = counts / totals[:, None]
    logp = np.zeros_like(p)
    np.log2(p, out=logp, where=p > 0)
    return -(p * logp).sum(axis=1)


def reference_best_split(values: np.ndarray, labels: np.ndarray, n_classes: int):
    """(threshold, info_gain, split_info) of one node's present values."""
    n = values.shape[0]
    if n < 2:
        return None, 0.0, 0.0
    order = np.argsort(values, kind="stable")
    v = values[order]
    y = labels[order]
    if v[0] == v[-1]:
        return None, 0.0, 0.0
    one_hot = np.zeros((n, n_classes), dtype=np.float64)
    one_hot[np.arange(n), y] = 1.0
    class_totals = one_hot.sum(axis=0)
    if np.count_nonzero(class_totals) < 2:
        return None, 0.0, 0.0
    cut_candidates = np.nonzero(v[:-1] != v[1:])[0]
    left_counts = np.cumsum(one_hot, axis=0)[cut_candidates]
    left_totals = (cut_candidates + 1).astype(np.float64)
    right_counts = class_totals[None, :] - left_counts
    right_totals = n - left_totals
    parent_entropy = reference_entropy(class_totals)
    left_entropy = _entropy_rows(left_counts, left_totals)
    right_entropy = _entropy_rows(right_counts, right_totals)
    gains = parent_entropy - (left_totals * left_entropy + right_totals * right_entropy) / n
    best = int(np.argmax(gains))
    cut = cut_candidates[best]
    threshold = (v[cut] + v[cut + 1]) / 2.0
    info_gain = max(float(gains[best]), 0.0)
    split_info = reference_entropy([left_totals[best], right_totals[best]])
    return float(threshold), info_gain, split_info


def reference_score_column(column: np.ndarray, labels: np.ndarray, n_classes: int):
    """(gain_ratio, scaled_info_gain, threshold) of one column with NaN cells."""
    present = ~np.isnan(column)
    n_present = int(present.sum())
    if n_present < 2:
        return 0.0, 0.0, None
    threshold, info_gain, split_info = reference_best_split(column[present], labels[present], n_classes)
    scaled_gain = info_gain * (n_present / column.shape[0])
    if split_info > 0.0 and scaled_gain > 0.0:
        return scaled_gain / split_info, scaled_gain, threshold
    return 0.0, 0.0, None


def _reference_grow(X, y, n_classes, min_leaf, pick_candidates) -> dict:
    root: dict = {}
    stack = [(root, np.arange(len(y), dtype=np.intp))]
    while stack:
        node, idx = stack.pop()
        sub_y = y[idx]
        counts = np.bincount(sub_y, minlength=n_classes)
        node["counts"] = counts
        node["leaf"] = True
        if len(idx) < min_leaf or np.count_nonzero(counts) <= 1:
            continue
        best_ratio, best_attr, best_threshold = 0.0, -1, 0.0
        for attribute in pick_candidates():
            ratio, scaled_gain, threshold = reference_score_column(X[idx, attribute], sub_y, n_classes)
            if scaled_gain > 0.0 and ratio > best_ratio:
                best_ratio, best_attr, best_threshold = ratio, attribute, threshold
        if best_attr < 0:
            continue
        column = X[idx, best_attr]
        present = ~np.isnan(column)
        go_left = present & (column <= best_threshold)
        go_right = present & (column > best_threshold)
        absent_left = bool(go_left.sum() >= go_right.sum())
        if absent_left:
            go_left |= ~present
        else:
            go_right |= ~present
        node.update(leaf=False, attribute=int(best_attr), threshold=float(best_threshold),
                    absent_left=absent_left, left={}, right={})
        stack.append((node["right"], idx[go_right]))
        stack.append((node["left"], idx[go_left]))
    return root


def _added_errors(n: float, e: float, confidence: float) -> float:
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


def _pessimistic_errors(counts, confidence: float) -> float:
    n = float(counts.sum())
    e = n - float(counts.max())
    return e + _added_errors(n, e, confidence)


def _post_order(root: dict) -> list:
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node["leaf"]:
            stack.append(node["right"])
            stack.append(node["left"])
    order.reverse()
    return order


def _reference_prune(root: dict, confidence: float) -> None:
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
    order = _post_order(root)
    index = {id(node): i for i, node in enumerate(order)}

    def column(value, leaf_value, dtype):
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


def reference_tree(X, y, n_classes, hp, rng=None) -> dict:
    """Node arrays of a C4.5 tree (rng None, pruned per hp) or of a random
    tree drawing sorted candidate sets from rng at each searched node."""
    k = X.shape[1]
    attributes = list(range(k))
    if rng is None:
        pick = lambda: attributes  # noqa: E731
    else:
        m = hp.resolved_rt_feature_count(k)
        pick = lambda: attributes if m >= k else sorted(rng.sample(attributes, m))  # noqa: E731
    root = _reference_grow(X, y, n_classes, hp.c45_min_leaf, pick)
    if rng is None and hp.c45_prune:
        _reference_prune(root, hp.c45_confidence)
    return _flatten(root)


def reference_bootstrap(rng, n: int, size: int) -> np.ndarray:
    """One randrange(n) call per drawn row."""
    return np.asarray([rng.randrange(n) for _ in range(size)], dtype=np.intp)
