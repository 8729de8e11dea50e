"""Gain-ratio attribute scoring, ranking, and exclusion criteria.

Numeric attributes are scored on their single best binary split: candidate
thresholds sit at midpoints between consecutive distinct sorted values, the
gain-maximizing threshold wins (ties toward the smaller threshold), and the
split information is the entropy of the two partition sizes. Absent cells
are left out of the split search; the resulting gain is scaled by the
fraction of present cells before dividing by the split information.

Scoring different attributes is independent work over immutable inputs and
can safely run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import AllZeroCounts, EmptyDataset, MissingMeta, RegistryFormatError, SingleClassDataset
from .features import Dataset

FLAG_MULTI_VALUED = "multi_valued_identifier"
FLAG_TIME_DEPENDENT = "time_dependent"
FLAG_NEGATIVE_HEX_BINARY = "negative_hex_binary"
_KNOWN_FLAGS = frozenset({FLAG_MULTI_VALUED, FLAG_TIME_DEPENDENT, FLAG_NEGATIVE_HEX_BINARY})


@dataclass(frozen=True)
class AttributeMeta:
    name: str
    flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class AttributeScore:
    name: str
    gain_ratio: float
    info_gain: float  # best-split gain, already scaled by present_fraction
    split_threshold: Optional[float]
    present_fraction: float


@dataclass(frozen=True)
class SplitResult:
    threshold: Optional[float]
    info_gain: float
    split_info: float


def entropy(class_counts: Sequence[float]) -> float:
    """Shannon entropy in bits of a class-count vector; 0*log0 counts as 0."""
    total = 0.0
    for count in class_counts:
        if count < 0:
            raise ValueError("class counts must be non-negative")
        total += count
    if total == 0:
        raise AllZeroCounts("entropy needs at least one nonzero count")
    result = 0.0
    for count in class_counts:
        if count > 0:
            p = count / total
            result -= p * math.log2(p)
    return result


def _entropy_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Row-wise entropy for a (m, n_classes) count matrix with row sums `totals`."""
    p = counts / totals[:, None]
    logp = np.zeros_like(p)
    np.log2(p, out=logp, where=p > 0)
    return -(p * logp).sum(axis=1)


def _best_split_arrays(values: np.ndarray, labels: np.ndarray, n_classes: int) -> SplitResult:
    """Best binary split of float values against integer class labels.

    Degenerate inputs (all values equal, or a single class present) yield
    info_gain 0 and no threshold.
    """
    n = values.shape[0]
    if n < 2:
        return SplitResult(None, 0.0, 0.0)
    order = np.argsort(values, kind="stable")
    v = values[order]
    y = labels[order]
    if v[0] == v[-1]:
        return SplitResult(None, 0.0, 0.0)

    one_hot = np.zeros((n, n_classes), dtype=np.float64)
    one_hot[np.arange(n), y] = 1.0
    class_totals = one_hot.sum(axis=0)
    if np.count_nonzero(class_totals) < 2:
        return SplitResult(None, 0.0, 0.0)

    cut_candidates = np.nonzero(v[:-1] != v[1:])[0]  # split after position i
    left_counts = np.cumsum(one_hot, axis=0)[cut_candidates]
    left_totals = (cut_candidates + 1).astype(np.float64)
    right_counts = class_totals[None, :] - left_counts
    right_totals = n - left_totals

    parent_entropy = entropy(class_totals)
    left_entropy = _entropy_from_counts(left_counts, left_totals)
    right_entropy = _entropy_from_counts(right_counts, right_totals)
    gains = parent_entropy - (left_totals * left_entropy + right_totals * right_entropy) / n

    best = int(np.argmax(gains))  # first maximum = smallest threshold
    cut = cut_candidates[best]
    threshold = (v[cut] + v[cut + 1]) / 2.0
    info_gain = max(float(gains[best]), 0.0)
    split_info = entropy([left_totals[best], right_totals[best]])
    return SplitResult(float(threshold), info_gain, split_info)


def best_binary_split(
    values: Sequence[float], labels: Sequence[object]
) -> SplitResult:
    """Public wrapper over the array split search for labeled value lists."""
    v = np.asarray(values, dtype=np.float64)
    names = sorted(set(labels))
    index = {name: i for i, name in enumerate(names)}
    y = np.asarray([index[label] for label in labels], dtype=np.intp)
    return _best_split_arrays(v, y, len(names))


def score_column(column: np.ndarray, labels: np.ndarray, n_classes: int) -> tuple[float, float, Optional[float]]:
    """Missing-aware gain ratio of one float column (NaN marks Absent cells).

    The split is searched over present cells only, the gain scaled by the
    present fraction, and the ratio zeroed whenever the split information is
    zero or the scaled gain is not positive. Returns
    (gain_ratio, scaled_info_gain, threshold). This is the semantic core
    shared by attribute ranking and decision-tree growth.
    """
    present = ~np.isnan(column)
    n_present = int(present.sum())
    if n_present < 2:
        return 0.0, 0.0, None
    split = _best_split_arrays(column[present], labels[present], n_classes)
    scaled_gain = split.info_gain * (n_present / column.shape[0])
    if split.split_info > 0.0 and scaled_gain > 0.0:
        return scaled_gain / split.split_info, scaled_gain, split.threshold
    return 0.0, 0.0, None


def gain_ratio_score(
    name: str, column: Sequence[Optional[float]], labels: Sequence[object]
) -> AttributeScore:
    """Gain-ratio score of one attribute column that may contain Absent cells.

    An all-Absent column scores 0 with present_fraction 0.
    """
    if len(column) != len(labels):
        raise ValueError("column and labels must have equal length")
    if len(labels) < 2:
        raise EmptyDataset("gain ratio needs at least 2 rows")
    values = np.array(column, dtype=np.float64)  # None becomes NaN
    names = sorted(set(labels))
    index = {label: i for i, label in enumerate(names)}
    y = np.asarray([index[label] for label in labels], dtype=np.intp)
    present_fraction = float((~np.isnan(values)).sum()) / len(column)
    ratio, scaled_gain, threshold = score_column(values, y, len(names))
    return AttributeScore(
        name=name,
        gain_ratio=ratio,
        info_gain=scaled_gain,
        split_threshold=threshold,
        present_fraction=present_fraction,
    )


@dataclass(frozen=True)
class RankedList:
    """Attribute scores in descending gain-ratio order (schema order on ties)."""

    scores: tuple[AttributeScore, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.scores)


def rank(dataset: Dataset) -> RankedList:
    """Score every schema attribute and sort by gain ratio, descending.

    Sorting is stable, so equal scores keep schema order.
    """
    if len(dataset) < 2:
        raise EmptyDataset("ranking needs at least 2 rows")
    if None in dataset.targets():
        raise ValueError("ranking requires every row to be labeled")
    if len(dataset.class_names) < 2:
        raise SingleClassDataset("ranking needs at least 2 classes")
    X, targets = dataset.matrix(), dataset.targets()
    scores = [gain_ratio_score(a, X[:, j], targets) for j, a in enumerate(dataset.attributes)]
    ordered = sorted(scores, key=lambda s: -s.gain_ratio)
    return RankedList(scores=tuple(ordered))


def apply_criteria(ranked: RankedList, meta: Iterable[AttributeMeta]) -> tuple[str, ...]:
    """Drop attributes failing any exclusion criterion, keeping rank order.

    Criteria: gain ratio of zero (non-positive gains are already clamped to
    zero), or any of the registry flags (multi-valued identifier,
    time-dependent, negative/hex/binary values). Every ranked attribute must
    have a meta entry.
    """
    meta_by_name = {m.name: m for m in meta}
    selected: list[str] = []
    for score in ranked.scores:
        m = meta_by_name.get(score.name)
        if m is None:
            raise MissingMeta(score.name)
        if score.gain_ratio <= 0.0:
            continue
        if m.flags & _KNOWN_FLAGS:
            continue
        selected.append(score.name)
    return tuple(selected)


def default_meta(names: Iterable[str]) -> list[AttributeMeta]:
    """Unflagged metadata for attributes absent from any registry file."""
    return [AttributeMeta(name) for name in names]


def read_attribute_meta(source: Union[str, TextIO, Iterable[str]]) -> list[AttributeMeta]:
    """Parse an attribute-meta registry: `name<TAB>flag[,flag...]` per line.

    A line holding only a name declares an unflagged attribute. Blank lines
    and # comments are ignored.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]
    metas: list[AttributeMeta] = []
    seen: set[str] = set()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) > 2:
            raise RegistryFormatError(number, f"expected `name` or `name<TAB>flags`, got {len(parts)} fields")
        name = parts[0].strip()
        if not name:
            raise RegistryFormatError(number, "attribute name must be non-empty")
        if name in seen:
            raise RegistryFormatError(number, f"duplicate attribute {name!r}")
        seen.add(name)
        flags: set[str] = set()
        if len(parts) == 2 and parts[1].strip():
            for token in parts[1].split(","):
                flag = token.strip()
                if flag not in _KNOWN_FLAGS:
                    raise RegistryFormatError(number, f"unknown flag {flag!r}")
                flags.add(flag)
        metas.append(AttributeMeta(name, frozenset(flags)))
    return metas


def rank_report_csv(ranked: RankedList) -> str:
    """Machine-readable rank report: rank,attribute,gain_ratio,info_gain,present_fraction."""
    lines = ["rank,attribute,gain_ratio,info_gain,present_fraction"]
    for position, score in enumerate(ranked.scores, start=1):
        lines.append(
            f"{position},{score.name},{score.gain_ratio:.12g},"
            f"{score.info_gain:.12g},{score.present_fraction:.12g}"
        )
    return "\n".join(lines) + "\n"
