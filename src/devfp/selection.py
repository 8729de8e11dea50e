"""Gain-ratio attribute scoring, ranking, and exclusion criteria.

Numeric attributes are scored on their single best binary split: candidate
thresholds sit at midpoints between consecutive distinct sorted values, the
gain-maximizing threshold wins (ties toward the smaller threshold), and the
split information is the entropy of the two partition sizes. Absent cells
are left out of the split search; the resulting gain is scaled by the
fraction of present cells before dividing by the split information.

One batched scorer, `split_segments`, serves ranking and tree growth. It
takes the cells of many segments at once (a segment is one attribute's
values within one tree node, or a whole column when ranking) and finds the
best split of every segment with one sort and a segmented cumulative sum of
class counts. It is exact: class counts at cuts are integers, and one
routine, `weighted_entropies`, gives every n·H (entropy times the row total
n) as T[n] - T[c_0] - T[c_1] - ..., T[x] = x·log2(x) a table built once per
ranking or forest with `math.log2`. A cut's gain is (n·H(parent) -
n·H(left) - n·H(right)) / n and its split information n·H(n_left, n_right)
/ n: lookups, subtractions and a division, so the scores do not depend on
numpy's SIMD kernels, and this arithmetic decides near-ties between gains.

Ranking returns a plain tuple of `AttributeScore`s sorted by gain ratio.
Attribute metadata is a plain dict from attribute name to the frozenset of
exclusion flags the registry gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import MissingMeta, RegistryFormatError
from .features import Dataset, registry_fields, require_classes

FLAG_MULTI_VALUED = "multi_valued_identifier"
FLAG_TIME_DEPENDENT = "time_dependent"
FLAG_NEGATIVE_HEX_BINARY = "negative_hex_binary"
_KNOWN_FLAGS = frozenset({FLAG_MULTI_VALUED, FLAG_TIME_DEPENDENT, FLAG_NEGATIVE_HEX_BINARY})


@dataclass(frozen=True)
class AttributeScore:
    name: str
    gain_ratio: float
    info_gain: float  # best-split gain, already scaled by present_fraction
    split_threshold: Optional[float]
    present_fraction: float


def xlog2x_table(n: int) -> np.ndarray:
    """T[x] = x·log2(x) for the counts x = 0..n, T[0] = 0, from `math.log2`."""
    return np.array([0.0] + [x * math.log2(x) for x in range(1, n + 1)])


def weighted_entropies(counts: np.ndarray, xlog2x: np.ndarray) -> np.ndarray:
    """n·H, the Shannon entropy in bits times the total n, of every row of an
    integer class-count matrix: T[n] - T[c_0] - T[c_1] - ..., T the table
    `xlog2x_table` builds over at least 0..n."""
    result = xlog2x[counts.sum(axis=1)]
    for column in counts.T:
        result -= xlog2x[column]
    return result


def value_codes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, values): codes[i, j] indexes values, ascending with X[i, j]
    within attribute j, and is -1 for an Absent cell."""
    codes = np.full(X.shape, -1, dtype=np.int64)
    distinct = [np.empty(0)]  # concatenate needs an array when X has no columns
    offset = 0
    for j in range(X.shape[1]):
        present = ~np.isnan(X[:, j])
        values, inverse = np.unique(X[present, j], return_inverse=True)
        codes[present, j] = inverse + offset
        distinct.append(values)
        offset += len(values)
    return codes, np.concatenate(distinct)


class SegmentSplits(NamedTuple):
    """The best binary split of every segment, as arrays indexed by segment."""

    threshold: np.ndarray  # NaN where the segment has no split
    info_gain: np.ndarray
    split_info: np.ndarray
    n_present: np.ndarray  # entries in the segment


def split_segments(
    segment: np.ndarray, code: np.ndarray, label: np.ndarray,
    values: np.ndarray, n_segments: int, n_classes: int, xlog2x: np.ndarray,
) -> SegmentSplits:
    """Best binary split of each segment's entries, all segments at once.

    Entry i has value values[code[i]] (codes ascend with value) and class
    label[i]. One sort by the composite key (segment, code, label) groups
    the entries; runs of equal (segment, value) merge into class-count rows
    whose segmented cumsum gives the exact class counts left of every cut.
    Each segment takes its first maximum-gain cut, which is the smallest
    threshold. A segment with fewer than two classes or one distinct value
    has no split (info_gain 0, split_info 0). `xlog2x` spans every segment's size.
    """
    threshold = np.full(n_segments, math.nan)
    info_gain = np.zeros(n_segments)
    split_info = np.zeros(n_segments)
    present = np.bincount(segment, minlength=n_segments)
    if not len(segment):
        return SegmentSplits(threshold, info_gain, split_info, present)
    n_values = len(values)
    key = (segment.astype(np.int64) * n_values + code) * n_classes + label
    key.sort()
    label = key % n_classes
    key //= n_classes
    starts = _run_starts(key)
    run = np.cumsum(starts) - 1
    run_key = key[starts]
    run_segment = run_key // n_values
    n_runs = len(run_key)
    cum = np.bincount(run * n_classes + label, minlength=n_runs * n_classes).reshape(n_runs, n_classes)
    np.cumsum(cum, axis=0, out=cum)

    # the nonempty segments: their first and last runs and the counts before them
    first = np.flatnonzero(_run_starts(run_segment))
    last = np.append(first[1:], n_runs) - 1
    base = np.zeros((len(first), n_classes), dtype=cum.dtype)
    base[1:] = cum[first[1:] - 1]
    totals = cum[last] - base

    # a cut follows every run but the last of a segment with two or more classes
    cut = np.ones(n_runs, dtype=bool)
    cut[last] = False
    cut &= np.repeat(np.count_nonzero(totals, axis=1) >= 2, last - first + 1)
    cut = np.flatnonzero(cut)
    if not len(cut):
        return SegmentSplits(threshold, info_gain, split_info, present)
    owner = np.searchsorted(first, cut, side="right") - 1  # row of `totals`
    # (cuts, n_classes) matrices dominate a step's memory: hold at most two
    left = cum[cut]
    del cum
    left -= base[owner]
    gains = weighted_entropies(totals, xlog2x)[owner]
    gains -= weighted_entropies(left, xlog2x)
    n_left = left.sum(axis=1)
    right = totals[owner] - left
    del left
    gains -= weighted_entropies(right, xlog2x)
    n = totals.sum(axis=1)[owner]
    gains /= n

    # the first maximum of each segment, which is its smallest threshold
    head = np.flatnonzero(_run_starts(owner))
    top = np.repeat(np.maximum.reduceat(gains, head), np.diff(np.append(head, len(gains))))
    hits = np.flatnonzero(gains == top)
    best = hits[_run_starts(owner[hits])]
    at = run_segment[cut[best]]
    run_value = values[run_key - run_segment * n_values]
    threshold[at] = (run_value[cut[best]] + run_value[cut[best] + 1]) / 2.0
    info_gain[at] = np.maximum(gains[best], 0.0)
    split_info[at] = weighted_entropies(np.stack((n_left[best], n[best] - n_left[best]), axis=1), xlog2x) / n[best]
    return SegmentSplits(threshold, info_gain, split_info, present)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where a sorted array starts a run of equal values."""
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = a[1:] != a[:-1]
    return starts


def gain_ratios(splits: SegmentSplits, n_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gain_ratio, scaled_info_gain) per segment of `n_rows` rows, Absent
    cells included: the info gain scaled by the present fraction, and both
    zeroed unless the scaled gain and the split information are positive."""
    scaled = splits.info_gain * (splits.n_present / n_rows)
    ok = (splits.split_info > 0.0) & (scaled > 0.0)
    ratio = np.divide(scaled, splits.split_info, out=np.zeros_like(scaled), where=ok)
    return ratio, np.where(ok, scaled, 0.0)


def rank(dataset: Dataset) -> tuple[AttributeScore, ...]:
    """Score every schema attribute and sort by gain ratio, descending.

    Segment j of one split_segments call holds attribute j's present cells,
    so ranking is the split search of tree growth at a one-node frontier.
    An all-Absent attribute scores 0 with present_fraction 0. Sorting is
    stable, so equal scores keep schema order.
    """
    require_classes(dataset, "ranking")
    codes, values = value_codes(dataset.matrix())
    n, k = codes.shape
    row, attribute = np.nonzero(codes >= 0)
    y = dataset.class_codes()[row]  # the class of each present cell
    splits = split_segments(attribute, codes[row, attribute], y, values, k, len(dataset.class_names), xlog2x_table(n))
    ratio, gain = gain_ratios(splits, np.full(k, n))
    scores = [
        AttributeScore(name, r, g, t if g > 0.0 else None, present / n)
        for name, r, g, t, present in zip(
            dataset.attributes, ratio.tolist(), gain.tolist(), splits.threshold.tolist(), splits.n_present.tolist()
        )
    ]
    return tuple(sorted(scores, key=lambda s: -s.gain_ratio))


def apply_criteria(ranked: Iterable[AttributeScore], meta: Mapping[str, frozenset[str]]) -> tuple[str, ...]:
    """Drop attributes failing any exclusion criterion, keeping rank order.

    Criteria: gain ratio of zero (non-positive gains are already clamped to
    zero), or any of the registry flags (multi-valued identifier,
    time-dependent, negative/hex/binary values). `meta` maps every ranked
    attribute to its flags; a missing entry raises MissingMeta.
    """
    selected: list[str] = []
    for score in ranked:
        if score.name not in meta:
            raise MissingMeta(score.name)
        if score.gain_ratio > 0.0 and not meta[score.name]:
            selected.append(score.name)
    return tuple(selected)


def default_meta(names: Iterable[str]) -> dict[str, frozenset[str]]:
    """Unflagged metadata for attributes absent from any registry file."""
    return dict.fromkeys(names, frozenset())


def read_attribute_meta(text: str) -> dict[str, frozenset[str]]:
    """Parse an attribute-meta registry: `name<TAB>flag[,flag...]` per line.

    A line holding only a name declares an unflagged attribute. Blank lines
    and # comments are ignored.
    """
    meta: dict[str, frozenset[str]] = {}
    for number, parts in registry_fields(text):
        if len(parts) > 2:
            raise RegistryFormatError(number, f"expected `name` or `name<TAB>flags`, got {len(parts)} fields")
        name = parts[0]  # never blank: registry_fields strips the line
        if name in meta:
            raise RegistryFormatError(number, f"duplicate attribute {name!r}")
        flags: set[str] = set()
        if len(parts) == 2 and parts[1]:
            for token in parts[1].split(","):
                flag = token.strip()
                if flag not in _KNOWN_FLAGS:
                    raise RegistryFormatError(number, f"unknown flag {flag!r}")
                flags.add(flag)
        meta[name] = frozenset(flags)
    return meta


def rank_report_csv(ranked: Iterable[AttributeScore]) -> str:
    """Machine-readable rank report: rank,attribute,gain_ratio,info_gain,present_fraction."""
    lines = ["rank,attribute,gain_ratio,info_gain,present_fraction"]
    for position, score in enumerate(ranked, start=1):
        lines.append(
            f"{position},{score.name},{score.gain_ratio:.12g},"
            f"{score.info_gain:.12g},{score.present_fraction:.12g}"
        )
    return "\n".join(lines) + "\n"
