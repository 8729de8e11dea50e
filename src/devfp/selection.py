"""Gain-ratio attribute scoring, ranking, and exclusion criteria.

Numeric attributes are scored on their single best binary split: candidate
thresholds sit at midpoints between consecutive distinct sorted values, the
gain-maximizing threshold wins (ties toward the smaller threshold), and the
split information is the entropy of the two partition sizes. Absent cells
are left out of the split search; the resulting gain is scaled by the
fraction of present cells before dividing by the split information.

One batched scorer, `split_segments`, serves ranking and tree growth. It
takes the cells of many segments at once (a segment is one attribute's
values within one tree node, or a whole column when ranking), each cell
standing for an integer weight of equal rows, and finds the best split of
every segment with one sort of packed int64 keys and a segmented cumulative
sum of class counts. It is exact: class counts at cuts are integers, and one
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
from typing import Iterable, Mapping, NamedTuple

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
    present_fraction: float


def xlog2x_table(n: int) -> np.ndarray:
    """T[x] = x·log2(x) for the counts x = 0..n, T[0] = 0, from `math.log2`.
    The product is numpy's, whose every SIMD kernel rounds it correctly."""
    table = np.arange(n + 1.0)
    table[1:] *= np.fromiter(map(math.log2, range(1, n + 1)), np.float64, n)
    return table


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
    n_present: np.ndarray  # summed weight of the segment's entries


# Bits of the split key: an int64 without its sign bit. The key packs four
# fields, high to low: segment, value code, class and weight, so it sorts as
# the tuple (segment, code, class, weight) does, and each field reads back
# with a shift and a mask.
_KEY_BITS = 63


def split_segments(
    codes: np.ndarray, values: np.ndarray, rows: np.ndarray, labels: np.ndarray, weights: np.ndarray,
    sizes: np.ndarray, cand: np.ndarray, n_classes: int, xlog2x: np.ndarray,
) -> SegmentSplits:
    """Best binary split of every (node, candidate) segment of a frontier.

    Node f of the frontier holds the entries start[f]:start[f + 1], start
    the cumulative sum of `sizes`. Entry i stands for weights[i] (>= 1)
    equal rows of class labels[i], whose value codes are codes[rows[i]]
    (codes as value_codes gives them: values[code], -1 for Absent). Segment
    f·m + j holds node f's entries whose code in column cand[f, j] is
    present; its n_present is their summed weight.

    One sort of the packed keys groups the entries; runs of equal (segment,
    code) merge into class-count rows whose segmented cumsum gives the exact
    class counts left of every cut. Each segment takes its first
    maximum-gain cut, which is the smallest threshold; the cuts between two
    runs of one and the same class, never the best, are not scored. A
    segment with fewer than two classes or one distinct value has no split
    (info_gain 0, split_info 0). `xlog2x` spans every node's summed weight.

    A key is built one candidate column at a time, segments numbered column
    by column (j·F + f for F nodes). When the segment numbers do not fit in
    the bits the other fields leave, the segments are scored in ranges that
    fit, which does not change a bit of the result; a lone segment fits
    unless code, class and weight alone need more than 63 bits.
    """
    n_frontier, m = cand.shape
    n_segments = n_frontier * m
    class_shift = int(weights.max(initial=1)).bit_length()
    code_shift = class_shift + (n_classes - 1).bit_length()
    segment_shift = code_shift + max(len(values) - 1, 0).bit_length()
    if segment_shift > _KEY_BITS:
        raise ValueError(f"a segment's split key needs {segment_shift} bits, more than {_KEY_BITS}")
    start = np.append(0, np.cumsum(sizes))
    owner = np.repeat(np.arange(n_frontier), sizes)
    low = labels.astype(np.int64) << class_shift
    low |= weights
    cells = rows.astype(np.int64) * codes.shape[1]
    shifts = (class_shift, code_shift, segment_shift)
    per_call = 1 << (_KEY_BITS - segment_shift)
    parts = []
    for first in range(0, n_segments, per_call):
        stop = min(first + per_call, n_segments)
        keys = []
        for j in range(first // n_frontier, (stop - 1) // n_frontier + 1):
            f0, f1 = max(first - j * n_frontier, 0), min(stop - j * n_frontier, n_frontier)
            a, b = start[f0], start[f1]
            code = codes.take(cells[a:b] + np.repeat(cand[f0:f1, j], sizes[f0:f1]))
            key = owner[a:b] + (j * n_frontier - first)
            key <<= segment_shift - code_shift
            key += code  # where the code is -1 the key is dropped
            key <<= code_shift
            key |= low[a:b]
            keys.append(key[code >= 0])
        parts.append(_split_keys(np.concatenate(keys), stop - first, shifts, values, n_classes, xlog2x))
    # column by column to node by node
    return SegmentSplits(*(np.concatenate(part).reshape(m, n_frontier).T.ravel() for part in zip(*parts)))


def _split_keys(
    key: np.ndarray, n_segments: int, shifts: tuple[int, int, int],
    values: np.ndarray, n_classes: int, xlog2x: np.ndarray,
) -> SegmentSplits:
    """split_segments' result for the packed keys of n_segments segments,
    their fields starting at the bits `shifts` (class, code, segment)."""
    threshold = np.full(n_segments, math.nan)
    info_gain = np.zeros(n_segments)
    split_info = np.zeros(n_segments)
    present = np.zeros(n_segments, dtype=np.int64)
    if not len(key):
        return SegmentSplits(threshold, info_gain, split_info, present)
    class_shift, code_shift, segment_shift = shifts
    key.sort()
    weight = key & ((1 << class_shift) - 1)
    key >>= class_shift
    label = key & ((1 << (code_shift - class_shift)) - 1)
    key >>= code_shift - class_shift  # (segment, code)
    starts = _run_starts(key)
    run = np.cumsum(starts) - 1
    run_key = key[starts]
    code_bits = segment_shift - code_shift
    run_segment = run_key >> code_bits
    n_runs = len(run_key)
    # summed weights are integers below 2**53, so float64 holds them exactly
    cum = np.bincount(run * n_classes + label, weights=weight, minlength=n_runs * n_classes)
    cum = cum.astype(np.int64).reshape(n_runs, n_classes)
    np.cumsum(cum, axis=0, out=cum)

    # the nonempty segments: their first and last runs and the counts before them
    first = np.flatnonzero(_run_starts(run_segment))
    last = np.append(first[1:], n_runs) - 1
    base = np.zeros((len(first), n_classes), dtype=cum.dtype)
    base[1:] = cum[first[1:] - 1]
    totals = cum[last] - base
    present[run_segment[first]] = totals.sum(axis=1)

    # a cut follows every run but the last of a segment with two or more
    # classes, except a cut between two runs of one and the same class: its
    # gain is below one of its neighbours' in exact arithmetic (Fayyad and
    # Irani, Machine Learning 8, 1992), so it is never the best. A run's
    # classes ascend, so it holds one class when its first and last agree
    cut = np.ones(n_runs, dtype=bool)
    cut[last] = False
    cut &= np.repeat(np.count_nonzero(totals, axis=1) >= 2, last - first + 1)
    run_class = label[starts]
    pure = run_class == label[np.append(np.flatnonzero(starts)[1:], len(label)) - 1]
    cut[:-1] &= ~(pure[:-1] & pure[1:] & (run_class[:-1] == run_class[1:]))
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
    run_value = values[run_key & ((1 << code_bits) - 1)]
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

    One split_segments call scores a one-node frontier of every row, each
    of weight 1, with every attribute a candidate: ranking is the split
    search of tree growth at its root.
    An all-Absent attribute scores 0 with present_fraction 0. Sorting is
    stable, so equal scores keep schema order.
    """
    require_classes(dataset, "ranking")
    codes, values = value_codes(dataset.matrix())
    n, k = codes.shape
    splits = split_segments(
        codes, values, np.arange(n), dataset.class_codes(), np.ones(n, dtype=np.int64), np.array([n]),
        np.arange(k)[None, :], len(dataset.class_names), xlog2x_table(n),
    )
    ratio, gain = gain_ratios(splits, np.full(k, n))
    scores = [
        AttributeScore(name, r, g, present / n)
        for name, r, g, present in zip(dataset.attributes, ratio.tolist(), gain.tolist(), splits.n_present.tolist())
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
            raise MissingMeta(f"no attribute metadata for {score.name!r}")
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
            raise RegistryFormatError(f"line {number}: expected `name` or `name<TAB>flags`, got {len(parts)} fields")
        name = parts[0]
        if not name:
            raise RegistryFormatError(f"line {number}: attribute name must be non-empty")
        if name in meta:
            raise RegistryFormatError(f"line {number}: duplicate attribute {name!r}")
        flags: set[str] = set()
        if len(parts) == 2 and parts[1]:
            for token in parts[1].split(","):
                flag = token.strip()
                if flag not in _KNOWN_FLAGS:
                    raise RegistryFormatError(f"line {number}: unknown flag {flag!r}")
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
