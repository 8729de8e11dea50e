"""Independent reference implementations used to check results.

The brute-force functions are deliberately naive: plain enumeration over
thresholds, textbook formulas, no numpy. The reference tree grower below
them is devfp's earlier per-node grower: one split search per node and
attribute, a scalar scan over the cuts, taken from a first-in, first-out
queue, builder dicts, then breadth-first flattening. Its entropies are n·H
from x·log2(x) values, the arithmetic of split_segments' table. The frontier
grower must reproduce its node arrays bit for bit.
The reference prediction after it is devfp's earlier per-tree prediction;
the stacked routing of all trees at once must reproduce its distributions
bit for bit. The reference extraction at the end is devfp's earlier
per-frame decoder and conversation table, one PacketRecord per frame; the
columnar extract_capture must reproduce its rows, source MACs and counters
bit for bit. None of them shares code with the package internals.
"""

from __future__ import annotations

import math
import struct
from collections import Counter, deque
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Optional, Union

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


def _xlog2x(x: int) -> float:
    return x * math.log2(x) if x else 0.0


def reference_weighted_entropy(class_counts) -> float:
    """n·H of one row of integer class counts with total n, one scalar at a
    time: T(n) - T(c_0) - T(c_1) - ..., T(x) = x·log2(x)."""
    result = _xlog2x(sum(class_counts))
    for count in class_counts:
        result -= _xlog2x(count)
    return result


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
    class_totals = [0] * n_classes
    for label in y.tolist():
        class_totals[label] += 1
    if sum(1 for c in class_totals if c) < 2:
        return None, 0.0, 0.0
    parent = reference_weighted_entropy(class_totals)
    left = [0] * n_classes
    best_gain, best_cut = -math.inf, -1
    for i in range(n - 1):
        left[y[i]] += 1
        if v[i] == v[i + 1]:
            continue
        right = [t - c for t, c in zip(class_totals, left)]
        gain = (parent - reference_weighted_entropy(left) - reference_weighted_entropy(right)) / n
        if gain > best_gain:
            best_gain, best_cut = gain, i
    threshold = (v[best_cut] + v[best_cut + 1]) / 2.0
    split_info = reference_weighted_entropy([best_cut + 1, n - best_cut - 1]) / n
    return float(threshold), max(best_gain, 0.0), split_info


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
    queue = deque([(root, np.arange(len(y), dtype=np.intp))])
    while queue:
        node, idx = queue.popleft()
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
        queue.append((node["left"], idx[go_left]))
        queue.append((node["right"], idx[go_right]))
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


def _breadth_first(root: dict) -> list:
    """The nodes of a tree in breadth-first order, left child before right."""
    order = [root]
    for node in order:  # the list grows as it is walked: a queue
        if not node["leaf"]:
            order += [node["left"], node["right"]]
    return order


def _reference_prune(root: dict, confidence: float) -> None:
    for node in reversed(_breadth_first(root)):  # children before their parent
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
    order = _breadth_first(root)
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
        "root": 0,
    }


def reference_tree(X, y, n_classes, hp, rng=None) -> dict:
    """Node arrays of a C4.5 tree (rng None, pruned per hp) or of a random
    tree drawing sorted candidate sets from rng at each searched node."""
    k = X.shape[1]
    attributes = list(range(k))
    if rng is None:
        pick = lambda: attributes  # noqa: E731
    else:
        m = min(int(math.floor(math.log2(k))) + 1, k)  # Weka's default candidate count
        pick = lambda: attributes if m >= k else sorted(rng.sample(attributes, m))  # noqa: E731
    root = _reference_grow(X, y, n_classes, hp.c45_min_leaf, pick)
    if rng is None and hp.c45_prune:
        _reference_prune(root, hp.c45_confidence)
    return _flatten(root)


def reference_bootstrap(rng, n: int) -> np.ndarray:
    """A sample of n rows of n: one randrange(n) call per drawn row."""
    return np.asarray([rng.randrange(n) for _ in range(n)], dtype=np.intp)


def reference_columns(trees: list) -> dict:
    """The TreeModel columns of node arrays (as reference_tree returns them),
    one tree after another: sizes, feature per node, threshold and
    absent_left per split, and the leaves' counts."""
    feature = np.concatenate([tree["feature"] for tree in trees])
    split = feature >= 0
    return {
        "sizes": np.array([len(tree["feature"]) for tree in trees], dtype=np.intp),
        "feature": feature,
        "threshold": np.concatenate([tree["threshold"] for tree in trees])[split],
        "absent_left": np.concatenate([tree["absent_left"] for tree in trees])[split],
        "counts": np.concatenate([tree["counts"] for tree in trees]),
    }


def tree_nodes(model) -> list:
    """Each tree of a tree model as node arrays in the layout reference_tree
    returns: feature, threshold and absent_left per node (0.0 and False at a
    leaf), left and right per node (-1 at a leaf), counts, and root, plus the
    tree's proba rows and leaf (node -> row of counts and proba). The columns
    are split by `sizes`, and each tree's nodes are in breadth-first order,
    so its r-th split has its children at nodes 2r + 1 and 2r + 2."""
    trees = []
    node = split_at = leaf_at = 0
    for size in model.sizes.tolist():
        feature = model.feature[node:node + size]
        split = feature >= 0
        n_splits = int(np.count_nonzero(split))
        assert size == 2 * n_splits + 1, "not one tree"
        threshold = np.zeros(size)
        threshold[split] = model.threshold[split_at:split_at + n_splits]
        absent_left = np.zeros(size, dtype=bool)
        absent_left[split] = model.absent_left[split_at:split_at + n_splits]
        left = np.full(size, -1, dtype=np.intp)
        right = np.full(size, -1, dtype=np.intp)
        left[split] = 2 * np.arange(n_splits) + 1
        right[split] = 2 * np.arange(n_splits) + 2
        assert np.all(left[split] > np.flatnonzero(split)), "a child before its parent"
        leaves = slice(leaf_at, leaf_at + size - n_splits)
        trees.append({
            "feature": feature, "threshold": threshold, "left": left, "right": right,
            "absent_left": absent_left, "counts": model.counts[leaves], "root": 0,
            "proba": model.proba[leaves], "leaf": np.cumsum(~split) - 1,
        })
        node, split_at, leaf_at = node + size, split_at + n_splits, leaves.stop
    return trees


def reference_distribution(model, X: np.ndarray) -> np.ndarray:
    """Class distributions of rows X by devfp's earlier per-tree prediction:
    each tree of `tree_nodes` routes all rows one level per step, testing
    Absent with isnan at every step, and the trees' matrices (a vote's
    members' matrices) are added in order, then divided by their count.
    Naive Bayes predicts by its own path."""
    if hasattr(model, "members"):
        parts = [reference_distribution(member, X) for member in model.members]
    elif hasattr(model, "feature"):
        parts = [_reference_route(tree, X) for tree in tree_nodes(model)]
    else:
        return model.distribution_batch(X)
    total = np.zeros((X.shape[0], len(model.class_names)), dtype=np.float64)
    for part in parts:
        total += part
    total /= len(parts)
    return total


def _reference_route(tree: dict, X: np.ndarray) -> np.ndarray:
    node = np.full(X.shape[0], tree["root"], dtype=np.intp)
    rows = np.flatnonzero(tree["feature"][node] >= 0)
    while rows.size:
        at = node[rows]
        value = X[rows, tree["feature"][at]]
        go_left = np.where(np.isnan(value), tree["absent_left"][at], value <= tree["threshold"][at])
        at = np.where(go_left, tree["left"][at], tree["right"][at])
        node[rows] = at
        rows = rows[tree["feature"][at] >= 0]
    return tree["proba"][tree["leaf"][node]]


# ---------------------------------------------------------------------------
# Reference extraction: decode one frame at a time, then track conversations
# in a dict keyed by the direction-insensitive endpoint pair.

_IPV4 = struct.Struct(">BxHxxxxBBxxII")
_TCP = struct.Struct(">HHIIBBH")
_UDP = struct.Struct(">HHH")
_SYN, _ACK = 0x02, 0x10


class Undecodable(Exception):
    """The captured bytes cut a header short, or the IPv4 header is malformed."""


class Tcp(NamedTuple):
    src_port: int
    dst_port: int
    seq_raw: int
    ack_raw: int
    flags: int
    window_raw: int
    window_scale_option: Optional[int] = None


class Udp(NamedTuple):
    src_port: int
    dst_port: int
    length: int


class PacketRecord(NamedTuple):
    src_mac: str
    dst_mac: str
    ip_len: int
    ip_ttl: int
    ip_proto: int
    src_ip: int
    dst_ip: int
    transport: Union[Tcp, Udp, None]


def reference_decode(buf: bytes) -> Optional[PacketRecord]:
    """One Ethernet frame as a PacketRecord; None for anything not IPv4;
    Undecodable when a header is cut short or malformed."""
    if len(buf) < 14:
        return None
    ethertype = (buf[12] << 8) | buf[13]
    offset = 14
    if ethertype == 0x8100:
        if len(buf) < 18:
            return None
        ethertype = (buf[16] << 8) | buf[17]
        offset = 18
    if ethertype != 0x0800:
        return None
    if len(buf) < offset + 20:
        raise Undecodable("IPv4 header cut short")
    ver_ihl, total_len, ttl, proto, src_ip, dst_ip = _IPV4.unpack_from(buf, offset)
    if ver_ihl >> 4 != 4:
        return None
    ihl = ver_ihl & 0x0F
    if ihl < 5 or len(buf) < offset + ihl * 4 or total_len < 20:
        raise Undecodable("malformed IPv4 header")
    transport_start = offset + ihl * 4
    transport_end = min(len(buf), offset + total_len)
    transport: Union[Tcp, Udp, None] = None
    if proto == 6:
        transport = _reference_tcp(buf, transport_start, transport_end)
    elif proto == 17:
        if transport_end - transport_start < 8:
            raise Undecodable("UDP header cut short")
        transport = Udp(*_UDP.unpack_from(buf, transport_start))
    return PacketRecord(
        buf[6:12].hex(":"), buf[0:6].hex(":"), total_len, ttl, proto, src_ip, dst_ip, transport
    )


def _reference_tcp(buf: bytes, start: int, end: int) -> Tcp:
    if end - start < 20:
        raise Undecodable("TCP header cut short")
    src_port, dst_port, seq_raw, ack_raw, offset_byte, flags, window_raw = _TCP.unpack_from(
        buf, start
    )
    window_scale = None
    options_end = min(start + (offset_byte >> 4) * 4, end)
    pos = start + 20
    while pos < options_end:
        kind = buf[pos]
        if kind == 0:
            break
        if kind == 1:
            pos += 1
            continue
        if pos + 1 >= options_end:
            break
        length = buf[pos + 1]
        if length < 2 or pos + length > options_end:
            break
        if kind == 3 and length == 3:
            window_scale = buf[pos + 2]
        pos += length
    return Tcp(src_port, dst_port, seq_raw, ack_raw, flags, window_raw, window_scale)


@dataclass
class _Conversation:
    stream_index: int
    first_src: tuple
    fwd_isn: Optional[int] = None
    rev_isn: Optional[int] = None
    fwd_window_scale: Optional[int] = None
    rev_window_scale: Optional[int] = None


class ReferenceTable:
    """Conversations per transport protocol, numbered by first appearance."""

    def __init__(self) -> None:
        self.conversations: dict[str, dict[tuple, _Conversation]] = {"tcp": {}, "udp": {}}
        self.raw_ack_fallbacks = 0

    def lookup(self, record: PacketRecord) -> tuple[_Conversation, bool]:
        """The record's conversation, allocated on first sight, and whether
        the record runs in its forward (first-seen) direction."""
        transport = record.transport
        table = self.conversations["tcp" if isinstance(transport, Tcp) else "udp"]
        src = (record.src_ip, transport.src_port)
        dst = (record.dst_ip, transport.dst_port)
        key = (src, dst) if src <= dst else (dst, src)
        conv = table.get(key)
        if conv is None:
            conv = table[key] = _Conversation(len(table), src)
            return conv, True
        return conv, src == conv.first_src


def reference_features(record: PacketRecord, table: ReferenceTable, raw_ack: bool) -> tuple:
    """The nine feature values of one record, None for Absent; registers the
    record's SYN-borne ISN and window scale before computing them."""
    tcp = record.transport
    ip = (record.ip_len, record.ip_ttl, record.ip_proto)
    if isinstance(tcp, Udp):
        return (None,) * 4 + (tcp.src_port, table.lookup(record)[0].stream_index) + ip
    if not isinstance(tcp, Tcp):
        return (None,) * 6 + ip
    conv, forward = table.lookup(record)
    syn = bool(tcp.flags & _SYN)
    if syn:
        if forward:
            if conv.fwd_isn is None:
                conv.fwd_isn = tcp.seq_raw
            if conv.fwd_window_scale is None and tcp.window_scale_option is not None:
                conv.fwd_window_scale = tcp.window_scale_option
        else:
            if conv.rev_isn is None:
                conv.rev_isn = tcp.seq_raw
            if conv.rev_window_scale is None and tcp.window_scale_option is not None:
                conv.rev_window_scale = tcp.window_scale_option
    if raw_ack:
        ack = tcp.ack_raw
    elif not tcp.flags & _ACK:
        ack = 0
    else:
        reverse_isn = conv.rev_isn if forward else conv.fwd_isn
        if reverse_isn is None:
            table.raw_ack_fallbacks += 1
            ack = tcp.ack_raw
        else:
            ack = (tcp.ack_raw - reverse_isn) % (1 << 32)
    scale = conv.fwd_window_scale if forward else conv.rev_window_scale
    # RFC 7323 section 2.3: a shift above 14 is taken as 14
    window = tcp.window_raw if syn or scale is None else tcp.window_raw << min(scale, 14)
    return (tcp.src_port, conv.stream_index, ack, window, None, None) + ip


def reference_extract(capture, raw_ack: bool = False):
    """(rows, src_mac, counters) of a CaptureFile, one frame at a time: rows
    is the float64 n x 9 NaN matrix, src_mac a list of MAC texts and
    counters the four ExtractionStats fields."""
    table = ReferenceTable()
    vectors, macs = [], []
    counters = dict(frames_read=len(capture.frames), non_ipv4_skipped=0, decode_errors=0)
    for offset, length in capture.frames.tolist():
        try:
            record = reference_decode(capture.data[offset : offset + length])
        except Undecodable:
            counters["decode_errors"] += 1
            continue
        if record is None:
            counters["non_ipv4_skipped"] += 1
            continue
        vectors.append(reference_features(record, table, raw_ack))
        macs.append(record.src_mac)
    counters["raw_ack_fallbacks"] = table.raw_ack_fallbacks
    rows = np.array(vectors, dtype=np.float64).reshape(len(vectors), 9)
    return rows, macs, counters
