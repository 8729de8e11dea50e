"""Per-packet fingerprint features, conversation tracking, labeling and CSV IO.

The nine features extracted from every device-originated IPv4 packet:

    tcp.srcport, tcp.stream, tcp.ack, tcp.window_size,
    udp.srcport, udp.stream, ip.len, ip.ttl, ip.proto

stream indices are 0-based ordinals per transport protocol, assigned to each
bidirectional (ip, port) endpoint pair in order of first appearance in the
capture. tcp.ack defaults to the relative acknowledgment (raw ack minus the
reverse direction's initial sequence number); tcp.window_size is the scaled
window when the sender's SYN announced a window-scale option, with the shift
capped at 14 as RFC 7323 section 2.3 requires.

A packet's nine values are one row of a Dataset's float64 feature matrix,
NaN for Absent (an empty CSV cell): ip.len, ip.ttl and ip.proto are always
present, the tcp.* values exactly when ip.proto is 6 and the udp.* values
exactly when it is 17. Datasets are immutable once built and safe to share
across threads.

extract_capture computes every row of a capture at once from the header
columns of pcap.decode_headers: np.unique numbers the conversations, and
each (conversation, direction) keeps the positions of its first SYN and of
its first SYN with a window-scale option, which a packet uses only when
they come before it.

A Dataset holds one label per row: extract_capture labels each row with its
source MAC, label_by_source_mac relabels it with the MAC's device name, and
Dataset.device_types relabels that with the name's type, the name and the
type both taken from a DeviceRegistry. A name holds no comma, so every label
fits the unquoted CSV class column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    EmptyDataset,
    EmptyRegistry,
    HeaderMismatch,
    NonNumericCell,
    RaggedRow,
    RegistryFormatError,
    SchemaMismatch,
    SingleClassDataset,
)
from .pcap import IPPROTO_TCP, IPPROTO_UDP, TCP_ACK, TCP_SYN, CaptureFile, Headers, decode_headers

CANONICAL_ATTRIBUTES = (
    "tcp.srcport",
    "tcp.stream",
    "tcp.ack",
    "tcp.window_size",
    "udp.srcport",
    "udp.stream",
    "ip.len",
    "ip.ttl",
    "ip.proto",
)
CSV_HEADER = ",".join(CANONICAL_ATTRIBUTES) + ",class"

TYPE_IOT = "IoT"
TYPE_NON_IOT = "NonIoT"


@dataclass
class ExtractionStats:
    """Counters reported by the per-capture extraction pipeline."""

    frames_read: int = 0
    non_ipv4_skipped: int = 0
    decode_errors: int = 0
    raw_ack_fallbacks: int = 0


def extract_capture(
    capture: CaptureFile,
    *,
    raw_ack: bool = False,
    stats: Optional[ExtractionStats] = None,
) -> Dataset:
    """Decode a whole capture and extract the nine features of every IPv4 frame.

    Returns a Dataset with one row per decoded IPv4 frame, in capture order,
    each labeled with its source MAC as colon-hex text. Every decodable IPv4
    frame contributes to conversation state, whatever its source MAC;
    labeling filters afterwards. Frames that fail to decode are counted and
    dropped. The counts are added to `stats` when given. Pure function of
    the capture bytes: two runs yield identical rows in identical order.
    """
    if stats is None:
        stats = ExtractionStats()
    headers = decode_headers(capture)
    stats.frames_read += len(capture.frames)
    stats.non_ipv4_skipped += headers.non_ipv4
    stats.decode_errors += headers.decode_errors
    rows = np.full((len(headers.ip_proto), len(CANONICAL_ATTRIBUTES)), np.nan)
    rows[:, 6], rows[:, 7], rows[:, 8] = headers.ip_len, headers.ip_ttl, headers.ip_proto

    udp = np.flatnonzero(headers.ip_proto == IPPROTO_UDP)
    rows[udp, 4] = headers.src_port[udp]
    rows[udp, 5] = _conversations(headers, udp)[0]

    tcp = np.flatnonzero(headers.ip_proto == IPPROTO_TCP)
    stream, reverse = _conversations(headers, tcp)
    seq, ack, flags = headers.tcp_seq[tcp], headers.tcp_ack[tcp], headers.tcp_flags[tcp]
    window, window_scale = headers.tcp_window[tcp], headers.window_scale[tcp]
    # SYN-borne state lives per (conversation, direction); a packet sees only
    # what packets before it registered
    state = stream * 2 + reverse
    position = np.arange(len(tcp))
    syn = flags & TCP_SYN != 0
    if not raw_ack:
        isn_at = _first(state, syn)[state ^ 1]  # the reverse direction's first SYN
        known = isn_at < position
        ack[known] -= seq[isn_at[known]]  # uint32: modulo 2**32
        has_ack = flags & TCP_ACK != 0
        ack[~has_ack] = 0
        stats.raw_ack_fallbacks += int(np.count_nonzero(has_ack & ~known))
    scale_at = _first(state, window_scale >= 0)[state]
    scaled = ~syn & (scale_at < position)  # a SYN's own window is never scaled
    # RFC 7323 section 2.3: a shift above 14 counts as 14, so windows stay below 2**30
    window = window.astype(np.float64)
    window[scaled] = np.ldexp(window[scaled], np.minimum(window_scale[scale_at[scaled]], 14))
    rows[tcp, 0] = headers.src_port[tcp]
    rows[tcp, 1] = stream
    rows[tcp, 2] = ack
    rows[tcp, 3] = window

    mac_of_row, first = _distinct(headers.src_mac)
    macs = headers.src_mac[first].tolist()
    text = np.array([mac.to_bytes(6, "big").hex(":") for mac in macs], dtype=object)
    return Dataset(rows, text[mac_of_row])


def _conversations(headers: Headers, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stream ordinal and direction of the rows at `index`, all TCP or all UDP.

    A conversation is a direction-insensitive pair of (ip, port) endpoints;
    ordinals count conversations in order of first appearance. The direction
    is True where a row runs from the higher endpoint to the lower.
    """
    src = headers.src_ip[index].astype(np.int64) << 16 | headers.src_port[index]
    dst = headers.dst_ip[index].astype(np.int64) << 16 | headers.dst_port[index]
    low, high = np.minimum(src, dst), np.maximum(src, dst)
    endpoint, seen = _distinct(np.concatenate([low, high]))
    conversation, first = _distinct(endpoint[: len(index)] * len(seen) + endpoint[len(index) :])
    ordinal = np.empty_like(first)
    ordinal[np.argsort(first, kind="stable")] = np.arange(len(first))
    return ordinal[conversation], src > dst


def _first(state: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per state value, the first position where `mask` holds, len(state) if
    none. State values lie below 2 * len(state): each conversation has a row."""
    positions = np.flatnonzero(mask)
    positions = positions[_distinct(state[positions])[1]]
    first = np.full(2 * len(state), len(state))
    first[state[positions]] = positions
    return first


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's index among the distinct keys in ascending order, and the
    position where each distinct key first appears.

    Asking np.unique for first positions also makes it sort stably, so all
    callers share one int64 sort kernel: each further kernel that numpy
    pages in adds its code to the resident set.
    """
    _, first, code = np.unique(keys, return_index=True, return_inverse=True)
    return code, first


# ---------------------------------------------------------------------------
# Device registry and labeling

_MAC_RE = re.compile(r"[0-9a-f]{2}(:[0-9a-f]{2}){5}")
_TYPE_BY_TOKEN = {"iot": TYPE_IOT, "non-iot": TYPE_NON_IOT}


class DeviceRegistry:
    """MAC address -> device name, and device name -> device type; a name has
    one type."""

    def __init__(self) -> None:
        self.entries: dict[str, str] = {}  # MAC -> device name
        self.types: dict[str, str] = {}  # device name -> device type

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, mac: str, device_name: str, device_type: str) -> None:
        mac = mac.lower()
        if not _MAC_RE.fullmatch(mac):
            raise ValueError(f"not a colon-hex MAC address: {mac!r}")
        if not device_name:
            raise ValueError("device name must be non-empty")
        if "," in device_name:  # the dataset CSV does not quote its class column
            raise ValueError(f"device name must not contain a comma: {device_name!r}")
        if device_type not in (TYPE_IOT, TYPE_NON_IOT):
            raise ValueError(f"device type must be {TYPE_IOT} or {TYPE_NON_IOT}: {device_type!r}")
        if mac in self.entries:
            raise ValueError(f"duplicate MAC address {mac}")
        if self.types.get(device_name, device_type) != device_type:
            raise ValueError(f"device name {device_name!r} already has type {self.types[device_name]}")
        self.entries[mac] = device_name
        self.types[device_name] = device_type


def registry_fields(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, stripped tab-separated fields) of each line of a registry
    file, skipping blank lines and lines starting with #. Each field is
    stripped, not the line, so a blank first field stays a field."""
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield number, [part.strip() for part in line.split("\t")]


def read_registry(text: str) -> DeviceRegistry:
    """Parse a device registry: one `mac<TAB>name<TAB>{iot|non-iot}` per line.

    Blank lines and lines starting with # are ignored. A device name may
    appear on several lines (one per MAC), always with the same type, and
    holds no comma.
    """
    registry = DeviceRegistry()
    for number, parts in registry_fields(text):
        if len(parts) != 3:
            raise RegistryFormatError(f"line {number}: expected 3 tab-separated fields, got {len(parts)}")
        mac, name, type_token = parts
        device_type = _TYPE_BY_TOKEN.get(type_token.lower())
        if device_type is None:
            raise RegistryFormatError(f"line {number}: device type must be iot or non-iot: {type_token!r}")
        try:
            registry.add(mac, name, device_type)
        except ValueError as exc:
            raise RegistryFormatError(f"line {number}: {exc}") from exc
    return registry


# ---------------------------------------------------------------------------
# Datasets


_COLUMN_OF = {attribute: j for j, attribute in enumerate(CANONICAL_ATTRIBUTES)}


@dataclass(frozen=True, eq=False)
class Dataset:
    """A feature table held by column, with one class label per row.

    rows is a float64 n x 9 matrix in CANONICAL_ATTRIBUTES order, NaN for
    Absent; every feature is a non-negative int below 2**53, so the floats
    are exact. labels is an object array of each row's label: its source
    MAC after extraction, its device name after label_by_source_mac, its
    device type after device_types, or a CSV row's class (None where the
    cell is empty). attributes is the schema that ranking and training see,
    canonical names in any order; rows always keeps all nine columns.
    class_names is the sorted set of labels present. Datasets are treated
    as immutable; transformations return new objects.
    """

    rows: np.ndarray
    labels: np.ndarray
    attributes: tuple[str, ...] = CANONICAL_ATTRIBUTES
    class_names: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        names = set(self.labels.tolist())
        names.discard(None)
        object.__setattr__(self, "class_names", tuple(sorted(names)))

    def __len__(self) -> int:
        return len(self.rows)

    def class_codes(self) -> np.ndarray:
        """Each row's index into class_names; every row must be labeled."""
        code = {name: c for c, name in enumerate(self.class_names)}
        return np.fromiter(map(code.__getitem__, self.labels), np.intp, len(self))

    def matrix(self, attributes: Optional[Sequence[str]] = None) -> np.ndarray:
        """The feature columns of `attributes` (default: the schema), n x k."""
        attributes = self.attributes if attributes is None else attributes
        try:
            columns = [_COLUMN_OF[a] for a in attributes]
        except KeyError as exc:
            raise SchemaMismatch(f"no feature attribute {exc.args[0]!r}") from None
        return self.rows[:, columns]

    def take(self, index: np.ndarray) -> "Dataset":
        """The rows an index array or boolean mask selects, in its order."""
        return replace(self, rows=self.rows[index], labels=self.labels[index])

    @staticmethod
    def concat(parts: Sequence["Dataset"]) -> "Dataset":
        """The rows of every part in order, with the first part's schema."""
        return replace(
            parts[0],
            rows=np.concatenate([part.rows for part in parts]),
            labels=np.concatenate([part.labels for part in parts]),
        )

    def project(self, attributes: Sequence[str]) -> "Dataset":
        """Dataset restricted to a subset of attributes (rows shared)."""
        unknown = [a for a in attributes if a not in self.attributes]
        if unknown:
            raise ValueError(f"attributes not in schema: {unknown}")
        return replace(self, attributes=tuple(attributes))

    def device_types(self, registry: DeviceRegistry) -> "Dataset":
        """The same rows labeled with each device name's type in `registry`;
        unlabeled rows stay unlabeled. ValueError names the first device
        the registry lacks."""
        type_of = {None: None, **registry.types}
        try:
            types = [type_of[name] for name in self.labels.tolist()]
        except KeyError as exc:
            raise ValueError(f"registry has no device named {exc.args[0]!r}") from None
        return replace(self, labels=np.array(types, dtype=object))


def require_classes(dataset: Dataset, task: str) -> None:
    """Raise unless `dataset` has at least 2 rows, every row labeled and at
    least 2 classes, as ranking and training need; `task` names the work in
    the message."""
    if len(dataset) < 2:
        raise EmptyDataset(f"{task} needs at least 2 rows")
    if None in dataset.labels:
        raise ValueError(f"{task} requires every row to be labeled")
    if len(dataset.class_names) < 2:
        raise SingleClassDataset(f"{task} needs at least 2 classes")


def label_by_source_mac(dataset: Dataset, registry: DeviceRegistry) -> tuple[Dataset, int]:
    """Relabel the rows of an extracted dataset, each labeled with its source
    MAC, with that MAC's device name, dropping the rows of unregistered MACs.

    Returns the labeled dataset and the number of dropped rows. Each
    distinct MAC is looked up once.
    """
    if len(registry) == 0:
        raise EmptyRegistry("device registry has no entries")
    names = np.array([registry.entries.get(mac) for mac in dataset.class_names], dtype=object)
    names = names[dataset.class_codes()]
    kept = replace(dataset, labels=names).take(np.not_equal(names, None))
    return kept, len(dataset) - len(kept)


@dataclass(frozen=True)
class CleanStats:
    empty_removed: int
    duplicates_removed: int


def clean(dataset: Dataset, dedup: bool = False) -> tuple[Dataset, CleanStats]:
    """Drop all-Absent rows; optionally drop exact duplicate rows.

    A duplicate shares all 9 features and its label with an earlier row;
    the first occurrence is kept. Deduplication defaults off because
    legitimate captures contain identical consecutive packets.
    """
    keep = np.flatnonzero(~np.isnan(dataset.rows).all(axis=1))
    empty = len(dataset) - len(keep)
    dupes = 0
    if dedup:
        # NaN never equals NaN, so Absent cells key as -1 (no feature is negative)
        rows = np.where(np.isnan(dataset.rows[keep]), -1.0, dataset.rows[keep])
        row_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
        keys = zip(row_bytes.tolist(), dataset.labels[keep].tolist())
        first: dict[tuple, int] = {}
        for i, key in zip(keep.tolist(), keys):
            first.setdefault(key, i)
        dupes = len(keep) - len(first)
        keep = np.fromiter(first.values(), np.intp, len(first))
    return dataset.take(keep), CleanStats(empty_removed=empty, duplicates_removed=dupes)


# ---------------------------------------------------------------------------
# CSV serialization (canonical 10-column format)

_INTEGER = re.compile("0|[1-9][0-9]*")  # canonical only: int() also takes signs,
# spaces, underscores, leading zeros and non-ASCII digits
MAX_CELL = 2**53 - 1  # float64 holds every integer up to here exactly, not every one above


def write_csv(dataset: Dataset) -> str:
    """Serialize to the canonical CSV: 9 feature columns plus class.

    Absent cells are empty; the class column holds each row's label (empty
    for unlabeled rows). UTF-8 text with LF line endings and no
    quoting; labels therefore must not contain commas or line breaks.
    """
    labels = ["" if label is None else label for label in dataset.labels.tolist()]
    for label in dict.fromkeys(labels):
        if "," in label or "\r" in label or "\n" in label:
            raise ValueError(f"label not representable without quoting: {label!r}")
    columns = []
    for column in np.where(np.isnan(dataset.rows), -1, dataset.rows).astype(np.int64).T.tolist():
        text = {value: str(value) for value in set(column)}  # each distinct value formatted once
        text[-1] = ""  # Absent
        columns.append(map(text.__getitem__, column))
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns, labels))]) + "\n"


def read_csv(text: str) -> Dataset:
    """Parse canonical CSV text back into a Dataset (lossless round-trip).

    Accepts exactly what write_csv writes: the canonical header, LF line
    endings (a carriage return anywhere is an error), a final line feed and
    integer cells up to MAX_CELL, so any text either raises a DevfpError or
    writes back byte for byte. The class column becomes the labels.
    """
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise HeaderMismatch(f"expected header {CSV_HEADER!r}, found {lines[0]!r}")
    if lines.pop() != "":
        raise RaggedRow(f"row {len(lines)}: line does not end with a line feed")
    body = lines[1:]
    n_features = len(CANONICAL_ATTRIBUTES)
    if any(line.count(",") != n_features for line in body):
        _raise_first_fault(body)
    cells = ",".join(body).split(",") if body else []
    features = np.empty((len(body), n_features))
    for j in range(n_features):
        column = cells[j :: n_features + 1]
        value_of = {cell: _cell_value(cell) for cell in set(column)}  # each distinct cell checked once
        if None in value_of.values():
            _raise_first_fault(body)
        features[:, j] = np.fromiter(map(value_of.__getitem__, column), np.float64, len(body))
    labels = cells[n_features :: n_features + 1]
    if "\r" in "".join(labels):
        _raise_first_fault(body)
    labels = np.array(labels, dtype=object)
    labels[labels == ""] = None
    return Dataset(features, labels)


def _cell_value(cell: str) -> Optional[float]:
    """A feature cell as float64: NaN when empty (Absent), None when it is not
    a canonical integer of at most MAX_CELL."""
    if cell == "":
        return math.nan
    if _INTEGER.fullmatch(cell) and len(cell) <= 16 and int(cell) <= MAX_CELL:
        return float(cell)
    return None


def _raise_first_fault(lines: list[str]) -> None:
    """Raise read_csv's error for the first faulty line, at its first faulty cell."""
    n_cols = len(CANONICAL_ATTRIBUTES) + 1
    for index, line in enumerate(lines, start=1):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise RaggedRow(f"row {index}: expected {n_cols} fields, got {len(cells)}")
        for attribute, cell in zip(CANONICAL_ATTRIBUTES, cells):
            if _cell_value(cell) is None:
                raise NonNumericCell(f"row {index}, column {attribute}: not an integer: {cell!r}")
        if "\r" in cells[-1]:
            raise RaggedRow(f"row {index}: carriage return in the class cell; lines end with LF only")
