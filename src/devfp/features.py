"""Per-packet fingerprint features, conversation tracking, labeling and CSV IO.

The nine features extracted from every device-originated IPv4 packet:

    tcp.srcport, tcp.stream, tcp.ack, tcp.window_size,
    udp.srcport, udp.stream, ip.len, ip.ttl, ip.proto

stream indices are 0-based ordinals per transport protocol, assigned to each
bidirectional (ip, port) endpoint pair in order of first appearance in the
capture. tcp.ack defaults to the relative acknowledgment (raw ack minus the
reverse direction's initial sequence number); tcp.window_size is the scaled
window when the sender's SYN announced a window-scale option.

Absent feature values are None in a per-packet FeatureVector, NaN in a
Dataset's feature matrix and empty cells in the CSV. Datasets are immutable
once built and safe to share across threads; the ConversationTable is
single-writer while a capture streams through it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import (
    DecodeError,
    EmptyRegistry,
    HeaderMismatch,
    NonNumericCell,
    RaggedRow,
    RegistryFormatError,
    SchemaMismatch,
)
from .pcap import CaptureFile, PacketRecord, Tcp, Udp, decode_frame

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

CLASS_DEVICE_NAME = "device_name"
CLASS_DEVICE_TYPE = "device_type"

TYPE_IOT = "IoT"
TYPE_NON_IOT = "NonIoT"

_ACK_MOD = 1 << 32


class FeatureVector(NamedTuple):
    """The 9-feature fingerprint of one packet, in CANONICAL_ATTRIBUTES order.

    Fields hold non-negative ints, or None for Absent. ip_len, ip_ttl and
    ip_proto are always present for an extracted packet; the tcp_* fields
    are present exactly when ip_proto == 6 and the udp_* fields exactly when
    ip_proto == 17. extract_features returns the same values as a plain
    tuple; FeatureVector(*values) names them.
    """

    tcp_srcport: Optional[int] = None
    tcp_stream: Optional[int] = None
    tcp_ack: Optional[int] = None
    tcp_window_size: Optional[int] = None
    udp_srcport: Optional[int] = None
    udp_stream: Optional[int] = None
    ip_len: Optional[int] = None
    ip_ttl: Optional[int] = None
    ip_proto: Optional[int] = None


Endpoint = tuple[int, int]  # (ip, port)


@dataclass(slots=True)
class _Conversation:
    stream_index: int
    first_src: Endpoint
    fwd_isn: Optional[int] = None
    rev_isn: Optional[int] = None
    fwd_window_scale: Optional[int] = None
    rev_window_scale: Optional[int] = None


class ConversationTable:
    """Bidirectional flow registry with independent TCP and UDP counters.

    Stream indices per protocol are exactly 0..n-1, in order of first
    appearance. For TCP conversations the table also remembers each
    direction's initial sequence number and window-scale option, both taken
    from that direction's SYN. Single writer per capture.
    """

    def __init__(self) -> None:
        self._conversations: dict[str, dict[tuple, _Conversation]] = {"tcp": {}, "udp": {}}
        self._next_index = {"tcp": 0, "udp": 0}
        self.raw_ack_fallbacks = 0

    def conversation_count(self, proto: str) -> int:
        return self._next_index[proto]

    def _lookup(self, record: PacketRecord) -> tuple[_Conversation, bool]:
        """The record's conversation, allocated on first sight, and whether
        the record runs in its forward (first-seen) direction."""
        transport = record.transport
        proto = "tcp" if isinstance(transport, Tcp) else "udp"
        src: Endpoint = (record.src_ip, transport.src_port)
        dst: Endpoint = (record.dst_ip, transport.dst_port)
        key = (src, dst) if src <= dst else (dst, src)  # direction-insensitive
        table = self._conversations[proto]
        conv = table.get(key)
        if conv is None:
            conv = _Conversation(self._next_index[proto], src)
            self._next_index[proto] += 1
            table[key] = conv
            return conv, True
        return conv, src == conv.first_src


def assign_stream_index(table: ConversationTable, record: PacketRecord) -> int:
    """Stream index for the record's conversation, allocating on first sight.

    The key is direction-insensitive, so request and reply packets of one
    conversation share an index. Requires a TCP or UDP record.
    """
    if not isinstance(record.transport, (Tcp, Udp)):
        raise ValueError("stream indices exist only for TCP/UDP records")
    return table._lookup(record)[0].stream_index


def _observe_tcp(
    table: ConversationTable, record: PacketRecord, tcp: Tcp
) -> tuple[_Conversation, bool]:
    """Register SYN-borne state (ISN, window scale) for the packet's direction;
    return the conversation and the direction as _lookup does."""
    conv, forward = table._lookup(record)
    if tcp.is_syn:
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
    return conv, forward


def relative_ack(record: PacketRecord, table: ConversationTable, *, raw_ack: bool = False) -> int:
    """TCP acknowledgment relative to the reverse direction's ISN.

    Returns 0 when the ACK flag is clear. When no SYN from the reverse
    direction was observed, falls back to the raw acknowledgment number and
    counts the event on the table. raw_ack=True always returns the raw value.
    """
    tcp = record.transport
    if not isinstance(tcp, Tcp):
        raise ValueError("relative_ack requires a TCP record")
    if raw_ack:
        return tcp.ack_raw
    if not tcp.has_ack:
        return 0
    return _relative_ack(table, tcp, *table._lookup(record))


def _relative_ack(table: ConversationTable, tcp: Tcp, conv: _Conversation, forward: bool) -> int:
    if not tcp.has_ack:
        return 0
    reverse_isn = conv.rev_isn if forward else conv.fwd_isn
    if reverse_isn is None:
        table.raw_ack_fallbacks += 1
        return tcp.ack_raw
    return (tcp.ack_raw - reverse_isn) % _ACK_MOD


def _scaled_window(tcp: Tcp, conv: _Conversation, forward: bool) -> int:
    if tcp.is_syn:
        return tcp.window_raw  # scale never applies to the SYN's own window
    scale = conv.fwd_window_scale if forward else conv.rev_window_scale
    if scale is None:
        return tcp.window_raw
    return tcp.window_raw << scale


def extract_features(
    record: PacketRecord, table: ConversationTable, *, raw_ack: bool = False
) -> tuple[Optional[int], ...]:
    """The 9 feature values of one decoded IPv4 packet, in CANONICAL_ATTRIBUTES
    order (the fields of a FeatureVector), None for Absent.

    Mutates the table: allocates a stream index on first sight of a
    conversation and registers SYN-borne ISN / window-scale state before
    computing the transport features. A plain tuple, not a FeatureVector:
    numpy builds a matrix from a list of tuples twice as fast.
    """
    transport = record.transport
    if isinstance(transport, Tcp):
        conv, forward = _observe_tcp(table, record, transport)
        if raw_ack:
            ack = transport.ack_raw
        else:
            ack = _relative_ack(table, transport, conv, forward)
        window = _scaled_window(transport, conv, forward)
        return (
            transport.src_port, conv.stream_index, ack, window, None, None,
            record.ip_len, record.ip_ttl, record.ip_proto,
        )
    if isinstance(transport, Udp):
        stream = table._lookup(record)[0].stream_index
        return (
            None, None, None, None, transport.src_port, stream,
            record.ip_len, record.ip_ttl, record.ip_proto,
        )
    return (None,) * 6 + (record.ip_len, record.ip_ttl, record.ip_proto)


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
    """Run decode + feature extraction over a whole capture, in stream order.

    Returns an unlabeled Dataset with one row per decoded IPv4 frame and its
    source MAC column. Every decodable IPv4 frame contributes to conversation
    state, whatever its source MAC; labeling filters afterwards. Frames that
    fail to decode are counted and dropped. The counts are added to `stats`
    when given. Pure function of the capture bytes: two runs yield identical
    rows in identical order.
    """
    if stats is None:
        stats = ExtractionStats()
    stats.frames_read += len(capture.frames)
    table = ConversationTable()
    vectors: list[tuple] = []
    macs: list[str] = []
    for frame in capture.frames:
        try:
            record = decode_frame(frame, capture.link_type)
        except DecodeError:
            stats.decode_errors += 1
            continue
        if record is None:
            stats.non_ipv4_skipped += 1
            continue
        vectors.append(extract_features(record, table, raw_ack=raw_ack))
        macs.append(record.src_mac)
    stats.raw_ack_fallbacks += table.raw_ack_fallbacks
    # None becomes NaN
    rows = np.array(vectors, dtype=np.float64).reshape(len(vectors), len(CANONICAL_ATTRIBUTES))
    return Dataset(rows, src_mac=np.array(macs, dtype=object))


# ---------------------------------------------------------------------------
# Device registry and labeling

_MAC_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")
_TYPE_BY_TOKEN = {"iot": TYPE_IOT, "non-iot": TYPE_NON_IOT}


@dataclass(frozen=True)
class DeviceEntry:
    device_name: str
    device_type: str  # TYPE_IOT | TYPE_NON_IOT


_UNREGISTERED = DeviceEntry(None, None)  # the labels of a MAC the registry lacks


class DeviceRegistry:
    """MAC address -> (device name, device type) mapping."""

    def __init__(self, entries: Optional[dict[str, DeviceEntry]] = None) -> None:
        self.entries: dict[str, DeviceEntry] = dict(entries or {})

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, mac: str, device_name: str, device_type: str) -> None:
        mac = mac.lower()
        if not _MAC_RE.match(mac):
            raise ValueError(f"not a colon-hex MAC address: {mac!r}")
        if not device_name:
            raise ValueError("device name must be non-empty")
        if device_type not in (TYPE_IOT, TYPE_NON_IOT):
            raise ValueError(f"device type must be {TYPE_IOT} or {TYPE_NON_IOT}: {device_type!r}")
        if mac in self.entries:
            raise ValueError(f"duplicate MAC address {mac}")
        self.entries[mac] = DeviceEntry(device_name, device_type)

    def type_of_name(self, name: str) -> Optional[str]:
        """Device type for a device name; None if the name is unknown."""
        found = None
        for entry in self.entries.values():
            if entry.device_name == name:
                if found is not None and found != entry.device_type:
                    raise ValueError(f"device name {name!r} maps to conflicting types")
                found = entry.device_type
        return found


def read_registry(source: Union[str, TextIO, Iterable[str]]) -> DeviceRegistry:
    """Parse a device registry: one `mac<TAB>name<TAB>{iot|non-iot}` per line.

    Blank lines and lines starting with # are ignored.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]
    registry = DeviceRegistry()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 3:
            raise RegistryFormatError(number, f"expected 3 tab-separated fields, got {len(parts)}")
        mac, name, type_token = (p.strip() for p in parts)
        device_type = _TYPE_BY_TOKEN.get(type_token.lower())
        if device_type is None:
            raise RegistryFormatError(number, f"device type must be iot or non-iot: {type_token!r}")
        try:
            registry.add(mac.lower(), name, device_type)
        except ValueError as exc:
            raise RegistryFormatError(number, str(exc)) from exc
    return registry


def write_registry(registry: DeviceRegistry) -> str:
    token = {TYPE_IOT: "iot", TYPE_NON_IOT: "non-iot"}
    lines = [
        f"{mac}\t{entry.device_name}\t{token[entry.device_type]}"
        for mac, entry in registry.entries.items()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Datasets


_COLUMN_OF = {attribute: j for j, attribute in enumerate(CANONICAL_ATTRIBUTES)}
_ROW_COLUMNS = ("rows", CLASS_DEVICE_NAME, CLASS_DEVICE_TYPE, "src_mac")  # one entry per row


@dataclass(frozen=True, eq=False)
class Dataset:
    """A feature table held by column, with per-row label columns.

    rows is a float64 n x 9 matrix in CANONICAL_ATTRIBUTES order, NaN for
    Absent; every feature is a non-negative int below 2**53, so the floats
    are exact. device_name and device_type are object arrays of labels per
    row (None where unknown; an omitted column is all None); src_mac holds
    each row's source MAC for rows extracted from a capture, else None.
    attributes is the schema that ranking and training see, canonical names
    in any order; rows always keeps all nine columns. class_attribute names
    the label column that is the training target, and class_names is the
    sorted set of its values present. Datasets are treated as immutable;
    transformations return new objects.
    """

    rows: np.ndarray
    device_name: Optional[np.ndarray] = None
    device_type: Optional[np.ndarray] = None
    src_mac: Optional[np.ndarray] = None
    attributes: tuple[str, ...] = CANONICAL_ATTRIBUTES
    class_attribute: str = CLASS_DEVICE_NAME
    class_names: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        unlabeled = np.full(len(self.rows), None, dtype=object)
        for column in (CLASS_DEVICE_NAME, CLASS_DEVICE_TYPE):
            if getattr(self, column) is None:
                object.__setattr__(self, column, unlabeled)
        labels = set(self.targets().tolist())
        labels.discard(None)
        object.__setattr__(self, "class_names", tuple(sorted(labels)))

    def __len__(self) -> int:
        return len(self.rows)

    def targets(self) -> np.ndarray:
        """The class_attribute column: one label per row, None where unlabeled."""
        return getattr(self, self.class_attribute)

    def class_codes(self) -> np.ndarray:
        """Each row's index into class_names; every row must be labeled."""
        code = {name: c for c, name in enumerate(self.class_names)}
        return np.fromiter(map(code.__getitem__, self.targets()), np.intp, len(self))

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
        columns = {name: getattr(self, name) for name in _ROW_COLUMNS}
        return replace(
            self, **{name: None if c is None else c[index] for name, c in columns.items()}
        )

    @staticmethod
    def concat(parts: Sequence["Dataset"]) -> "Dataset":
        """The rows of every part in order, with the first part's schema and
        target; src_mac is kept only when every part has it."""
        columns = {name: [getattr(part, name) for part in parts] for name in _ROW_COLUMNS}
        return replace(parts[0], **{
            name: None if any(c is None for c in cs) else np.concatenate(cs)
            for name, cs in columns.items()
        })

    def project(self, attributes: Sequence[str]) -> "Dataset":
        """Dataset restricted to a subset of attributes (rows shared)."""
        unknown = [a for a in attributes if a not in self.attributes]
        if unknown:
            raise ValueError(f"attributes not in schema: {unknown}")
        return replace(self, attributes=tuple(attributes))

    def with_class_attribute(self, class_attribute: str, registry: Optional[DeviceRegistry] = None) -> "Dataset":
        """Switch the training target, deriving type labels if needed.

        Switching to device_type on rows that only carry device names
        requires a registry to map names to types.
        """
        if class_attribute == self.class_attribute:
            return self
        types = self.device_type
        missing = np.equal(types, None)
        if class_attribute == CLASS_DEVICE_TYPE and missing.any():
            if registry is None:
                raise ValueError("rows lack device types; a registry is required to derive them")
            derive = missing & np.not_equal(self.device_name, None)
            names = self.device_name[derive].tolist()
            type_of = {}
            for name in dict.fromkeys(names):  # each distinct name once, in row order
                type_of[name] = registry.type_of_name(name)
                if type_of[name] is None:
                    raise ValueError(f"registry has no device named {name!r}")
            types = types.copy()
            types[derive] = [type_of[name] for name in names]
        return replace(self, device_type=types, class_attribute=class_attribute)


def label_by_source_mac(dataset: Dataset, registry: DeviceRegistry) -> tuple[Dataset, int]:
    """Keep rows whose source MAC is registered; fill their name and type.

    Returns the labeled dataset and the number of dropped (unregistered)
    rows. Each distinct MAC is looked up once.
    """
    if len(registry) == 0:
        raise EmptyRegistry("device registry has no entries")
    macs, mac_of_row = np.unique(dataset.src_mac, return_inverse=True)
    entries = [registry.entries.get(mac, _UNREGISTERED) for mac in macs.tolist()]
    names = np.array([entry.device_name for entry in entries], dtype=object)[mac_of_row]
    types = np.array([entry.device_type for entry in entries], dtype=object)[mac_of_row]
    kept = replace(dataset, device_name=names, device_type=types).take(np.not_equal(names, None))
    return kept, len(dataset) - len(kept)


@dataclass(frozen=True)
class CleanStats:
    empty_removed: int
    duplicates_removed: int


def clean(dataset: Dataset, dedup: bool = False) -> tuple[Dataset, CleanStats]:
    """Drop all-Absent rows; optionally drop exact duplicate rows.

    A duplicate shares all 9 features and both labels with an earlier row;
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
        names, types = dataset.device_name[keep].tolist(), dataset.device_type[keep].tolist()
        keys = zip(row_bytes.tolist(), names, types)
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

    Absent cells are empty; the class column holds the active target value
    (empty for unlabeled rows). UTF-8 text with LF line endings and no
    quoting; labels therefore must not contain commas or line breaks.
    """
    labels = ["" if label is None else label for label in dataset.targets().tolist()]
    for label in dict.fromkeys(labels):
        if "," in label or "\r" in label or "\n" in label:
            raise ValueError(f"label not representable without quoting: {label!r}")
    columns = []
    for column in np.where(np.isnan(dataset.rows), -1, dataset.rows).astype(np.int64).T.tolist():
        text = {value: str(value) for value in set(column)}  # each distinct value formatted once
        text[-1] = ""  # Absent
        columns.append(map(text.__getitem__, column))
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns, labels))]) + "\n"


def read_csv(text: str, class_attribute: str = CLASS_DEVICE_NAME) -> Dataset:
    """Parse canonical CSV text back into a Dataset (lossless round-trip).

    Accepts exactly what write_csv writes: the canonical header, LF line
    endings (a carriage return anywhere is an error), a final line feed and
    integer cells up to MAX_CELL, so any text either raises a DevfpError or
    writes back byte for byte. The class column fills `class_attribute`.
    """
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise HeaderMismatch(f"expected header {CSV_HEADER!r}, found {lines[0]!r}")
    if lines.pop() != "":
        raise RaggedRow(len(lines), "line does not end with a line feed")
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
    target = np.array(labels, dtype=object)
    target[target == ""] = None
    return Dataset(features, **{class_attribute: target}, class_attribute=class_attribute)


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
            raise RaggedRow(index, f"expected {n_cols} fields, got {len(cells)}")
        for attribute, cell in zip(CANONICAL_ATTRIBUTES, cells):
            if _cell_value(cell) is None:
                raise NonNumericCell(index, attribute, cell)
        if "\r" in cells[-1]:
            raise RaggedRow(index, "carriage return in the class cell; lines end with LF only")
