"""Per-packet fingerprint features, conversation tracking, labeling and CSV IO.

The nine features extracted from every device-originated IPv4 packet:

    tcp.srcport, tcp.stream, tcp.ack, tcp.window_size,
    udp.srcport, udp.stream, ip.len, ip.ttl, ip.proto

stream indices are 0-based ordinals per transport protocol, assigned to each
bidirectional (ip, port) endpoint pair in order of first appearance in the
capture. tcp.ack defaults to the relative acknowledgment (raw ack minus the
reverse direction's initial sequence number); tcp.window_size is the scaled
window when the sender's SYN announced a window-scale option.

Absent feature values are represented as None and serialized as empty CSV
cells. Datasets are immutable once built and safe to share across threads;
the ConversationTable is single-writer while a capture streams through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, Optional, Sequence, TextIO, Union

from .errors import (
    DecodeError,
    EmptyRegistry,
    HeaderMismatch,
    NonNumericCell,
    RaggedRow,
    RegistryFormatError,
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


@dataclass(slots=True)
class FeatureVector:
    """The 9-feature fingerprint of one packet, plus optional labels.

    Feature fields hold non-negative ints, or None for Absent, declared in
    CANONICAL_ATTRIBUTES order, so the hot paths build vectors positionally.
    ip_len, ip_ttl and ip_proto are always present for an extracted vector;
    the tcp_* fields are present exactly when ip_proto == 6 and the udp_*
    fields exactly when ip_proto == 17. src_mac is transient metadata used
    for labeling and per-device summaries; it is never serialized.
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
    label: Optional[str] = None
    type_label: Optional[str] = None
    src_mac: Optional[str] = None

    _FIELD_BY_ATTRIBUTE = {
        "tcp.srcport": "tcp_srcport",
        "tcp.stream": "tcp_stream",
        "tcp.ack": "tcp_ack",
        "tcp.window_size": "tcp_window_size",
        "udp.srcport": "udp_srcport",
        "udp.stream": "udp_stream",
        "ip.len": "ip_len",
        "ip.ttl": "ip_ttl",
        "ip.proto": "ip_proto",
    }

    def value(self, attribute: str) -> Optional[int]:
        """Feature value by canonical dotted name; None when Absent."""
        return getattr(self, self._FIELD_BY_ATTRIBUTE[attribute])

    def values(self, attributes: Sequence[str]) -> tuple[Optional[int], ...]:
        return tuple(self.value(a) for a in attributes)

    def class_value(self, class_attribute: str) -> Optional[str]:
        return self.label if class_attribute == CLASS_DEVICE_NAME else self.type_label


# The nine canonical feature values of a vector as one tuple, in CSV order.
_canonical_values = attrgetter(*FeatureVector._FIELD_BY_ATTRIBUTE.values())
_ALL_ABSENT = (None,) * len(CANONICAL_ATTRIBUTES)


def _class_getter(class_attribute: str) -> attrgetter:
    return attrgetter("label" if class_attribute == CLASS_DEVICE_NAME else "type_label")


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
) -> FeatureVector:
    """Assemble the 9-feature vector for one decoded IPv4 packet.

    Mutates the table: allocates a stream index on first sight of a
    conversation and registers SYN-borne ISN / window-scale state before
    computing the transport features. Label fields are left unset.
    """
    transport = record.transport
    if isinstance(transport, Tcp):
        conv, forward = _observe_tcp(table, record, transport)
        if raw_ack:
            ack = transport.ack_raw
        else:
            ack = _relative_ack(table, transport, conv, forward)
        window = _scaled_window(transport, conv, forward)
        return FeatureVector(
            transport.src_port, conv.stream_index, ack, window, None, None,
            record.ip_len, record.ip_ttl, record.ip_proto, None, None, record.src_mac,
        )
    if isinstance(transport, Udp):
        stream = table._lookup(record)[0].stream_index
        return FeatureVector(
            None, None, None, None, transport.src_port, stream,
            record.ip_len, record.ip_ttl, record.ip_proto, None, None, record.src_mac,
        )
    return FeatureVector(
        ip_len=record.ip_len, ip_ttl=record.ip_ttl, ip_proto=record.ip_proto,
        src_mac=record.src_mac,
    )


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
) -> list[FeatureVector]:
    """Run decode + feature extraction over a whole capture, in stream order.

    Every decodable IPv4 frame contributes to conversation state, whatever
    its source MAC; labeling filters afterwards. Frames that fail to decode
    are counted and dropped. The counts are added to `stats` when given.
    Pure function of the capture bytes: two runs yield identical vectors in
    identical order.
    """
    if stats is None:
        stats = ExtractionStats()
    stats.frames_read += len(capture.frames)
    table = ConversationTable()
    vectors: list[FeatureVector] = []
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
    stats.raw_ack_fallbacks += table.raw_ack_fallbacks
    return vectors


# ---------------------------------------------------------------------------
# Device registry and labeling

_MAC_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")
_TYPE_BY_TOKEN = {"iot": TYPE_IOT, "non-iot": TYPE_NON_IOT}


@dataclass(frozen=True)
class DeviceEntry:
    device_name: str
    device_type: str  # TYPE_IOT | TYPE_NON_IOT


class DeviceRegistry:
    """MAC address -> (device name, device type) mapping."""

    def __init__(self, entries: Optional[dict[str, DeviceEntry]] = None) -> None:
        self.entries: dict[str, DeviceEntry] = dict(entries or {})

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, mac: Optional[str]) -> Optional[DeviceEntry]:
        if mac is None:
            return None
        return self.entries.get(mac)

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


@dataclass
class Dataset:
    """An ordered attribute schema plus labeled feature vectors.

    class_attribute selects the training target: device_name reads
    row.label, device_type reads row.type_label. class_names is the sorted
    set of target values present (rows may only carry those). Datasets are
    treated as immutable; transformations return new objects.
    """

    attributes: tuple[str, ...]
    rows: tuple[FeatureVector, ...]
    class_attribute: str = CLASS_DEVICE_NAME
    class_names: tuple[str, ...] = ()

    @staticmethod
    def build(
        rows: Iterable[FeatureVector],
        attributes: Sequence[str] = CANONICAL_ATTRIBUTES,
        class_attribute: str = CLASS_DEVICE_NAME,
    ) -> "Dataset":
        rows = tuple(rows)
        labels = set(map(_class_getter(class_attribute), rows))
        labels.discard(None)
        return Dataset(
            attributes=tuple(attributes),
            rows=rows,
            class_attribute=class_attribute,
            class_names=tuple(sorted(labels)),
        )

    def __len__(self) -> int:
        return len(self.rows)

    def targets(self) -> list[Optional[str]]:
        return [row.class_value(self.class_attribute) for row in self.rows]

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
        rows = self.rows
        if class_attribute == CLASS_DEVICE_TYPE:
            missing = [r for r in rows if r.type_label is None]
            if missing:
                if registry is None:
                    raise ValueError(
                        "rows lack device types; a registry is required to derive them"
                    )
                new_rows = []
                for row in rows:
                    if row.type_label is None and row.label is not None:
                        dtype = registry.type_of_name(row.label)
                        if dtype is None:
                            raise ValueError(f"registry has no device named {row.label!r}")
                        row = replace(row, type_label=dtype)
                    new_rows.append(row)
                rows = tuple(new_rows)
        return Dataset.build(rows, self.attributes, class_attribute)


def label_by_source_mac(
    vectors: Iterable[FeatureVector], registry: DeviceRegistry
) -> tuple[Dataset, int]:
    """Keep vectors whose source MAC is registered; attach name and type.

    Returns the labeled dataset and the number of dropped (unregistered)
    vectors.
    """
    if len(registry) == 0:
        raise EmptyRegistry("device registry has no entries")
    kept: list[FeatureVector] = []
    dropped = 0
    for vec in vectors:
        entry = registry.get(vec.src_mac)
        if entry is None:
            dropped += 1
            continue
        kept.append(
            FeatureVector(
                *_canonical_values(vec), entry.device_name, entry.device_type, vec.src_mac
            )
        )
    return Dataset.build(kept), dropped


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
    kept: list[FeatureVector] = []
    seen: set[tuple] = set()
    empty = 0
    dupes = 0
    for row in dataset.rows:
        features = _canonical_values(row)
        if features == _ALL_ABSENT:
            empty += 1
            continue
        if dedup:
            key = features + (row.label, row.type_label)
            if key in seen:
                dupes += 1
                continue
            seen.add(key)
        kept.append(row)
    return (
        Dataset.build(kept, dataset.attributes, dataset.class_attribute),
        CleanStats(empty_removed=empty, duplicates_removed=dupes),
    )


# ---------------------------------------------------------------------------
# CSV serialization (canonical 10-column format)


def write_csv(dataset: Dataset) -> str:
    """Serialize to the canonical CSV: 9 feature columns plus class.

    Absent cells are empty; the class column holds the active target value
    (empty for unlabeled rows). UTF-8 text with LF line endings and no
    quoting; labels therefore must not contain commas or line breaks.
    """
    lines = [CSV_HEADER]
    label_of = _class_getter(dataset.class_attribute)
    for row in dataset.rows:
        cells = ["" if v is None else str(v) for v in _canonical_values(row)]
        label = label_of(row)
        if label is not None and ("," in label or "\r" in label or "\n" in label):
            raise ValueError(f"label not representable without quoting: {label!r}")
        cells.append("" if label is None else label)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_csv(text: str, class_attribute: str = CLASS_DEVICE_NAME) -> Dataset:
    """Parse canonical CSV text back into a Dataset (lossless round-trip).

    Accepts exactly what write_csv writes: the canonical header, LF line
    endings (a carriage return anywhere is an error) and a final line feed,
    so any text either raises a DevfpError or writes back byte for byte.
    """
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise HeaderMismatch(f"expected header {CSV_HEADER!r}, found {lines[0]!r}")
    if lines.pop() != "":
        raise RaggedRow(len(lines), "line does not end with a line feed")
    rows: list[FeatureVector] = []
    n_cols = len(CANONICAL_ATTRIBUTES) + 1
    for index, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise RaggedRow(index, f"expected {n_cols} fields, got {len(cells)}")
        values: list[Optional[int]] = []
        for attribute, cell in zip(CANONICAL_ATTRIBUTES, cells):
            if cell == "":
                values.append(None)
                continue
            # canonical only, ASCII 0|[1-9][0-9]*: int() would also take signs,
            # spaces, underscores, leading zeros and non-ASCII digits
            if not (cell.isascii() and cell.isdigit()) or (cell[0] == "0" and len(cell) > 1):
                raise NonNumericCell(index, attribute, cell)
            values.append(int(cell))
        if "\r" in cells[-1]:
            raise RaggedRow(index, "carriage return in the class cell; lines end with LF only")
        label = cells[-1] or None
        if class_attribute == CLASS_DEVICE_NAME:
            rows.append(FeatureVector(*values, label))
        else:
            rows.append(FeatureVector(*values, None, label))
    return Dataset.build(rows, CANONICAL_ATTRIBUTES, class_attribute)

