"""Classic pcap parsing and Ethernet II / IPv4 / TCP / UDP header decoding.

Only the classic libpcap file format is handled (24-byte global header,
16-byte per-frame headers, four magic variants incl. the nanosecond ones).
pcapng is rejected with an explicit error. Link type must be Ethernet (1).

Record types: a CaptureFile (frozen dataclass, one per file) holds RawFrames;
decode_frame turns one into a PacketRecord carrying a Tcp, a Udp or no
transport. RawFrame, PacketRecord, Tcp and Udp are NamedTuples: cheap to
build for every frame, and equal when their fields are equal.

Parsed captures are immutable (parsers return fresh objects and nothing here
mutates them), so a CaptureFile can be shared across threads; parsing one
file is sequential because frame order is meaningful downstream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from sys import intern
from typing import BinaryIO, NamedTuple, Optional, Union

from .errors import (
    TruncatedHeader,
    TruncatedIpHeader,
    TruncatedTransportHeader,
    UnknownMagic,
    UnsupportedLinkType,
)

# Classic pcap magics, as read with little-endian byte order.
MAGIC_MICRO = 0xA1B2C3D4
MAGIC_MICRO_SWAPPED = 0xD4C3B2A1
MAGIC_NANO = 0xA1B23C4D
MAGIC_NANO_SWAPPED = 0x4D3CB2A1
_PCAPNG_MAGIC = 0x0A0D0D0A

LINKTYPE_ETHERNET = 1

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100

IPPROTO_TCP = 6
IPPROTO_UDP = 17

# TCP flag bits (low byte of the offset/flags word).
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20

_GLOBAL_HEADER_LEN = 24
_FRAME_HEADER_LEN = 16

# Fixed header fields, network byte order. IPv4: version/IHL, total length,
# TTL, protocol, source and destination address (as ints). TCP: ports,
# sequence and acknowledgment numbers, data offset byte, flags, window.
_IPV4 = struct.Struct(">BxHxxxxBBxxII")
_TCP = struct.Struct(">HHIIBBH")
_UDP = struct.Struct(">HHH")


class RawFrame(NamedTuple):
    """One captured frame exactly as stored in the file."""

    ts_sec: int
    ts_frac: int  # microseconds or nanoseconds, per CaptureFile.ts_resolution
    captured_len: int
    original_len: int
    payload: bytes


@dataclass(frozen=True)
class CaptureFile:
    """A fully parsed classic pcap file.

    byte_order is "native" when the magic reads correctly as little-endian
    and "swapped" for big-endian files. truncated_at holds the index of the
    first frame that was cut off by end-of-file or whose header is corrupt
    (captured_len > original_len); frames before it are kept. It is None
    for a clean file. Frame order is exactly the stored order.
    """

    byte_order: str  # "native" | "swapped"
    ts_resolution: str  # "micro" | "nano"
    link_type: int
    snaplen: int
    frames: tuple[RawFrame, ...]
    truncated_at: Optional[int] = None


class Tcp(NamedTuple):
    src_port: int
    dst_port: int
    seq_raw: int
    ack_raw: int
    flags: int
    window_raw: int
    window_scale_option: Optional[int] = None

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & TCP_SYN)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & TCP_ACK)


class Udp(NamedTuple):
    src_port: int
    dst_port: int
    length: int


class PacketRecord(NamedTuple):
    """Decoded link/network/transport header fields of one IPv4 frame.

    MACs are lowercase colon-hex text. IPs are the 32-bit addresses as
    ints: they only key conversations and are never written out.
    transport is a Tcp for ip_proto 6, a Udp for ip_proto 17 and None for
    every other IPv4 protocol (ICMP etc.).
    """

    src_mac: str
    dst_mac: str
    ip_len: int
    ip_ttl: int
    ip_proto: int
    src_ip: int
    dst_ip: int
    transport: Union[Tcp, Udp, None]


_MAGICS = {
    MAGIC_MICRO: ("native", "micro"),
    MAGIC_MICRO_SWAPPED: ("swapped", "micro"),
    MAGIC_NANO: ("native", "nano"),
    MAGIC_NANO_SWAPPED: ("swapped", "nano"),
}


def parse_capture(source: Union[bytes, bytearray, BinaryIO]) -> CaptureFile:
    """Parse a classic pcap byte stream into a CaptureFile.

    Accepts raw bytes or a binary file object. Reading stops at the first
    frame cut short by end-of-file or with a corrupt header (captured_len >
    original_len); its index is recorded in truncated_at and the frames
    before it are still returned. Two runs over the same bytes produce
    identical results.
    """
    data = source if isinstance(source, (bytes, bytearray)) else source.read()
    data = bytes(data)

    if len(data) < _GLOBAL_HEADER_LEN:
        if len(data) >= 4:
            magic = struct.unpack_from("<I", data, 0)[0]
            if magic not in _MAGICS:
                _raise_unknown_magic(magic)
        raise TruncatedHeader(
            f"pcap global header needs {_GLOBAL_HEADER_LEN} bytes, found {len(data)}"
        )

    magic = struct.unpack_from("<I", data, 0)[0]
    if magic not in _MAGICS:
        _raise_unknown_magic(magic)
    byte_order, ts_resolution = _MAGICS[magic]
    endian = "<" if byte_order == "native" else ">"

    _ver_major, _ver_minor, _thiszone, _sigfigs, snaplen, link_type = struct.unpack_from(
        endian + "HHiIII", data, 4
    )
    if link_type != LINKTYPE_ETHERNET:
        raise UnsupportedLinkType(
            f"link type {link_type} not supported; only Ethernet (1) captures are handled"
        )

    frames: list[RawFrame] = []
    truncated_at: Optional[int] = None
    offset = _GLOBAL_HEADER_LEN
    end = len(data)
    frame_header = struct.Struct(endian + "IIII")
    while offset < end:
        if offset + _FRAME_HEADER_LEN > end:
            truncated_at = len(frames)
            break
        ts_sec, ts_frac, captured_len, original_len = frame_header.unpack_from(data, offset)
        offset += _FRAME_HEADER_LEN
        # a corrupt header (captured_len > original_len) ends the file like truncation
        if captured_len > original_len or offset + captured_len > end:
            truncated_at = len(frames)
            break
        frames.append(
            RawFrame(ts_sec, ts_frac, captured_len, original_len, data[offset : offset + captured_len])
        )
        offset += captured_len

    return CaptureFile(
        byte_order=byte_order,
        ts_resolution=ts_resolution,
        link_type=link_type,
        snaplen=snaplen,
        frames=tuple(frames),
        truncated_at=truncated_at,
    )


def is_capture(head: bytes) -> bool:
    """Whether a file starting with `head` belongs to parse_capture: it opens
    with a classic pcap magic, or with pcapng's, which it rejects by name."""
    return len(head) >= 4 and struct.unpack_from("<I", head)[0] in (*_MAGICS, _PCAPNG_MAGIC)


def _raise_unknown_magic(magic: int) -> None:
    if magic == _PCAPNG_MAGIC:
        raise UnknownMagic(
            "file is pcapng, which is not supported; convert to classic pcap first"
        )
    raise UnknownMagic(f"not a classic pcap file (magic 0x{magic:08x})")


def write_capture(capture: CaptureFile) -> bytes:
    """Serialize frames back to classic pcap bytes in the capture's byte order.

    parse_capture(write_capture(c)) reproduces c's frame sequence exactly.
    """
    endian = "<" if capture.byte_order == "native" else ">"
    magic = MAGIC_MICRO if capture.ts_resolution == "micro" else MAGIC_NANO
    out = bytearray()
    out += struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, capture.snaplen, capture.link_type)
    frame_header = struct.Struct(endian + "IIII")
    for frame in capture.frames:
        out += frame_header.pack(
            frame.ts_sec, frame.ts_frac, frame.captured_len, frame.original_len
        )
        out += frame.payload
    return bytes(out)


def decode_frame(frame: RawFrame, link_type: int) -> Optional[PacketRecord]:
    """Decode one Ethernet frame into a PacketRecord.

    Returns None (skip) for anything that is not IPv4: ARP, IPv6, unknown
    ethertypes, frames still VLAN-tagged after one 802.1Q unwrap. Raises
    TruncatedIpHeader / TruncatedTransportHeader when the captured bytes cut
    a header short; callers drop such frames with a counted warning. Never
    reads beyond the captured payload.
    """
    if link_type != LINKTYPE_ETHERNET:
        raise UnsupportedLinkType(f"cannot decode link type {link_type}")
    buf = frame.payload
    if len(buf) < 14:
        return None  # not even an Ethernet header; nothing identifies this as IPv4
    ethertype = (buf[12] << 8) | buf[13]
    offset = 14
    if ethertype == ETHERTYPE_VLAN:
        # unwrap a single 802.1Q tag: 2 bytes TCI + 2 bytes inner ethertype
        if len(buf) < 18:
            return None
        ethertype = (buf[16] << 8) | buf[17]
        offset = 18
    if ethertype != ETHERTYPE_IPV4:
        return None

    if len(buf) < offset + 20:
        raise TruncatedIpHeader(
            f"IPv4 header needs 20 bytes, {len(buf) - offset} captured after Ethernet"
        )
    ver_ihl, total_len, ttl, proto, src_ip, dst_ip = _IPV4.unpack_from(buf, offset)
    if ver_ihl >> 4 != 4:
        return None  # ethertype says IPv4 but the payload does not; skip
    ihl = ver_ihl & 0x0F
    if ihl < 5:
        raise TruncatedIpHeader(f"IPv4 IHL {ihl} below minimum 5")
    ip_header_len = ihl * 4
    if len(buf) < offset + ip_header_len:
        raise TruncatedIpHeader(
            f"IPv4 header with options needs {ip_header_len} bytes, "
            f"{len(buf) - offset} captured"
        )
    if total_len < 20:
        raise TruncatedIpHeader(f"IPv4 total length {total_len} below header minimum 20")

    # Transport bytes end at the IP total length; Ethernet frames shorter
    # than 60 bytes are padded, and that padding must never be decoded.
    transport_start = offset + ip_header_len
    transport_end = min(len(buf), offset + total_len)

    transport: Union[Tcp, Udp, None] = None
    if proto == IPPROTO_TCP:
        transport = _decode_tcp(buf, transport_start, transport_end)
    elif proto == IPPROTO_UDP:
        transport = _decode_udp(buf, transport_start, transport_end)

    # interned: a capture has few source MACs, and every vector keeps one
    src_mac = intern(buf[6:12].hex(":"))
    return PacketRecord(
        src_mac, buf[0:6].hex(":"), total_len, ttl, proto, src_ip, dst_ip, transport
    )


def _decode_tcp(buf: bytes, start: int, end: int) -> Tcp:
    if end - start < 20:
        raise TruncatedTransportHeader(
            f"TCP header needs 20 bytes, {max(end - start, 0)} available"
        )
    src_port, dst_port, seq_raw, ack_raw, offset_byte, flags, window_raw = _TCP.unpack_from(
        buf, start
    )
    window_scale = None
    options_end = min(start + (offset_byte >> 4) * 4, end)
    pos = start + 20
    # Options parsed best effort: a snaplen may cut them off, which only
    # costs us the window-scale option, never the fixed header fields.
    while pos < options_end:
        kind = buf[pos]
        if kind == 0:  # end of options
            break
        if kind == 1:  # NOP
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


def _decode_udp(buf: bytes, start: int, end: int) -> Udp:
    if end - start < 8:
        raise TruncatedTransportHeader(
            f"UDP header needs 8 bytes, {max(end - start, 0)} available"
        )
    return Udp(*_UDP.unpack_from(buf, start))
