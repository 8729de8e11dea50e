"""Hand-built pcap/Ethernet/IPv4/TCP/UDP byte fixtures.

Frames are assembled field by field from the published wire layouts,
independently of the production decoder, so tests can cross-check decoding
against known bytes. Checksums are written as zero: the decoder never
inspects them. extract_frames runs devfp's extraction on built frames.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple, Optional

from devfp.features import ExtractionStats, extract_capture
from devfp.pcap import parse_capture

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_IPV6 = 0x86DD

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


def mac_bytes(mac: str) -> bytes:
    return bytes(int(part, 16) for part in mac.split(":"))


def ip_bytes(ip: str) -> bytes:
    return bytes(int(part) for part in ip.split("."))


def ethernet(dst_mac: str, src_mac: str, ethertype: int, payload: bytes) -> bytes:
    return mac_bytes(dst_mac) + mac_bytes(src_mac) + struct.pack(">H", ethertype) + payload


def vlan_tag(tci: int, inner_ethertype: int, payload: bytes) -> bytes:
    """The 0x8100 payload: TCI then the real ethertype."""
    return struct.pack(">HH", tci, inner_ethertype) + payload


def ipv4(
    src_ip: str,
    dst_ip: str,
    proto: int,
    payload: bytes,
    *,
    ttl: int = 64,
    total_len: int | None = None,
    options: bytes = b"",
) -> bytes:
    assert len(options) % 4 == 0
    ihl = 5 + len(options) // 4
    if total_len is None:
        total_len = ihl * 4 + len(payload)
    header = struct.pack(
        ">BBHHHBBH4s4s",
        (4 << 4) | ihl,
        0,
        total_len,
        0x1234,  # identification
        0,
        ttl,
        proto,
        0,  # checksum unchecked
        ip_bytes(src_ip),
        ip_bytes(dst_ip),
    )
    return header + options + payload


def tcp(
    src_port: int,
    dst_port: int,
    *,
    seq: int = 0,
    ack: int = 0,
    flags: int = TCP_ACK,
    window: int = 8192,
    options: bytes = b"",
    payload: bytes = b"",
) -> bytes:
    assert len(options) % 4 == 0
    data_offset = 5 + len(options) // 4
    header = struct.pack(
        ">HHIIBBHHH",
        src_port,
        dst_port,
        seq,
        ack,
        data_offset << 4,
        flags,
        window,
        0,  # checksum
        0,  # urgent pointer
    )
    return header + options + payload


def udp(src_port: int, dst_port: int, payload: bytes = b"") -> bytes:
    return struct.pack(">HHHH", src_port, dst_port, 8 + len(payload), 0) + payload


def tcp_options_mss_ts_nops() -> bytes:
    """20 bytes of plausible SYN options without a window-scale kind."""
    mss = bytes([2, 4, 0x05, 0xB4])
    sack_permitted = bytes([4, 2])
    timestamps = bytes([8, 10]) + struct.pack(">II", 100, 0)
    nops = bytes([1, 1, 1, 1])
    opts = mss + sack_permitted + timestamps + nops
    assert len(opts) == 20
    return opts


def tcp_option_window_scale(shift: int) -> bytes:
    """Window-scale option padded to 4 bytes with a NOP."""
    return bytes([3, 3, shift, 1])


def pcap_file(
    frames: list[bytes],
    *,
    big_endian: bool = False,
    nanosecond: bool = False,
    snaplen: int = 65535,
    link_type: int = 1,
    orig_len_override: dict[int, int] | None = None,
) -> bytes:
    endian = ">" if big_endian else "<"
    magic = 0xA1B23C4D if nanosecond else 0xA1B2C3D4
    out = bytearray(struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, snaplen, link_type))
    for i, frame in enumerate(frames):
        orig = len(frame)
        if orig_len_override and i in orig_len_override:
            orig = orig_len_override[i]
        out += struct.pack(endian + "IIII", i, i * 1000, len(frame), orig)
        out += frame
    return bytes(out)


def extract_frames(frames: list[bytes], *, raw_ack: bool = False):
    """extract_capture on a capture of `frames`: the Dataset and the
    ExtractionStats."""
    stats = ExtractionStats()
    return extract_capture(parse_capture(pcap_file(frames)), raw_ack=raw_ack, stats=stats), stats


class FeatureRow(NamedTuple):
    """One row's nine feature values in CANONICAL_ATTRIBUTES order, by field
    name: non-negative ints, or None for Absent."""

    tcp_srcport: Optional[int] = None
    tcp_stream: Optional[int] = None
    tcp_ack: Optional[int] = None
    tcp_window_size: Optional[int] = None
    udp_srcport: Optional[int] = None
    udp_stream: Optional[int] = None
    ip_len: Optional[int] = None
    ip_ttl: Optional[int] = None
    ip_proto: Optional[int] = None


def vectors(dataset) -> list[FeatureRow]:
    """Each row's nine feature values as ints, None for Absent."""
    rows = dataset.rows.tolist()
    return [FeatureRow(*(None if math.isnan(v) else int(v) for v in row)) for row in rows]
