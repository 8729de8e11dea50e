"""Classic pcap parsing and columnar Ethernet II / IPv4 / TCP / UDP header decoding.

Only the classic libpcap file format is handled (24-byte global header,
16-byte per-frame headers, four magic variants incl. the nanosecond ones).
pcapng is rejected with an explicit error. Link type must be Ethernet (1).

parse_capture reads the bytes of a file into a CaptureFile (frozen
dataclass): the bytes, the link type, and one row of frame columns per
frame, the offset of the frame's bytes in the file and its captured length;
there is no per-frame object. The magic sets only the byte order of the
headers: timestamps, their resolution and the snapshot length are not read.
decode_headers then decodes a whole capture at once: it reads every header
field straight from the file bytes at per-frame offsets with numpy gathers
and returns the fields of the decodable IPv4 frames as Headers columns, with
counts of the frames it skipped.

Parsed captures are immutable (parsers return fresh objects and nothing here
mutates them), so a CaptureFile can be shared across threads; parsing one
file is sequential because frame order is meaningful downstream.
"""

from __future__ import annotations

import array
import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import TruncatedHeader, UnknownMagic, UnsupportedLinkType

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

# TCP flag bits (low byte of the offset/flags word) that extraction reads.
TCP_SYN = 0x02
TCP_ACK = 0x10

_GLOBAL_HEADER_LEN = 24
_FRAME_HEADER_LEN = 16


@dataclass(frozen=True)
class CaptureFile:
    """A fully parsed classic pcap file.

    data is the whole file. frames is an int64 array of shape (n, 2): row i
    holds the offset of frame i's captured bytes in data and their length,
    so frame i is data[offset : offset + length]. truncated_at holds the
    index of the first frame that was cut off by end-of-file or whose header
    is corrupt (captured length above original length); frames before it
    are kept. It is None for a clean file. Frame order is exactly the stored
    order.
    """

    link_type: int
    data: bytes
    frames: np.ndarray
    truncated_at: Optional[int] = None


class Headers(NamedTuple):
    """Header fields of a capture's decodable IPv4 frames, one entry per
    frame in capture order, plus counts of the frames left out.

    src_mac is the 48-bit source MAC as an integer; the IPs are the 32-bit
    addresses. The port columns mean something only on TCP and UDP rows, and
    the tcp_* columns (sequence and acknowledgment numbers, flags, raw
    window) only on TCP rows. window_scale is the shift of a SYN segment's
    window-scale option, -1 where a row is no SYN or carries none.

    src_mac is int64 and window_scale int16; every other column is uint32,
    whatever its width on the wire. One dtype for all fields keeps down the
    number of numpy kernels, whose code is paged in on first use.
    """

    src_mac: np.ndarray
    ip_len: np.ndarray
    ip_ttl: np.ndarray
    ip_proto: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    tcp_seq: np.ndarray
    tcp_ack: np.ndarray
    tcp_flags: np.ndarray
    tcp_window: np.ndarray
    window_scale: np.ndarray
    non_ipv4: int  # not IPv4: ARP, IPv6, no full Ethernet header, two VLAN tags, ...
    decode_errors: int  # IPv4 with a header cut short or malformed


# each magic, as read little-endian, -> the struct byte order of the file's headers
_MAGICS = {MAGIC_MICRO: "<", MAGIC_MICRO_SWAPPED: ">", MAGIC_NANO: "<", MAGIC_NANO_SWAPPED: ">"}


def parse_capture(data: bytes) -> CaptureFile:
    """Parse the bytes of a classic pcap file into a CaptureFile.

    Reading stops at the first frame cut short by end-of-file or with a
    corrupt header (captured_len > original_len); its index is recorded in
    truncated_at and the frames before it are still returned. Two runs over
    the same bytes produce identical results.
    """
    if len(data) >= 4:
        magic = struct.unpack_from("<I", data, 0)[0]
        if magic not in _MAGICS:
            _raise_unknown_magic(magic)
    if len(data) < _GLOBAL_HEADER_LEN:
        raise TruncatedHeader(
            f"pcap global header needs {_GLOBAL_HEADER_LEN} bytes, found {len(data)}"
        )
    endian = _MAGICS[magic]

    (link_type,) = struct.unpack_from(endian + "I", data, 20)  # the global header's last field
    if link_type != LINKTYPE_ETHERNET:
        raise UnsupportedLinkType(
            f"link type {link_type} not supported; only Ethernet (1) captures are handled"
        )

    # offset and captured length of each frame in turn; an int64 array keeps no
    # int object per value, which would fragment the heap for later allocations
    columns = array.array("q")
    truncated_at: Optional[int] = None
    offset = _GLOBAL_HEADER_LEN
    end = len(data)
    lengths = struct.Struct(endian + "8xII")  # captured and original length; timestamps skipped
    while offset < end:
        if offset + _FRAME_HEADER_LEN > end:
            truncated_at = len(columns) // 2
            break
        captured_len, original_len = lengths.unpack_from(data, offset)
        offset += _FRAME_HEADER_LEN
        # a corrupt header (captured_len > original_len) ends the file like truncation
        if captured_len > original_len or offset + captured_len > end:
            truncated_at = len(columns) // 2
            break
        columns.append(offset)
        columns.append(captured_len)
        offset += captured_len

    return CaptureFile(
        link_type=link_type,
        data=data,
        frames=np.frombuffer(columns, np.int64).reshape(-1, 2),
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


def decode_headers(capture: CaptureFile) -> Headers:
    """Decode the Ethernet, IPv4 and TCP/UDP headers of every frame at once.

    A frame is non-IPv4 when it has no full Ethernet header, when its
    ethertype, after unwrapping one 802.1Q tag, is not IPv4, or when its IP
    version is not 4. It is a decode error when its bytes end inside the
    fixed IPv4 header or its options, when its IHL is below 5 or its total
    length below 20, or when a TCP or UDP header does not fit in the bytes
    before the IP total length ends (Ethernet padding past that is never
    decoded). The checks apply in that order; every other frame is a row.
    TCP options are read best effort, so a snapshot length that cuts them
    costs only the window-scale option. No byte past a frame's captured
    length reaches its row.
    """
    if capture.link_type != LINKTYPE_ETHERNET:
        raise UnsupportedLinkType(f"cannot decode link type {capture.link_type}")
    start, length = capture.frames.T
    buf = np.frombuffer(capture.data, np.uint8)

    def field(at: np.ndarray, width: int) -> np.ndarray:
        """The big-endian unsigned integers of `width` bytes at positions `at`.

        A position past the end of data reads its last byte. That value, like
        any other read past a frame's own bytes, is masked out before use.
        """
        value = buf.take(at, mode="clip").astype(np.int64 if width > 4 else np.uint32)
        for k in range(1, width):
            value = value << 8 | buf.take(at + k, mode="clip")
        return value

    ethertype = field(start + 12, 2)
    tagged = ethertype == ETHERTYPE_VLAN
    ip_offset = np.where(tagged, 18, 14)
    ethertype[tagged] = field(start[tagged] + 16, 2)
    ip_at = start + ip_offset
    ipv4 = (length >= ip_offset) & (ethertype == ETHERTYPE_IPV4)
    error = ipv4 & (length < ip_offset + 20)
    ver_ihl = field(ip_at, 1)
    ipv4 &= ~error & (ver_ihl >> 4 == 4)
    ip_header_len = (ver_ihl & 0x0F).astype(np.int64) * 4
    total_len = field(ip_at + 2, 2)
    proto = field(ip_at + 9, 1)
    transport = ip_offset + ip_header_len
    # transport bytes end at the IP total length or the captured bytes
    available = np.minimum(length, ip_offset + total_len) - transport
    malformed = (ip_header_len < 20) | (length < transport) | (total_len < 20)
    malformed |= (proto == IPPROTO_TCP) & (available < 20)
    malformed |= (proto == IPPROTO_UDP) & (available < 8)
    error |= ipv4 & malformed
    rows = np.flatnonzero(ipv4 & ~error)
    decode_errors = int(np.count_nonzero(error))
    # drop the per-frame columns before the per-row gathers: it lowers the peak
    del length, ethertype, tagged, ip_offset, ipv4, error, ver_ihl, ip_header_len, malformed

    start, ip_at = start[rows], ip_at[rows]
    tcp_at = start + transport[rows]
    proto, tcp_flags = proto[rows], field(tcp_at + 13, 1)
    window_scale = np.full(len(rows), -1, np.int16)
    headers = Headers(
        src_mac=field(start + 6, 6),
        ip_len=total_len[rows],
        ip_ttl=field(ip_at + 8, 1),
        ip_proto=proto,
        src_ip=field(ip_at + 12, 4),
        dst_ip=field(ip_at + 16, 4),
        src_port=field(tcp_at, 2),
        dst_port=field(tcp_at + 2, 2),
        tcp_seq=field(tcp_at + 4, 4),
        tcp_ack=field(tcp_at + 8, 4),
        tcp_flags=tcp_flags,
        tcp_window=field(tcp_at + 14, 2),
        window_scale=window_scale,
        non_ipv4=len(capture.frames) - len(rows) - decode_errors,
        decode_errors=decode_errors,
    )
    options_len = np.minimum((field(tcp_at + 12, 1) >> 4).astype(np.int64) * 4, available[rows])

    # only a SYN's window-scale option takes effect, so only SYNs are walked
    walk = (proto == IPPROTO_TCP) & (tcp_flags & TCP_SYN != 0) & (options_len > 20)
    for i in np.flatnonzero(walk).tolist():
        options_at = int(tcp_at[i])
        window_scale[i] = _window_scale(
            capture.data, options_at + 20, options_at + int(options_len[i])
        )
    return headers


def _window_scale(buf: bytes, pos: int, end: int) -> int:
    """The shift of the last well-formed window-scale option among the TCP
    options in buf[pos:end] before they end or break, -1 if there is none."""
    scale = -1
    while pos < end:
        kind = buf[pos]
        if kind == 0:  # end of options
            break
        if kind == 1:  # NOP
            pos += 1
            continue
        if pos + 1 >= end:
            break
        length = buf[pos + 1]
        if length < 2 or pos + length > end:
            break
        if kind == 3 and length == 3:
            scale = buf[pos + 2]
        pos += length
    return scale
