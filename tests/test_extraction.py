"""Columnar extraction against the per-frame reference (tests/oracles.py).

extract_capture must give the reference's rows (as bytes), source MACs and
all four counters, with and without --raw-ack, on generated captures:
VLAN, ARP, IPv6 and ICMP frames, IHL below 5, headers cut short, Ethernet
padding, IPv4 and TCP options with and without window scale, from few
enough endpoints that conversations repeat, run in both directions and
carry several SYNs. The generated bytes are then mutated, and the last frame
is cut at every length up to 100 bytes, so that gathers run near the end of
the file's bytes.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_extract
from pcapbuild import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    ethernet,
    ipv4,
    pcap_file,
    tcp,
    tcp_option_window_scale,
    tcp_options_mss_ts_nops,
    udp,
    vlan_tag,
)

from devfp.features import ExtractionStats, extract_capture
from devfp.pcap import parse_capture

# two of each, so that generated frames often share a conversation
MACS = ("aa:00:00:00:00:01", "02:00:00:00:00:fe")
IPS = ("10.0.0.1", "192.168.1.7")
PORTS = (80, 5000)
FLAGS = (TCP_SYN, TCP_SYN | TCP_ACK, TCP_ACK, TCP_ACK | TCP_PSH, TCP_FIN | TCP_ACK, TCP_RST, 0)
WORDS = st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 5, 2**32 - 1]), st.integers(0, 2**32 - 1))
TCP_OPTIONS = st.one_of(
    st.sampled_from([b"", tcp_options_mss_ts_nops(), tcp_option_window_scale(3)]),
    st.integers(0, 255).map(tcp_option_window_scale),
    st.integers(0, 255).map(lambda s: tcp_options_mss_ts_nops() + tcp_option_window_scale(s)),
    st.tuples(st.integers(0, 15), st.integers(0, 15)).map(  # two scale options: the last counts
        lambda shifts: b"".join(map(tcp_option_window_scale, shifts))
    ),
    st.binary(max_size=10).map(lambda b: b + bytes(-len(b) % 4)),  # arbitrary option bytes
)


def assert_matches_reference(capture) -> None:
    for raw_ack in (False, True):
        stats = ExtractionStats()
        dataset = extract_capture(capture, raw_ack=raw_ack, stats=stats)
        rows, macs, counters = reference_extract(capture, raw_ack)
        assert dataset.rows.shape == rows.shape
        assert dataset.rows.tobytes() == rows.tobytes()
        assert dataset.labels.tolist() == macs
        assert dataclasses.asdict(stats) == counters


@st.composite
def frames(draw) -> bytes:
    """One Ethernet frame: mostly TCP and UDP between a few endpoints, some
    ICMP, ARP, IPv6 and junk; tagged, padded, malformed or cut at random."""
    kind = draw(st.sampled_from(["tcp"] * 8 + ["udp"] * 3 + ["icmp"] * 2 + ["arp", "ipv6", "junk"]))
    src_mac, dst_mac = draw(st.sampled_from(MACS)), draw(st.sampled_from(MACS))
    if kind == "arp":
        ethertype, payload = ETHERTYPE_ARP, bytes(28)
    elif kind == "ipv6":
        ethertype, payload = ETHERTYPE_IPV6, bytes(40)
    elif kind == "junk":
        ethertype, payload = draw(st.integers(0, 0xFFFF)), draw(st.binary(max_size=60))
    else:
        src_ip, dst_ip = draw(st.sampled_from(IPS)), draw(st.sampled_from(IPS))
        if kind == "tcp":
            proto = 6
            segment = bytearray(tcp(
                draw(st.sampled_from(PORTS)), draw(st.sampled_from(PORTS)),
                seq=draw(WORDS), ack=draw(WORDS), flags=draw(st.sampled_from(FLAGS)),
                window=draw(st.integers(0, 0xFFFF)), options=draw(TCP_OPTIONS),
                payload=draw(st.binary(max_size=8)),
            ))
            if draw(st.integers(0, 7)) == 0:  # any data offset
                segment[12] = draw(st.integers(0, 15)) << 4
        elif kind == "udp":
            proto = 17
            segment = udp(draw(st.sampled_from(PORTS)), draw(st.sampled_from(PORTS)),
                          draw(st.binary(max_size=8)))
        else:
            proto, segment = 1, b"\x08\x00\x00\x00"
        ip_options = draw(st.sampled_from([b"", bytes(4), bytes([1] * 40)]))
        packet = bytearray(ipv4(src_ip, dst_ip, proto, segment, ttl=draw(st.integers(0, 255)),
                                options=ip_options))
        if draw(st.integers(0, 7)) == 0:  # any IHL, below 5 among them, or any version
            packet[0] = draw(st.integers(0x40, 0x4F) | st.integers(0, 255))
        if draw(st.integers(0, 3)) == 0:  # a total length that disagrees with the bytes
            total_len = draw(st.integers(0, len(packet) + 8))
            packet[2:4] = total_len.to_bytes(2, "big")
        ethertype, payload = ETHERTYPE_IPV4, bytes(packet) + draw(st.binary(max_size=12))  # padding
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):  # 802.1Q tags; a second one skips
        payload, ethertype = vlan_tag(draw(st.integers(0, 0xFFFF)), ethertype, payload), 0x8100
    frame = ethernet(dst_mac, src_mac, ethertype, payload)
    if draw(st.integers(0, 7)) == 0:
        frame = frame[: draw(st.integers(0, len(frame)))]
    return frame


@given(
    body=st.lists(frames(), min_size=4, max_size=32),
    last=frames(),
    last_cut=st.integers(0, 100),
    edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=16),
)
@settings(max_examples=300)
def test_extract_capture_matches_reference(body, last, last_cut, edits):
    data = bytearray(pcap_file([*body, last[:last_cut]]))
    for position, byte in edits:  # frame headers and bytes; the global header stays
        data[24 + position % (len(data) - 24)] = byte
    assert_matches_reference(parse_capture(bytes(data)))


# VLAN-tagged, with 40 bytes of IPv4 options: the headers of the TCP SYN,
# whose 40 bytes of options hold a window-scale option, end 18 + 60 + 60
# bytes in. The last frame is IPv4 by ethertype only: its version is 6.
DEEP_FRAMES = [
    ethernet(MACS[1], MACS[0], 0x8100, vlan_tag(7, ETHERTYPE_IPV4, ipv4(
        IPS[0], IPS[1], proto, transport, options=bytes([1] * 40),
    )))
    for proto, transport in [
        (6, tcp(5000, 80, seq=9, flags=TCP_SYN, window=4000,
                options=tcp_options_mss_ts_nops() + tcp_option_window_scale(5) + bytes(16))),
        (17, udp(5000, 53, b"q" * 8)),
        (1, b"\x08\x00\x00\x00"),
    ]
] + [ethernet(MACS[1], MACS[0], ETHERTYPE_IPV4, b"\x60" + bytes(59))]


@pytest.mark.parametrize("cut", range(101))
@pytest.mark.parametrize("deep", DEEP_FRAMES, ids=["tcp", "udp", "icmp", "version-6"])
def test_last_frame_cut_at_every_length(deep, cut):
    capture = parse_capture(pcap_file([deep, deep[:cut]]))
    assert_matches_reference(capture)


def _tcp(src: int, dst: int, **fields) -> bytes:
    """A TCP frame from endpoint (IPS[src], PORTS[src]) to endpoint dst."""
    return ethernet(MACS[dst], MACS[src], ETHERTYPE_IPV4,
                    ipv4(IPS[src], IPS[dst], 6, tcp(PORTS[src], PORTS[dst], **fields)))


def test_syn_state_scenarios():
    frames = [
        _tcp(0, 1, seq=100, flags=TCP_SYN, window=1000),
        _tcp(0, 1, ack=7001, flags=TCP_ACK, window=1000),  # data before the reverse SYN
        _tcp(1, 0, seq=7000, flags=TCP_SYN | TCP_ACK, ack=101, window=60),
        _tcp(0, 1, seq=555, flags=TCP_SYN, window=1000,  # repeated SYN: new ISN, first scale
             options=tcp_option_window_scale(2)),
        _tcp(0, 1, ack=7005, flags=TCP_ACK, window=1000),
        _tcp(1, 0, ack=110, flags=TCP_ACK, window=60),
    ]
    capture = parse_capture(pcap_file(frames))
    assert_matches_reference(capture)
    stats = ExtractionStats()
    rows = extract_capture(capture, stats=stats).rows
    # acks: a raw fallback, then relative to each direction's first ISN
    assert rows[:, 2].tolist() == [0, 7001, 1, 0, 5, 10]
    # windows: the second SYN's scale, not on that SYN itself nor the other direction
    assert rows[:, 3].tolist() == [1000, 1000, 60, 1000, 4000, 60]
    assert stats.raw_ack_fallbacks == 1
