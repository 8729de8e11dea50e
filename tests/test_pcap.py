import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcapbuild import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV6,
    TCP_ACK,
    TCP_SYN,
    ethernet,
    extract_frames,
    ipv4,
    pcap_file,
    tcp,
    tcp_option_window_scale,
    udp,
    vectors,
    vlan_tag,
)

from devfp.errors import TruncatedHeader, UnknownMagic, UnsupportedLinkType
from devfp.features import extract_capture
from devfp.pcap import CaptureFile, parse_capture


def simple_frame(n: int = 60) -> bytes:
    payload = tcp(1234, 80, seq=1, window=512)
    frame = ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, ipv4("10.0.0.1", "10.0.0.2", 6, payload))
    return frame + b"\x00" * max(0, n - len(frame))


def frame_bytes(cap: CaptureFile) -> list[bytes]:
    """Each frame's captured bytes, read through the capture's frame columns."""
    return [cap.data[offset : offset + length] for offset, length in cap.frames.tolist()]


class TestParseCapture:
    def test_little_endian_micro_magic(self):
        frames = [simple_frame(), simple_frame(70)]
        cap = parse_capture(pcap_file(frames))
        assert frame_bytes(cap) == frames
        assert cap.link_type == 1

    def test_big_endian_and_nanosecond_magics(self):
        frames = [simple_frame(), simple_frame(70)]
        for big_endian, nanosecond in [(True, False), (False, True), (True, True)]:
            cap = parse_capture(pcap_file(frames, big_endian=big_endian, nanosecond=nanosecond))
            assert frame_bytes(cap) == frames, (big_endian, nanosecond)
            assert cap.link_type == 1

    def test_header_only_file_has_zero_frames(self):
        cap = parse_capture(pcap_file([]))
        assert cap.frames.shape == (0, 2)
        assert cap.truncated_at is None

    def test_single_frame_lengths(self):
        frame = simple_frame(60)
        assert len(frame) == 60
        cap = parse_capture(pcap_file([frame], snaplen=65535))
        assert cap.frames.tolist() == [[24 + 16, 60]]  # after the global and frame headers
        assert frame_bytes(cap) == [frame]

    def test_unknown_magic(self):
        with pytest.raises(UnknownMagic):
            parse_capture(b"\x00\x01\x02\x03" + b"\x00" * 20)

    def test_pcapng_rejected_by_name(self):
        data = b"\x0a\x0d\x0d\x0a" + b"\x00" * 20
        with pytest.raises(UnknownMagic, match="pcapng"):
            parse_capture(data)

    @pytest.mark.parametrize("size", [4, 23])
    def test_short_file_with_a_foreign_magic_named_as_such(self, size):
        # the magic is checked before the header length, for any file of 4 bytes or more
        with pytest.raises(UnknownMagic, match="magic 0x03020100"):
            parse_capture((b"\x00\x01\x02\x03" + b"\x00" * 20)[:size])
        with pytest.raises(UnknownMagic, match="pcapng"):
            parse_capture((b"\x0a\x0d\x0d\x0a" + b"\x00" * 20)[:size])

    def test_truncated_global_header(self):
        data = pcap_file([])
        with pytest.raises(TruncatedHeader):
            parse_capture(data[:20])

    def test_truncated_frame_keeps_prefix(self):
        frames = [simple_frame(), simple_frame(), simple_frame()]
        data = pcap_file(frames)
        cap = parse_capture(data[:-10])  # cut into the third frame's payload
        assert len(cap.frames) == 2
        assert cap.truncated_at == 2

    def test_truncated_frame_header_keeps_prefix(self):
        data = pcap_file([simple_frame()])
        cap = parse_capture(data + b"\x00" * 7)  # 7 stray bytes: not a frame header
        assert len(cap.frames) == 1
        assert cap.truncated_at == 1

    def test_captured_longer_than_original_is_corrupt(self):
        # a corrupt header ends the file like truncation: the prefix is kept
        frames = [simple_frame(), simple_frame(70), simple_frame()]
        data = pcap_file(frames, orig_len_override={1: len(frames[1]) - 10})
        cap = parse_capture(data)
        assert frame_bytes(cap) == frames[:1]
        assert cap.truncated_at == 1

    def test_non_ethernet_link_type_rejected(self):
        with pytest.raises(UnsupportedLinkType):
            parse_capture(pcap_file([], link_type=101))

    def test_parse_is_deterministic(self):
        data = pcap_file([simple_frame(), simple_frame(100)])
        first, again = parse_capture(data), parse_capture(data)
        for field in dataclasses.fields(CaptureFile):
            assert np.array_equal(getattr(first, field.name), getattr(again, field.name)), field.name


class TestRoundTrip:
    @given(
        frames=st.lists(st.binary(max_size=120), max_size=8),
        big_endian=st.booleans(),
        nanosecond=st.booleans(),
    )
    @settings(max_examples=60)
    def test_write_then_parse_preserves_frames(self, frames, big_endian, nanosecond):
        # pcap_file writes the frames in one of the four magics
        cap = parse_capture(pcap_file(frames, big_endian=big_endian, nanosecond=nanosecond))
        assert frame_bytes(cap) == frames
        assert cap.truncated_at is None


def decode_bytes(*frames: bytes):
    """The feature vectors and source MACs extracted from `frames`, and the
    extraction counters; every frame must be accounted for exactly once."""
    dataset, stats = extract_frames(list(frames))
    assert len(dataset) + stats.non_ipv4_skipped + stats.decode_errors == len(frames)
    return vectors(dataset), dataset.labels.tolist(), stats


def skipped(frame: bytes) -> bool:
    """Whether the frame is skipped as non-IPv4, with no row."""
    rows, _, stats = decode_bytes(frame)
    return rows == [] and stats.non_ipv4_skipped == 1


def dropped(frame: bytes) -> bool:
    """Whether the frame is dropped as a decode error, with no row."""
    rows, _, stats = decode_bytes(frame)
    return rows == [] and stats.decode_errors == 1


class TestDecodeFrame:
    def test_arp_is_skipped(self):
        assert skipped(ethernet("ff:ff:ff:ff:ff:ff", "02:00:00:00:00:01", ETHERTYPE_ARP, b"\x00" * 28))

    def test_ipv6_is_skipped(self):
        assert skipped(ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", ETHERTYPE_IPV6, b"\x00" * 40))

    def test_reference_tcp_fields(self):
        # 20 bytes of TCP options bring ip.len to 60 with no payload
        opts = b"\x01" * 20
        frame = ethernet(
            "02:00:00:00:00:02",
            "aa:bb:cc:dd:ee:ff",
            0x0800,
            ipv4("192.168.1.10", "10.0.0.1", 6, tcp(62997, 80, seq=7, flags=TCP_SYN, window=8688, options=opts), ttl=64),
        )
        # the peer's reply acknowledges relative to this SYN's sequence number
        reply = ethernet(
            "aa:bb:cc:dd:ee:ff", "02:00:00:00:00:02", 0x0800,
            ipv4("10.0.0.1", "192.168.1.10", 6, tcp(80, 62997, ack=8, flags=TCP_ACK)),
        )
        (rec, answer), macs, stats = decode_bytes(frame, reply)
        assert rec.ip_ttl == 64
        assert rec.ip_len == 60
        assert rec.ip_proto == 6
        assert macs[0] == "aa:bb:cc:dd:ee:ff"
        assert rec.tcp_srcport == 62997
        assert rec.tcp_window_size == 8688
        assert answer.tcp_ack == 1  # the frame is a SYN: its ISN was registered
        assert rec.tcp_ack == 0 and stats.raw_ack_fallbacks == 0  # no ACK flag: 0, no fallback

    def test_icmp_has_no_transport(self):
        frame = ethernet(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800,
            ipv4("10.0.0.1", "10.0.0.2", 1, b"\x08\x00\x00\x00"),
        )
        (rec,), _, _ = decode_bytes(frame)
        assert rec.ip_proto == 1
        assert rec[:6] == (None,) * 6

    def test_udp_fields(self):
        frame = ethernet(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800,
            ipv4("10.0.0.1", "10.0.0.2", 17, udp(47581, 1900, b"x" * 37), ttl=64),
        )
        (rec,), _, _ = decode_bytes(frame)
        assert rec.ip_len == 65  # 20 + a 45-byte datagram
        assert rec.udp_srcport == 47581 and rec.udp_stream == 0
        assert rec[:4] == (None,) * 4

    def test_vlan_unwrapped_once(self):
        inner = ipv4("10.0.0.1", "10.0.0.2", 17, udp(1, 2))
        frame = ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x8100, vlan_tag(5, 0x0800, inner))
        (rec,), _, _ = decode_bytes(frame)
        assert rec.ip_proto == 17

    def test_double_vlan_is_skipped(self):
        inner = vlan_tag(6, 0x0800, ipv4("10.0.0.1", "10.0.0.2", 17, udp(1, 2)))
        frame = ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x8100, vlan_tag(5, 0x8100, inner))
        assert skipped(frame)

    def test_window_scale_option_decoded(self):
        syn = ethernet(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800,
            ipv4("10.0.0.1", "10.0.0.2", 6, tcp(1, 2, flags=TCP_SYN, options=tcp_option_window_scale(7))),
        )
        data = ethernet(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800,
            ipv4("10.0.0.1", "10.0.0.2", 6, tcp(1, 2, window=100)),
        )
        (_, rec), _, _ = decode_bytes(syn, data)
        assert rec.tcp_window_size == 100 << 7

    def test_truncated_ip_header_raises(self):
        frame = ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, b"\x45\x00\x00")
        assert dropped(frame)

    def test_truncated_tcp_header_raises(self):
        frame = ethernet(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800,
            ipv4("10.0.0.1", "10.0.0.2", 6, tcp(1, 2))[:30],
        )
        assert dropped(frame)

    def test_truncated_udp_header_raises(self):
        frame = ethernet(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800,
            ipv4("10.0.0.1", "10.0.0.2", 17, udp(1, 2))[:25],
        )
        assert dropped(frame)

    def test_ethernet_padding_not_decoded_as_options(self):
        # a SYN whose data offset claims 8 option bytes that lie past the
        # 40-byte IPv4 total length, in padding resembling a window-scale
        # option; the later segment would be scaled if the padding were decoded
        segment = tcp(9, 10, flags=TCP_SYN, window=77, options=b"\x03\x03\x09\x01" * 2)
        padded = ethernet(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800,
            ipv4("10.0.0.1", "10.0.0.2", 6, segment, total_len=40),
        )
        later = ethernet(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800,
            ipv4("10.0.0.1", "10.0.0.2", 6, tcp(9, 10, window=77)),
        )
        (rec, again), _, _ = decode_bytes(padded, later)
        assert rec.tcp_window_size == 77
        assert again.tcp_window_size == 77

    def test_short_frames_are_skipped(self):
        assert skipped(b"")
        assert skipped(b"\x00" * 13)

    def test_wrong_link_type_rejected(self):
        capture = CaptureFile(105, b"abcd", np.array([[0, 4]]))
        with pytest.raises(UnsupportedLinkType):
            extract_capture(capture)

    @given(data=st.binary(max_size=200))
    @settings(max_examples=300)
    def test_fuzz_decode_total_behavior(self, data):
        # decode either skips, drops, or returns a consistent row
        found, _, _ = decode_bytes(data)
        for rec in found:
            assert (rec.ip_proto == 6) == (rec.tcp_srcport is not None)
            assert (rec.ip_proto == 17) == (rec.udp_srcport is not None)
            assert 0 <= rec.ip_ttl <= 255
            assert rec.ip_len >= 20

    @given(data=st.binary(min_size=40, max_size=120), cut=st.integers(0, 119))
    @settings(max_examples=200)
    def test_fuzz_truncation_never_escapes(self, data, cut):
        # decoding any prefix of any frame stays within defined behavior
        decode_bytes(data[: min(cut, len(data))])
