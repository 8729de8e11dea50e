import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcapbuild import (
    ETHERTYPE_IPV4,
    FeatureRow,
    TCP_ACK,
    TCP_SYN,
    ethernet,
    extract_frames,
    ipv4,
    tcp,
    tcp_option_window_scale,
    udp,
    vectors,
)
from tables import same_dataset, vectors_dataset
from devfp.errors import EmptyRegistry, HeaderMismatch, NonNumericCell, RaggedRow, RegistryFormatError
from devfp.features import (
    CANONICAL_ATTRIBUTES,
    CSV_HEADER,
    MAX_CELL,
    DeviceRegistry,
    clean,
    extract_capture,
    label_by_source_mac,
    read_csv,
    read_registry,
    require_classes,
    write_csv,
)
from devfp.pcap import parse_capture

DST_MAC = "02:00:00:00:00:fe"


def tcp_frame(
    src_ip="10.0.0.1",
    dst_ip="10.0.0.2",
    src_port=1000,
    dst_port=80,
    *,
    seq=0,
    ack=0,
    flags=TCP_ACK,
    window=512,
    ws=None,
    src_mac="aa:00:00:00:00:01",
    ttl=64,
    ip_len=None,
):
    """A TCP segment, padded with payload to ip_len when given."""
    options = b"" if ws is None else tcp_option_window_scale(ws)
    segment = tcp(src_port, dst_port, seq=seq, ack=ack, flags=flags, window=window, options=options)
    if ip_len is not None:
        segment += bytes(ip_len - 20 - len(segment))
    return ethernet(DST_MAC, src_mac, ETHERTYPE_IPV4, ipv4(src_ip, dst_ip, 6, segment, ttl=ttl))


def udp_frame(
    src_ip="10.0.0.1",
    dst_ip="10.0.0.2",
    src_port=5000,
    dst_port=53,
    *,
    src_mac="aa:00:00:00:00:01",
    ttl=64,
    ip_len=65,
):
    datagram = udp(src_port, dst_port, bytes(ip_len - 28))
    return ethernet(DST_MAC, src_mac, ETHERTYPE_IPV4, ipv4(src_ip, dst_ip, 17, datagram, ttl=ttl))


def icmp_frame(src_mac="aa:00:00:00:00:01"):
    echo = b"\x08\x00\x00\x00" + bytes(4)
    return ethernet(DST_MAC, src_mac, ETHERTYPE_IPV4, ipv4("10.0.0.1", "10.0.0.2", 1, echo))


def extract(frames, *, raw_ack=False):
    """The feature vectors of `frames`, and the extraction counters."""
    dataset, stats = extract_frames(frames, raw_ack=raw_ack)
    return vectors(dataset), stats


def streams(frames):
    """Each row's stream index: tcp.stream or udp.stream, None for neither."""
    return [
        v.tcp_stream if v.tcp_stream is not None else v.udp_stream for v in extract(frames)[0]
    ]


class TestStreamIndex:
    def test_first_conversation_gets_zero(self):
        assert streams([tcp_frame()]) == [0]

    def test_reply_direction_shares_index(self):
        reply = tcp_frame(src_ip="10.0.0.2", dst_ip="10.0.0.1", src_port=80, dst_port=1000)
        assert streams([tcp_frame(), reply]) == [0, 0]

    def test_first_appearance_order_with_independent_counters(self):
        # conversations A(tcp), B(tcp), C(udp), A(tcp) -> 0, 1, 0, 0
        a = tcp_frame(src_port=1111)
        b = tcp_frame(src_port=2222)
        c = udp_frame(src_port=3333)
        assert streams([a, b, c, a]) == [0, 1, 0, 0]

    def test_non_transport_record_rejected(self):
        # an ICMP row has no stream index and allocates none
        assert streams([icmp_frame(), tcp_frame(), udp_frame()]) == [None, 0, 0]

    def test_index_density(self):
        found, _ = extract([tcp_frame(src_port=port) for port in (10, 20, 30, 10, 40, 20)])
        assert {v.tcp_stream for v in found} == {0, 1, 2, 3}
        assert max(v.tcp_stream for v in found) + 1 == 4  # four TCP conversations
        assert all(v.udp_stream is None for v in found)  # and no UDP one

    @given(flips=st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=32)
    def test_direction_permutation_invariance(self, flips):
        # same conversations in the same first-appearance order, some packets flipped
        base = [
            ("10.0.0.1", 1000, "10.9.9.9", 80),
            ("10.0.0.2", 2000, "10.9.9.9", 80),
            ("10.0.0.1", 1000, "10.9.9.9", 80),
            ("10.0.0.3", 3000, "10.9.9.9", 443),
            ("10.0.0.2", 2000, "10.9.9.9", 80),
            ("10.0.0.1", 1000, "10.9.9.9", 80),
        ]
        def run(flip_mask):
            frames = []
            for (sip, sport, dip, dport), flip in zip(base, flip_mask):
                if flip:
                    sip, sport, dip, dport = dip, dport, sip, sport
                frames.append(tcp_frame(src_ip=sip, dst_ip=dip, src_port=sport, dst_port=dport))
            return streams(frames)
        assert run(flips) == run([False] * 6)


PEER = dict(src_ip="10.0.0.2", dst_ip="10.0.0.1", src_port=80, dst_port=1000)


class TestRelativeAck:
    def test_syn_without_ack_flag_is_zero(self):
        found, _ = extract([tcp_frame(flags=TCP_SYN, seq=1000, ack=999999)])
        assert found[0].tcp_ack == 0

    def test_ack_measured_against_reverse_isn(self):
        peer_syn = tcp_frame(**PEER, flags=TCP_SYN, seq=50_000)  # registers the peer ISN
        reply = tcp_frame(flags=TCP_ACK, ack=50_000 + 4352)
        assert extract([peer_syn, reply])[0][1].tcp_ack == 4352

    def test_ack_wraps_modulo_2_32(self):
        peer_syn = tcp_frame(**PEER, flags=TCP_SYN, seq=2**32 - 5)
        reply = tcp_frame(flags=TCP_ACK, ack=10)
        assert extract([peer_syn, reply])[0][1].tcp_ack == 15

    def test_unknown_isn_falls_back_to_raw_and_counts(self):
        found, stats = extract([tcp_frame(flags=TCP_ACK, ack=1000)])
        assert found[0].tcp_ack == 1000
        assert stats.raw_ack_fallbacks == 1

    def test_raw_ack_mode_always_raw(self):
        peer_syn = tcp_frame(**PEER, flags=TCP_SYN, seq=50_000)
        reply = tcp_frame(flags=TCP_ACK, ack=54_352)
        assert extract([peer_syn, reply], raw_ack=True)[0][1].tcp_ack == 54_352


class TestExtractFeatures:
    def test_tcp_syn_vector(self):
        found, _ = extract([tcp_frame(src_port=62997, flags=TCP_SYN, window=8688, ip_len=60)])
        assert found[0] == (62997, 0, 0, 8688, None, None, 60, 64, 6)

    def test_udp_vector(self):
        found, _ = extract([udp_frame(src_port=47581, ip_len=65)])
        assert found[0] == (None, None, None, None, 47581, 0, 65, 64, 17)

    def test_icmp_vector_has_only_ip_features(self):
        found, _ = extract([icmp_frame()])
        assert found[0] == (None,) * 6 + (28, 64, 1)

    def test_window_scaling_applies_after_syn_with_option(self):
        syn = tcp_frame(flags=TCP_SYN, window=1000, ws=3)
        data = tcp_frame(flags=TCP_ACK, window=1000)
        found, _ = extract([syn, data])
        assert found[0].tcp_window_size == 1000  # SYN itself unscaled
        assert found[1].tcp_window_size == 8000

    @pytest.mark.parametrize("shift", [15, 40, 70])
    def test_window_scale_shift_above_14_counts_as_14(self, shift):
        # RFC 7323 section 2.3; uncapped, 40 wrote a cell read_csv rejects and 70 overflowed int64
        syn = tcp_frame(flags=TCP_SYN, window=1000, ws=shift)
        data = tcp_frame(flags=TCP_ACK, window=65535)
        dataset, _ = extract_frames([syn, data])
        assert vectors(dataset)[1].tcp_window_size == 65535 << 14
        text = write_csv(dataset)
        assert np.array_equal(read_csv(text).rows, dataset.rows, equal_nan=True)
        assert write_csv(read_csv(text)) == text

    def test_window_scale_is_per_direction(self):
        syn = tcp_frame(flags=TCP_SYN, window=1000, ws=3)
        reply = tcp_frame(**PEER, flags=TCP_ACK, window=500)
        # the reply direction never announced a scale: raw window
        assert extract([syn, reply])[0][1].tcp_window_size == 500

    def test_transport_presence_matches_protocol(self):
        found, _ = extract([tcp_frame(), udp_frame(), icmp_frame()])
        for vec, ip_proto in zip(found, (6, 17, 1)):
            tcp_present = all(
                v is not None for v in (vec.tcp_srcport, vec.tcp_stream, vec.tcp_ack, vec.tcp_window_size)
            )
            udp_present = all(v is not None for v in (vec.udp_srcport, vec.udp_stream))
            assert vec.ip_proto == ip_proto
            assert tcp_present == (ip_proto == 6)
            assert udp_present == (ip_proto == 17)
            assert vec.ip_len is not None and vec.ip_ttl is not None and vec.ip_proto is not None


class TestLabeling:
    def registry(self):
        reg = DeviceRegistry()
        reg.add("aa:00:00:00:00:01", "Alpha", "IoT")
        reg.add("aa:00:00:00:00:02", "Beta", "NonIoT")
        return reg

    def test_keeps_registered_drops_unknown(self):
        frames = []
        for i in range(10):
            mac = "aa:00:00:00:00:01" if i < 6 else "02:00:00:00:00:99"
            frames.append(udp_frame(src_port=100 + i, src_mac=mac))
        extracted, _ = extract_frames(frames)
        dataset, dropped = label_by_source_mac(extracted, self.registry())
        assert len(dataset.rows) == 6
        assert dropped == 4
        assert dataset.labels.tolist() == ["Alpha"] * 6
        assert dataset.device_types(self.registry()).labels.tolist() == ["IoT"] * 6

    def test_extraction_labels_each_row_with_its_source_mac(self):
        macs = ["aa:00:00:00:00:02", "02:00:00:00:00:99", "aa:00:00:00:00:02", "aa:00:00:00:00:01"]
        extracted, _ = extract_frames([udp_frame(src_port=100 + i, src_mac=mac) for i, mac in enumerate(macs)])
        assert extracted.labels.tolist() == macs
        assert extracted.class_names == ("02:00:00:00:00:99", "aa:00:00:00:00:01", "aa:00:00:00:00:02")

    def test_each_distinct_mac_looked_up_once(self):
        class CountingDict(dict):
            def get(self, key, default=None):
                self.lookups.append(key)
                return super().get(key, default)

        registry = self.registry()
        registry.entries = CountingDict(registry.entries)
        registry.entries.lookups = []
        macs = ["aa:00:00:00:00:02", "02:00:00:00:00:99", "aa:00:00:00:00:01"] * 3
        extracted, _ = extract_frames([udp_frame(src_port=100 + i, src_mac=mac) for i, mac in enumerate(macs)])
        dataset, dropped = label_by_source_mac(extracted, registry)
        assert sorted(registry.entries.lookups) == sorted(set(macs))
        assert dataset.labels.tolist() == ["Beta", "Alpha"] * 3
        assert dataset.rows[:, CANONICAL_ATTRIBUTES.index("udp.srcport")].tolist() == [100, 102, 103, 105, 106, 108]
        assert dropped == 3

    def test_empty_registry_rejected(self):
        with pytest.raises(EmptyRegistry):
            label_by_source_mac(vectors_dataset([]), DeviceRegistry())

    def test_single_mac_yields_single_class_dataset(self):
        extracted, _ = extract_frames([udp_frame(src_port=i) for i in (1, 2)])
        dataset, _ = label_by_source_mac(extracted, self.registry())
        assert dataset.class_names == ("Alpha",)


class TestClean:
    def test_all_absent_row_removed(self):
        rows = [FeatureRow(ip_len=60, ip_ttl=64, ip_proto=6), FeatureRow()]
        cleaned, stats = clean(vectors_dataset(rows, ["A", "A"]))
        assert len(cleaned.rows) == 1
        assert stats.empty_removed == 1

    def test_duplicates_kept_when_dedup_off(self):
        row = FeatureRow(tcp_srcport=1, tcp_stream=0, tcp_ack=0, tcp_window_size=5,
                            ip_len=60, ip_ttl=64, ip_proto=6)
        cleaned, stats = clean(vectors_dataset([row, row], ["D-LinkCam"] * 2))
        assert len(cleaned.rows) == 2
        assert stats.duplicates_removed == 0

    def test_duplicates_removed_when_dedup_on(self):
        row = FeatureRow(ip_len=60, ip_ttl=64, ip_proto=6)
        other = FeatureRow(ip_len=61, ip_ttl=64, ip_proto=6)
        cleaned, stats = clean(vectors_dataset([row, row, other], ["X"] * 3), dedup=True)
        assert len(cleaned.rows) == 2
        assert stats.duplicates_removed == 1

    def test_same_features_different_label_not_duplicates(self):
        row = FeatureRow(ip_len=60, ip_ttl=64, ip_proto=6)
        cleaned, _ = clean(vectors_dataset([row, row], ["A", "B"]), dedup=True)
        assert len(cleaned.rows) == 2


class TestDataset:
    def test_project_rejects_an_attribute_outside_the_schema(self):
        dataset = vectors_dataset([FeatureRow(ip_len=60)], ["A"], attributes=("ip.len", "ip.ttl"))
        assert dataset.project(("ip.ttl",)).attributes == ("ip.ttl",)
        with pytest.raises(ValueError, match=r"attributes not in schema: \['ip.proto'\]"):
            dataset.project(("ip.len", "ip.proto"))

    def test_require_classes_rejects_an_unlabeled_row(self):
        row = FeatureRow(ip_len=60, ip_ttl=64, ip_proto=6)
        with pytest.raises(ValueError, match="^training requires every row to be labeled$"):
            require_classes(vectors_dataset([row, row, row], ["A", None, "B"]), "training")


class TestCsv:
    def aria_dataset(self):
        row = FeatureRow(
            tcp_srcport=62997, tcp_stream=0, tcp_ack=0, tcp_window_size=8688,
            ip_len=60, ip_ttl=64, ip_proto=6,
        )
        return vectors_dataset([row], ["Aria"])

    def test_header_is_exact(self):
        assert CSV_HEADER == (
            "tcp.srcport,tcp.stream,tcp.ack,tcp.window_size,"
            "udp.srcport,udp.stream,ip.len,ip.ttl,ip.proto,class"
        )

    def test_aria_row_serialization(self):
        text = write_csv(self.aria_dataset())
        assert text == CSV_HEADER + "\n" + "62997,0,0,8688,,,60,64,6,Aria\n"

    def test_empty_dataset_round_trip(self):
        text = write_csv(vectors_dataset([]))
        assert text == CSV_HEADER + "\n"
        assert read_csv(text).rows.shape == (0, len(CANONICAL_ATTRIBUTES))

    def test_header_mismatch(self):
        with pytest.raises(HeaderMismatch):
            read_csv("a,b,c\n1,2,3\n")

    def test_ragged_row_reports_index(self):
        text = CSV_HEADER + "\n1,2,3\n"
        with pytest.raises(RaggedRow, match="^row 1: expected 10 fields, got 3$"):
            read_csv(text)

    def test_non_numeric_cell(self):
        text = CSV_HEADER + "\nx,,,,,,60,64,6,A\n"
        with pytest.raises(NonNumericCell):
            read_csv(text)

    def test_negative_cell_rejected(self):
        text = CSV_HEADER + "\n-1,,,,,,60,64,6,A\n"
        with pytest.raises(NonNumericCell):
            read_csv(text)

    @pytest.mark.parametrize("cell", ["1_000", " 7", "+5", "007", "\u0663"])
    def test_non_canonical_integer_rejected(self, cell):
        # int() accepts each of these, but none would write back the same
        text = CSV_HEADER + f"\n{cell},,,,,,60,64,6,A\n"
        with pytest.raises(NonNumericCell):
            read_csv(text)

    @pytest.mark.parametrize(
        "text",
        [
            CSV_HEADER + "\r\n",
            CSV_HEADER + "\n,,,,,,60,64,6,A\r\n",
            CSV_HEADER + "\n,,,,,,60,64,6,A\rB\n",
            CSV_HEADER,
            CSV_HEADER + "\n,,,,,,60,64,6,A",
        ],
    )
    def test_carriage_return_or_missing_final_line_feed_rejected(self, text):
        # none of these would write back the same bytes
        with pytest.raises((HeaderMismatch, RaggedRow)):
            read_csv(text)

    def test_zero_accepted(self):
        assert read_csv(CSV_HEADER + "\n0,,,,,,60,64,6,A\n").rows[0, 0] == 0

    def test_cells_bounded_at_2_53_minus_1(self):
        # float64 holds every integer up to 2**53 exactly, but not every one above
        assert MAX_CELL == 2**53 - 1
        text = CSV_HEADER + f"\n{2**53 - 1},,,,,,60,64,6,A\n"
        dataset = read_csv(text)
        assert dataset.rows[0, 0] == 2**53 - 1
        assert write_csv(dataset) == text
        for cell in (str(2**53), str(2**53 + 1), "9" * 5000):
            with pytest.raises(NonNumericCell):
                read_csv(CSV_HEADER + f"\n{cell},,,,,,60,64,6,A\n")

    def test_label_with_comma_rejected_on_write(self):
        row = FeatureRow(ip_len=60, ip_ttl=64, ip_proto=6)
        with pytest.raises(ValueError):
            write_csv(vectors_dataset([row], ["a,b"]))


def vector_strategy():
    """(FeatureRow, label) pairs."""
    value = st.one_of(st.none(), st.integers(0, 70000))
    def build(tcp_on, udp_on, v1, v2, v3, v4, v5, v6, base, label):
        return FeatureRow(
            tcp_srcport=v1 if tcp_on else None,
            tcp_stream=v2 if tcp_on else None,
            tcp_ack=v3 if tcp_on else None,
            tcp_window_size=v4 if tcp_on else None,
            udp_srcport=v5 if udp_on else None,
            udp_stream=v6 if udp_on else None,
            ip_len=base[0],
            ip_ttl=base[1],
            ip_proto=base[2],
        ), label
    return st.builds(
        build,
        tcp_on=st.booleans(),
        udp_on=st.booleans(),
        v1=st.integers(0, 65535), v2=st.integers(0, 9999),
        v3=st.integers(0, 2**32 - 1), v4=st.integers(0, 2**20),
        v5=st.integers(0, 65535), v6=st.integers(0, 9999),
        base=st.tuples(st.integers(20, 65535), st.integers(0, 255), st.integers(0, 255)),
        label=st.one_of(st.none(), st.sampled_from(["Aria", "D-LinkCam", "Hue Bridge", "x"])),
    )


class TestCsvRoundTrip:
    @given(rows=st.lists(vector_strategy(), max_size=30))
    @settings(max_examples=100)
    def test_round_trip_identity(self, rows):
        dataset = vectors_dataset([v for v, _ in rows], [label for _, label in rows])
        again = read_csv(write_csv(dataset))
        assert same_dataset(again, dataset)


class TestRegistryFile:
    def test_parse(self):
        text = "aa:bb:cc:dd:ee:ff\tAria\tiot\n02:00:00:00:00:01\tLaptop\tnon-iot\n"
        reg = read_registry(text)
        assert reg.entries == {"aa:bb:cc:dd:ee:ff": "Aria", "02:00:00:00:00:01": "Laptop"}
        assert reg.types == {"Aria": "IoT", "Laptop": "NonIoT"}

    def test_comments_and_blanks_ignored(self):
        reg = read_registry("# devices\n\naa:bb:cc:dd:ee:ff\tAria\tiot\n")
        assert len(reg) == 1

    def test_bad_mac_rejected(self):
        with pytest.raises(RegistryFormatError):
            read_registry("nonsense\tAria\tiot\n")

    def test_mac_with_a_trailing_line_feed_rejected(self):
        # a key holding a line feed could never equal an extracted MAC
        registry = DeviceRegistry()
        for mac in ("00:11:22:33:44:55\n", "00:11:22:33:44:55\n\n", "\n00:11:22:33:44:55"):
            with pytest.raises(ValueError, match="not a colon-hex MAC address"):
                registry.add(mac, "a", "IoT")
        assert len(registry) == 0

    def test_bad_type_rejected(self):
        with pytest.raises(RegistryFormatError):
            read_registry("aa:bb:cc:dd:ee:ff\tAria\tgadget\n")

    def test_line_without_three_fields_rejected(self):
        with pytest.raises(RegistryFormatError, match="line 2: expected 3 tab-separated fields, got 2"):
            read_registry("aa:bb:cc:dd:ee:ff\tAria\tiot\naa:bb:cc:dd:ee:01\tiot\n")

    def test_empty_name_rejected(self):
        with pytest.raises(RegistryFormatError, match="line 1: device name must be non-empty"):
            read_registry("aa:bb:cc:dd:ee:ff\t \tiot\n")

    @pytest.mark.parametrize("mac", ["", " "])
    def test_empty_mac_rejected(self, mac):
        # the blank field is the MAC, not a line the name and type start
        with pytest.raises(RegistryFormatError, match="line 2: not a colon-hex MAC address: ''"):
            read_registry(f"aa:bb:cc:dd:ee:ff\tAria\tiot\n{mac}\tAria\tiot\n")

    def test_add_takes_only_the_two_device_types(self):
        registry = DeviceRegistry()
        with pytest.raises(ValueError, match="device type must be IoT or NonIoT: 'iot'"):
            registry.add("aa:bb:cc:dd:ee:ff", "Aria", "iot")  # a registry file's token, not a type
        assert len(registry) == 0

    def test_duplicate_mac_rejected(self):
        text = "aa:bb:cc:dd:ee:ff\tAria\tiot\naa:bb:cc:dd:ee:ff\tOther\tiot\n"
        with pytest.raises(RegistryFormatError):
            read_registry(text)

    def test_name_with_comma_rejected(self):
        # the dataset CSV cannot hold the name, so the registry line is the error
        text = "aa:bb:cc:dd:ee:ff\tAria\tiot\naa:bb:cc:dd:ee:01\tCam,2\tiot\n"
        with pytest.raises(RegistryFormatError, match="line 2: device name must not contain a comma: 'Cam,2'"):
            read_registry(text)

    def test_name_with_two_types_rejected(self):
        text = "aa:bb:cc:dd:ee:ff\tAria\tiot\n# second MAC\naa:bb:cc:dd:ee:01\tAria\tnon-iot\n"
        with pytest.raises(RegistryFormatError, match="line 3: device name 'Aria' already has type IoT"):
            read_registry(text)

    def test_name_on_two_macs_with_one_type_accepted(self):
        reg = read_registry("aa:bb:cc:dd:ee:ff\tAria\tiot\naa:bb:cc:dd:ee:01\tAria\tiot\n")
        assert len(reg) == 2 and reg.types == {"Aria": "IoT"}

    def test_uppercase_mac_normalized(self):
        reg = read_registry("AA:BB:CC:DD:EE:FF\tAria\tiot\n")
        assert "aa:bb:cc:dd:ee:ff" in reg.entries


class TestExtractionPipeline:
    def test_extraction_is_pure(self, reference_pcap_bytes):
        capture = parse_capture(reference_pcap_bytes)
        first = extract_capture(capture)
        second = extract_capture(capture)
        assert same_dataset(first, second)
        d1, _ = label_by_source_mac(first, read_registry(_reference_registry()))
        d2, _ = label_by_source_mac(second, read_registry(_reference_registry()))
        assert write_csv(d1) == write_csv(d2)

    def test_reference_rows_extracted_exactly(self, reference_pcap_bytes):
        from corpus import REFERENCE_ROWS

        capture = parse_capture(reference_pcap_bytes)
        extracted = extract_capture(capture)
        dataset, _ = label_by_source_mac(extracted, read_registry(_reference_registry()))
        text = write_csv(dataset)
        assert text.splitlines()[1:] == REFERENCE_ROWS


def _reference_registry() -> str:
    from corpus import REFERENCE_REGISTRY

    return REFERENCE_REGISTRY
