"""Robustness properties: no byte string and no CSV text yields anything but
a result or a DevfpError.

Captures are byte mutations (overwrites plus a cut) of a small training
capture, so most examples get past the global header and reach frame
headers, Ethernet, IPv4 and TCP/UDP decoding. CSV texts are arbitrary
strings and near-canonical ones built from the canonical header and cells
that are valid, non-canonical or broken.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import TRAINING_REGISTRY, build_training_capture

from devfp.errors import DevfpError
from devfp.features import (
    CLASS_DEVICE_NAME,
    CLASS_DEVICE_TYPE,
    CSV_HEADER,
    ExtractionStats,
    extract_capture,
    label_by_source_mac,
    read_csv,
    read_registry,
    write_csv,
)
from devfp.pcap import parse_capture

CAPTURE = build_training_capture(seed=7, conversations_per_device=2)
REGISTRY = read_registry(TRAINING_REGISTRY)

mutations = st.lists(
    st.tuples(st.integers(0, len(CAPTURE) - 1), st.integers(0, 255)), max_size=16
)


@given(edits=mutations, cut=st.integers(0, len(CAPTURE)))
@settings(max_examples=400, deadline=None)
def test_mutated_capture_returns_or_raises_devfp_error(edits, cut):
    data = bytearray(CAPTURE)
    for position, byte in edits:
        data[position] = byte
    try:
        capture = parse_capture(bytes(data[:cut]))
        stats = ExtractionStats()
        vectors = extract_capture(capture, stats=stats)
        dataset, dropped = label_by_source_mac(vectors, REGISTRY)
    except DevfpError:
        return
    # every frame read is accounted for exactly once
    assert stats.frames_read == len(capture.frames)
    assert len(vectors) + stats.non_ipv4_skipped + stats.decode_errors == stats.frames_read
    assert len(dataset) + dropped == len(vectors)


valid_cell = st.one_of(st.just(""), st.integers(0, 2**53).map(str))
broken_cell = st.one_of(
    st.sampled_from(["007", "+5", " 7", "1_0", "\u0663", "-1", "x", "\r", "1\r"]),
    st.text(max_size=4),
)
# seven valid cells in eight, so about a third of the rows parse
feature_cells = st.lists(st.one_of(*[valid_cell] * 7, broken_cell), min_size=8, max_size=10)
rows = st.tuples(feature_cells, st.text(max_size=6)).map(lambda fl: ",".join(fl[0] + [fl[1]]))
near_canonical = st.tuples(
    st.lists(rows, max_size=5).map("\n".join), st.sampled_from(["", "\n", "\r\n", "\n\n"])
).map(lambda body_end: CSV_HEADER + "\n" + body_end[0] + body_end[1])


@pytest.mark.parametrize("class_attribute", [CLASS_DEVICE_NAME, CLASS_DEVICE_TYPE])
@given(text=st.one_of(st.text(), near_canonical))
@settings(max_examples=300, deadline=None)
def test_csv_text_raises_devfp_error_or_round_trips(class_attribute, text):
    try:
        dataset = read_csv(text, class_attribute)
    except DevfpError:
        return
    assert write_csv(dataset) == text
