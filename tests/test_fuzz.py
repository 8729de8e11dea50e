"""Robustness properties: no byte string and no CSV text yields anything but
a result or a DevfpError, and no model document loads unless it re-saves to
the same text.

Captures are byte mutations (overwrites plus a cut) of a small training
capture, so most examples get past the global header and reach frame
headers, Ethernet, IPv4 and TCP/UDP decoding. CSV texts are arbitrary
strings and near-canonical ones built from the canonical header and cells
that are valid, non-canonical or broken, with device names or device types
in the class column. Model documents are saved j48, nb,
rf and vote models with one value retyped, one schema or class name
duplicated, or one key dropped or added.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import TRAINING_REGISTRY, build_training_capture
from tables import make_dataset

from devfp.classifiers import Hyperparams, ModelSpec, load_model, save_model, train_model
from devfp.errors import DevfpError, ModelFormatError
from devfp.features import (
    CSV_HEADER,
    TYPE_IOT,
    TYPE_NON_IOT,
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
# the class column holds device names (any text) or device types (mostly the two type names)
CLASS_CELLS = {
    "device_name": st.text(max_size=6),
    "device_type": st.one_of(st.sampled_from(["", TYPE_IOT, TYPE_NON_IOT]), st.text(max_size=6)),
}


def near_canonical(class_cell):
    """CSV texts of the canonical header and up to five rows of feature cells
    then `class_cell`, ending in nothing, LF, CRLF or two LFs."""
    rows = st.tuples(feature_cells, class_cell).map(lambda fl: ",".join(fl[0] + [fl[1]]))
    return st.tuples(
        st.lists(rows, max_size=5).map("\n".join), st.sampled_from(["", "\n", "\r\n", "\n\n"])
    ).map(lambda body_end: CSV_HEADER + "\n" + body_end[0] + body_end[1])


@pytest.mark.parametrize("labelling", sorted(CLASS_CELLS))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_csv_text_raises_devfp_error_or_round_trips(labelling, data):
    text = data.draw(st.one_of(st.text(), near_canonical(CLASS_CELLS[labelling])), label="text")
    try:
        dataset = read_csv(text)
    except DevfpError:
        return
    assert write_csv(dataset) == text


# class A never sees ip.ttl, so the nb document holds null means and stddevs
MODEL_DATASET = make_dataset(
    {"ip.len": [1, 2, 9, 10, 5, 6], "ip.ttl": [None, None, 32, 33, None, 32]},
    ["A", "A", "B", "B", "A", "B"],
)
MODEL_TEXTS = [
    save_model(train_model(MODEL_DATASET, ModelSpec(variant, Hyperparams(forest_trees=2), ("j48", "nb"))))
    for variant in ("j48", "nb", "rf", "vote")
]
# every JSON type and a number of each kind; json.dumps writes the constants JSON lacks as NaN,
# Infinity and -Infinity
REPLACEMENTS = [None, True, False, 0, 7, -1, 2.5, "x", "IoT", [], [0], {}, {"counts": [1]}]
NON_FINITE = [math.nan, math.inf, -math.inf]


def _paths(value, path=()):
    """The path (keys and list indices) of every value nested in `value`."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_model_texts(draw):
    doc = json.loads(draw(st.sampled_from(MODEL_TEXTS)))
    paths = list(_paths(doc))
    kind = draw(st.sampled_from(["retype", "non-finite", "duplicate", "drop", "add"]))
    if kind == "retype":
        *parent, key = draw(st.sampled_from(paths[1:]))
        _at(doc, parent)[key] = draw(st.sampled_from(REPLACEMENTS))
    elif kind == "non-finite":  # where a number or a null belongs
        numbers = [p for p in paths if type(_at(doc, p)) in (int, float, type(None))]
        *parent, key = draw(st.sampled_from(numbers))
        _at(doc, parent)[key] = draw(st.sampled_from(NON_FINITE))
    elif kind == "duplicate":
        names = _at(doc, draw(st.sampled_from([p for p in paths if p[-1:] in (("schema",), ("class_names",))])))
        source, target = draw(st.integers(0, len(names) - 1)), draw(st.integers(0, len(names)))
        if target < len(names) and draw(st.booleans()):
            names[target] = names[source]  # overwrite an entry
        else:
            names.insert(target, names[source])
    else:
        obj = _at(doc, draw(st.sampled_from([p for p in paths if isinstance(_at(doc, p), dict)])))
        if kind == "drop":
            del obj[draw(st.sampled_from(sorted(obj)))]
        else:
            key = draw(st.sampled_from(["extra", "seed", "counts", "members", "left"]))
            obj[key] = draw(st.sampled_from(REPLACEMENTS))
    return json.dumps(doc, separators=(",", ":")) + "\n"


@given(text=mutated_model_texts())
@settings(max_examples=1500, deadline=None)
def test_mutated_model_raises_or_resaves_identically(text):
    try:
        model = load_model(text)
    except ModelFormatError:
        return
    assert save_model(model) == text
