"""Robustness properties: no byte string and no CSV text yields anything but
a result or a DevfpError, and no model document loads unless it re-saves to
the same text, which is JSON.

Captures are byte mutations (overwrites plus a cut) of a small training
capture, so most examples get past the global header and reach frame
headers, Ethernet, IPv4 and TCP/UDP decoding. CSV texts are arbitrary
strings and near-canonical ones built from the canonical header and cells
that are valid, non-canonical or broken, with device names or device types
in the class column. Model documents are saved j48, nb, rf and vote models
with one value retyped or written as a non-finite float (NaN, Infinity,
nan, inf), one schema or class name duplicated, or one key dropped or
added; with one edit to the structure of their tree columns: a node shifted
between trees (or a tree grown or shrunk) through `sizes`, two `attribute`
entries swapped, a count moved to another class, a `leaf_nnz` set to 0, or
an `absent` letter dropped or added; or with their text respelled:
whitespace inserted, the final LF dropped or leading whitespace added, an
object's keys reordered or one key duplicated, a number written another
way, the text passed as bytes in UTF-8 (with or without a byte-order
mark), UTF-16 or UTF-32, or one character of a number, of JSON's structure
or of its literals replaced, inserted or deleted at any offset.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import TRAINING_REGISTRY, build_training_capture
from modeldocs import canonical
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
# every JSON type and a number of each kind
REPLACEMENTS = [None, True, False, 0, 7, -1, 2.5, "x", "IoT", [], [0], {}, {"sizes": [1]}]
# the non-finite floats JSON lacks, as json.dumps spells them and as repr does
NON_FINITE = ["NaN", "Infinity", "-Infinity", "nan", "inf", "-inf"]


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


_SLOT = "\x00slot\x00"


def _written_with(doc, path, value_text):
    """canonical(doc) with the value at `path` written as `value_text`."""
    if not path:
        return value_text + "\n"
    *parent, key = path
    _at(doc, parent)[key] = _SLOT
    return canonical(doc).replace(json.dumps(_SLOT), value_text)


def _respellings(number):
    """Other spellings of a number: an int as a float or with an exponent, a
    float with a trailing zero or in exponent notation (0.25 as 2.5e-1)."""
    if type(number) is int:
        return [f"{number}.0", f"{number}e0", f"0{number}"]
    return [repr(number) + "0", f"{number:e}", f"{number * 10!r}e-1", repr(number).upper()]


VALUE_MUTATIONS = ["retype", "non-finite", "duplicate", "drop", "add"]
STRUCTURE_MUTATIONS = ["sizes", "swap-attributes", "move-count", "empty-leaf", "absent-letter"]
TEXT_MUTATIONS = ["whitespace", "ends", "reorder", "duplicate-key", "respell", "encode", "splice"]
# the characters of numbers, JSON's structure and its literals (true, false, null, NaN, Infinity)
SPLICE_CHARS = '0123456789-+.,:[]{}"eElnrtuafsN \n'
INT_COLUMNS = {"sizes", "attribute", "leaf_nnz", "count_class", "count"}


def _edit_structure(draw, trees, kind, n_classes):
    """One edit of the tree columns `trees` (tree params, edited in place)."""
    if kind == "sizes":  # a node moves to the next tree, or a lone tree grows or shrinks
        sizes, step = trees["sizes"], draw(st.sampled_from([-1, 1]))
        i = draw(st.integers(0, len(sizes) - 1))
        sizes[i] += step
        if i + 1 < len(sizes):
            sizes[i + 1] -= step
    elif kind == "swap-attributes":
        attribute = trees["attribute"]
        i, j = draw(st.integers(0, len(attribute) - 1)), draw(st.integers(0, len(attribute) - 1))
        attribute[i], attribute[j] = attribute[j], attribute[i]
    elif kind == "move-count":
        classes = trees["count_class"]
        classes[draw(st.integers(0, len(classes) - 1))] = draw(st.integers(0, n_classes - 1))
    elif kind == "empty-leaf":
        trees["leaf_nnz"][draw(st.integers(0, len(trees["leaf_nnz"]) - 1))] = 0
    else:  # absent-letter: one dropped or added
        absent = trees["absent"]
        if absent and draw(st.booleans()):
            at = draw(st.integers(0, len(absent) - 1))
            trees["absent"] = absent[:at] + absent[at + 1:]
        else:
            at = draw(st.integers(0, len(absent)))
            trees["absent"] = absent[:at] + draw(st.sampled_from("lr")) + absent[at:]


@st.composite
def mutated_model_texts(draw):
    doc = json.loads(draw(st.sampled_from(MODEL_TEXTS)))
    paths = list(_paths(doc))
    objects = [p for p in paths if isinstance(_at(doc, p), dict)]
    forests = [p for p in objects if "sizes" in _at(doc, p)]
    zeros = [p for p in paths if len(p) > 1 and p[-2] in INT_COLUMNS and type(_at(doc, p)) is int and _at(doc, p) == 0]
    kind = draw(st.sampled_from(
        VALUE_MUTATIONS + STRUCTURE_MUTATIONS * bool(forests) + TEXT_MUTATIONS + ["bare-minus"] * bool(zeros)
    ))
    if kind == "retype":
        *parent, key = draw(st.sampled_from(paths[1:]))
        _at(doc, parent)[key] = draw(st.sampled_from(REPLACEMENTS))
    elif kind == "non-finite":  # where a number or a null belongs
        numbers = [p for p in paths if type(_at(doc, p)) in (int, float, type(None))]
        return _written_with(doc, draw(st.sampled_from(numbers)), draw(st.sampled_from(NON_FINITE)))
    elif kind == "duplicate":
        names = _at(doc, draw(st.sampled_from([p for p in paths if p[-1:] in (("schema",), ("class_names",))])))
        source, target = draw(st.integers(0, len(names) - 1)), draw(st.integers(0, len(names)))
        if target < len(names) and draw(st.booleans()):
            names[target] = names[source]  # overwrite an entry
        else:
            names.insert(target, names[source])
    elif kind in ("drop", "add"):
        obj = _at(doc, draw(st.sampled_from(objects)))
        if kind == "drop":
            del obj[draw(st.sampled_from(sorted(obj)))]
        else:
            key = draw(st.sampled_from(["extra", "seed", "sizes", "members", "count", "present_rates"]))
            obj[key] = draw(st.sampled_from(REPLACEMENTS))
    elif kind in STRUCTURE_MUTATIONS:
        _edit_structure(draw, _at(doc, draw(st.sampled_from(forests))), kind, len(doc["class_names"]))
    elif kind == "whitespace":  # before or after a structural character
        text = canonical(doc)
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c in "{}[],:"])) + draw(st.integers(0, 1))
        return text[:at] + draw(st.sampled_from([" ", "\t", "\n", "\r\n"])) + text[at:]
    elif kind == "ends":
        text = canonical(doc)
        return draw(st.sampled_from([text[:-1], text[:-1] + "\r\n", text + "\n", " " + text, "\n" + text]))
    elif kind == "reorder":
        path = draw(st.sampled_from([p for p in objects if len(_at(doc, p)) > 1]))
        obj = _at(doc, path)
        order = draw(st.permutations(list(obj)))
        return _written_with(doc, path, json.dumps({k: obj[k] for k in order}, separators=(",", ":")))
    elif kind == "duplicate-key":  # json.loads keeps the last of two equal keys
        path = draw(st.sampled_from(objects))
        obj = _at(doc, path)
        key = draw(st.sampled_from(sorted(obj)))
        extra = json.dumps(key) + ":" + json.dumps(draw(st.sampled_from([obj[key], *REPLACEMENTS])))
        body = json.dumps(obj, separators=(",", ":"))[1:-1]
        pair = [extra, body] if draw(st.booleans()) else [body, extra]
        return _written_with(doc, path, "{" + ",".join(pair) + "}")
    elif kind == "bare-minus":  # np.fromstring reads a lone "-" as 0
        return _written_with(doc, draw(st.sampled_from(zeros)), "-")
    elif kind == "splice":  # one character replaced, inserted or deleted anywhere
        text = canonical(doc)
        at, removed = draw(st.integers(0, len(text))), draw(st.integers(0, 1))
        return text[:at] + draw(st.sampled_from(["", *SPLICE_CHARS])) + text[at + removed:]
    elif kind == "respell":
        path = draw(st.sampled_from([p for p in paths if type(_at(doc, p)) in (int, float)]))
        return _written_with(doc, path, draw(st.sampled_from(_respellings(_at(doc, path)))))
    else:  # encode
        encoding = draw(st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be", "utf-32"]))
        return canonical(doc).encode(encoding)
    return canonical(doc)


@given(text=mutated_model_texts())
@settings(max_examples=3000, deadline=None)
def test_mutated_model_raises_or_resaves_identically(text):
    try:
        model = load_model(text)
    except ModelFormatError:
        return
    saved = save_model(model)
    assert (saved.encode("utf-8") if isinstance(text, bytes) else saved) == text
    assert canonical(json.loads(saved, parse_constant=_reject_constant)) == saved  # and is JSON


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")
