"""Versioned model persistence with exact round-trips.

Grammar (JSON, version 4): a model document is an object with, in this
order,

    format       "devfp-model"
    version      4
    variant      "j48" | "rt" | "rf" | "nb" | "bagging" | "vote"
    schema       [attribute names...]
    class_names  [class names...]
    hyperparams  {seed, forest_trees, bagging_rounds, c45_min_leaf,
                  c45_confidence, c45_prune}
    params       variant-specific, see below

Tree params (j48, rt, rf, bagging) hold every tree of the model as one set
of columns, a lone tree being a forest of one (rf trees are rt trees,
bagging trees j48 trees):

    sizes        [nodes per tree...]
    attribute    [per node: its schema attribute, -1 for a leaf...]
    threshold    [per split: its threshold...]
    absent       "one letter per split: l if Absent goes left, r if right"
    leaf_nnz     [per leaf: how many of its class counts are not 0...]
    count_class  [per such count: its class, ascending within the leaf...]
    count        [per such count: its value...]

Each tree's nodes are in breadth-first order (the root, then each split's
left and right children in the order of their parents), so children are not
stored: a tree's r-th split has its children at the tree's nodes 2r + 1 and
2r + 2. A tree of s splits must hold 2s + 1 nodes, and each split's
children must come after it. So every text that loads is a set of trees,
each reaching each of its nodes exactly once from its root, the first node.
The columns are the TreeModel's own (`attribute` is its `feature`, `absent`
its `absent_left`, the sparse counts its `counts`), and TreeModel derives
the children by this rule, rejecting columns that break it.

nb params hold {priors, means, stddevs}, null marking classes that never
saw an attribute (NaN in the model's arrays). Vote params hold {"members":
[{"variant": v, "params": ...}...]}: each member takes the vote's schema,
class names and hyperparams, and none is a vote.

The text is canonical: json.dumps writes every value (ASCII only, strings
escaping every other character; ints as str and floats as repr write them,
so they parse back bit-identically), with no whitespace, the keys in the
order above, and one final LF. save_model writes the tree columns from the
TreeModel's arrays, a bounded piece at a time.

load_model checks one rule: the text is what save_model writes. It reads
the text loosely (the header and the nb params with json, each tree column
with np.fromstring on the span after its key), builds the model, and
compares the text with what save_model writes for that model, a piece at a
time. So every text it accepts re-saves to the same bytes, and any other
spelling of a model differs somewhere: whitespace, a missing final LF,
reordered, duplicated, missing or unknown keys, a number spelled another
way (2.5e-1 for 0.25, 1.00 for 1.0, 3.0 or true for an int count, a bare
minus sign for 0), a byte-order mark. The error names the field, the offset
and what was found and expected there. JSON's NaN and Infinity are refused
as they are read, and so is text the JSON parser cannot read. The model
classes check their own values and shapes, which also guards models built
in memory: TrainedModel that the schema and class names are distinct
strings, TreeModel the tree structure, the attribute range, finite
thresholds and one non-empty row of non-negative counts per leaf,
NaiveBayesModel the shapes, positive priors and a positive stddev exactly
under each mean. Version 1 texts (a node object per node, full documents as
vote members), version 2 texts (each tree in post-order) and version 3 texts
(three more hyperparams, which training now holds constant) are not read:
such a model must be trained again.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import asdict
from typing import Iterator, Union

import numpy as np

from ..errors import ModelFormatError
from .base import (
    VARIANT_BAGGING,
    VARIANT_C45,
    VARIANT_NAIVE_BAYES,
    VARIANT_RANDOM_FOREST,
    VARIANT_RANDOM_TREE,
    VARIANT_VOTE,
    Hyperparams,
    TrainedModel,
)
from .bayes import NaiveBayesModel
from .ensembles import EnsembleModel
from .trees import TreeModel

FORMAT_NAME = "devfp-model"
FORMAT_VERSION = 4


def _dumps(value: object) -> str:
    return json.dumps(value, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Writing


# Values per piece of a column's text: the Python objects of one piece (a
# value and its text, about 100 bytes) are live at a time, so saving holds
# about two copies of the text, whatever the size of the forest.
_PIECE = 1024


def _joined(pieces: Iterator[list]) -> Iterator[str]:
    """The comma-separated text of the values of every piece (none is
    empty), a piece at a time."""
    comma = ""
    for values in pieces:
        yield comma + _dumps(values)[1:-1]
        comma = ","


def _pieces(column: np.ndarray) -> Iterator[np.ndarray]:
    return (column[s:s + _PIECE] for s in range(0, len(column), _PIECE))


def _forest_parts(model: TreeModel) -> Iterator[str]:
    """The text of a tree model's params, a piece of one column at a time."""
    yield '{"sizes":' + _dumps(model.sizes.tolist()) + ',"attribute":['
    yield from _joined(p.tolist() for p in _pieces(model.feature))
    yield '],"threshold":['
    yield from _joined(p.tolist() for p in _pieces(model.threshold))
    yield '],"absent":"'
    yield np.where(model.absent_left, b"l", b"r").tobytes().decode("ascii")
    leaves = list(_pieces(model.counts))
    yield '","leaf_nnz":['
    yield from _joined(np.count_nonzero(c, axis=1).tolist() for c in leaves)
    yield '],"count_class":['
    yield from _joined(np.nonzero(c)[1].tolist() for c in leaves)
    yield '],"count":['
    yield from _joined(c[c != 0].tolist() for c in leaves)
    yield "]}"


def _nan_to_none(rows: np.ndarray) -> list:
    return [[None if math.isnan(v) else v for v in row] for row in rows.tolist()]


def _params_parts(model: TrainedModel) -> Iterator[str]:
    """The text of model's params, in pieces."""
    if isinstance(model, TreeModel):
        yield from _forest_parts(model)
    elif isinstance(model, NaiveBayesModel):
        yield _dumps({
            "priors": model.priors.tolist(),
            "means": _nan_to_none(model.means),
            "stddevs": _nan_to_none(model.stddevs),
        })
    elif isinstance(model, EnsembleModel):
        yield '{"members":['
        for i, member in enumerate(model.members):
            yield ("," if i else "") + '{"variant":' + _dumps(member.variant) + ',"params":'
            yield from _params_parts(member)
            yield "}"
        yield "]}"
    else:
        raise ModelFormatError(f"cannot persist model type {type(model).__name__}")


def _parts(model: TrainedModel) -> Iterator[str]:
    """The text of model's document, in pieces."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "variant": model.variant,
        "schema": list(model.schema),
        "class_names": list(model.class_names),
        "hyperparams": asdict(model.hyperparams),
    }
    yield _dumps(header)[:-1] + ',"params":'
    yield from _params_parts(model)
    yield "}\n"


def save_model(model: TrainedModel) -> str:
    """Serialize a trained model to its canonical JSON text."""
    return "".join(_parts(model))


# ---------------------------------------------------------------------------
# Reading


def _reject_constant(name: str) -> float:
    raise ModelFormatError(f"{name} is not a JSON number and save_model never writes it")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_KEY = re.compile(r'"(\w+)":')


def _field(text: str, pos: int) -> str:
    """The last key written before offset pos (the first, "format", before any)."""
    keys = _KEY.findall(text, 0, pos)
    return keys[-1] if keys else "format"


def _json(text: str, pos: int) -> tuple[object, int]:
    """The JSON value at pos, read loosely, and its end."""
    try:
        return _DECODER.raw_decode(text, pos)
    except json.JSONDecodeError as exc:
        found = text[exc.pos:exc.pos + 24]
        raise ModelFormatError(f"{_field(text, exc.pos)} is not readable JSON: {exc.msg}, found {found!r}") from exc
    except (RecursionError, ValueError) as exc:  # nesting too deep, an int over the digit limit
        raise ModelFormatError(f"{_field(text, len(text))} is not readable JSON: {exc}") from exc


def _span(text: str, pos: int, key: str, close: str = "]") -> tuple[int, int]:
    """The offsets of the text after the first '"key":[' (or '"key":"') from
    pos on, up to the next `close`."""
    start = text.find(f'"{key}":', pos) + len(key) + 4
    end = text.find(close, start)
    if start < len(key) + 4 or end < 0:
        raise ModelFormatError(f"the tree params have no {key} column")
    return start, end


def _column(text: str, pos: int, key: str, dtype: type = np.int64) -> tuple[np.ndarray, int]:
    """The numbers of the list after key, read loosely, and the list's end."""
    start, end = _span(text, pos, key)
    try:
        return np.fromstring(text[start:end], sep=",", dtype=dtype), end
    except ValueError as exc:
        raise ModelFormatError(f"the {key} column is not a list of numbers") from exc


def _read_counts(text: str, pos: int, n_leaves: int, n_classes: int) -> tuple[np.ndarray, int]:
    """The dense leaf counts of the sparse count columns from pos on, and their
    end. A function of its own, so that its int64 columns are freed before
    TreeModel builds its routing columns: a load's peak stays that of one."""
    nnz, pos = _column(text, pos, "leaf_nnz")
    classes, pos = _column(text, pos, "count_class")
    values, pos = _column(text, pos, "count")
    counts = np.zeros((n_leaves, n_classes), dtype=np.int32)
    # no leaf holds more counts than classes: clipped so, leaf_nnz asks for no
    # more memory than the dense counts, and a clipped value shows in the compare
    counts[np.repeat(np.arange(n_leaves), nnz.clip(0, n_classes)), classes] = values
    return counts, pos


def _read_forest(text: str, pos: int, variant: str, common: dict) -> tuple[TreeModel, int]:
    """The TreeModel of the tree params at pos, all trees read in one pass,
    and their end."""
    sizes, pos = _column(text, pos, "sizes")
    feature, pos = _column(text, pos, "attribute")
    threshold, pos = _column(text, pos, "threshold", np.float64)
    start, pos = _span(text, pos, "absent", '"')
    absent_left = np.frombuffer(text[start:pos].encode(), dtype=np.uint8) == ord("l")
    counts, pos = _read_counts(text, pos, int(np.count_nonzero(feature < 0)), len(common["class_names"]))
    model = TreeModel(variant=variant, sizes=sizes, feature=feature, threshold=threshold,
                      absent_left=absent_left, counts=counts, **common)
    return model, pos


def _read_member(text: str, pos: int, variant: object, common: dict) -> tuple[TrainedModel, int]:
    """The model of this variant, not a vote, whose params start at pos, and
    their end. `common` holds the schema, class names and hyperparams."""
    if variant in (VARIANT_C45, VARIANT_RANDOM_TREE, VARIANT_RANDOM_FOREST, VARIANT_BAGGING):
        return _read_forest(text, pos, variant, common)
    if variant != VARIANT_NAIVE_BAYES:
        raise ModelFormatError(f"unknown variant {variant!r}")
    params, end = _json(text, pos)
    means, stddevs = (
        np.array([[math.nan if v is None else v for v in row] for row in params[key]], dtype=np.float64)
        for key in ("means", "stddevs")
    )
    return NaiveBayesModel(priors=np.array(params["priors"], dtype=np.float64), means=means, stddevs=stddevs,
                           **common), end


def _read_vote(text: str, pos: int, common: dict) -> EnsembleModel:
    """The vote whose params start at pos: a member at each '{"variant":'."""
    members = []
    pos = text.find('{"variant":', pos)
    while pos >= 0:
        variant, pos = _json(text, pos + len('{"variant":'))
        if variant == VARIANT_VOTE:
            raise ModelFormatError("a vote member cannot itself be a vote")
        member, pos = _read_member(text, pos + len(',"params":'), variant, common)
        members.append(member)
        pos = text.find('{"variant":', pos)
    if not members:
        raise ModelFormatError("vote model has no members")
    return EnsembleModel(variant=VARIANT_VOTE, members=tuple(members), **common)


def _mismatch(text: str, pos: int, expected: str) -> ModelFormatError:
    """The error for text differing from `expected`, written from pos on."""
    at = pos + len(os.path.commonprefix([text[pos:pos + len(expected)], expected]))
    return ModelFormatError(
        f"{_field(text, at)} is not written as save_model writes it: at offset {at} found"
        f" {text[at:at + 24]!r}, expected {expected[at - pos:at - pos + 24]!r}"
    )


def _read_document(text: str) -> TrainedModel:
    """The model of a whole model text: read loosely, then compared with what
    save_model writes for it, a piece at a time."""
    head = text.find(',"params":')
    header, _ = _json(text[:head] + "}" if head >= 0 else text, 0)
    if type(header) is not dict or header.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"not a {FORMAT_NAME} document")
    version = header.get("version")
    if type(version) is int and 1 <= version < FORMAT_VERSION:
        raise ModelFormatError(
            f"this build no longer reads model version {version}; retrain the model with this build,"
            f" which writes version {FORMAT_VERSION}"
        )
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {version!r}; this build reads version {FORMAT_VERSION}")
    if head < 0:
        raise ModelFormatError("the model document has no params")
    try:
        hp = Hyperparams(**header["hyperparams"])
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad hyperparams: {exc}") from exc
    common = {"schema": tuple(header["schema"]), "class_names": tuple(header["class_names"]), "hyperparams": hp}
    pos, variant = head + len(',"params":'), header.get("variant")
    model = _read_vote(text, pos, common) if variant == VARIANT_VOTE else _read_member(text, pos, variant, common)[0]
    pos = 0
    for part in _parts(model):
        if not text.startswith(part, pos):
            raise _mismatch(text, pos, part)
        pos += len(part)
    if pos != len(text):
        raise _mismatch(text, pos, "")
    return model


def load_model(text: Union[str, bytes]) -> TrainedModel:
    """Parse canonical JSON text (or its UTF-8 bytes) back into a trained model."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"model file is not UTF-8: {exc}") from exc
    try:
        return _read_document(text)
    except ValueError as exc:  # a model's own check, or columns that do not fit together
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    except (KeyError, IndexError, OverflowError, TypeError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from exc
