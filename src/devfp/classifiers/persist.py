"""Versioned model persistence with exact round-trips.

Grammar (JSON, version 3): a model document is an object with, in this
order,

    format       "devfp-model"
    version      3
    variant      "j48" | "rt" | "rf" | "nb" | "bagging" | "vote"
    schema       [attribute names...]
    class_names  [class names...]
    hyperparams  {seed, forest_trees, rt_feature_count, bagging_rounds,
                  bag_fraction, c45_min_leaf, c45_confidence, c45_prune,
                  nb_variance_floor}
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

The text is canonical: ASCII (strings escape every other character as
json.dumps does), no whitespace, the keys in the order above, ints written
by str and floats by repr (so they parse back bit-identically), and one
final LF. save_model writes the tree columns straight from the TreeModel's
arrays, a bounded piece at a time, and json.dumps only the rest. load_model
accepts exactly the texts save_model writes: every text it accepts re-saves
to the same bytes. It reads the header values and the nb params with json
and compares each with its own re-dump. It reads all of a model's trees in
one vectorised pass: an int column must hold only digits, commas and
minus signs, parse with np.fromstring, lie in its range and be exactly as
long as its values written by str; a threshold column must parse to finite
floats whose reprs are its text. So it rejects, among others, whitespace
anywhere, a missing final LF, reordered, duplicated, missing or unknown
keys, a number spelled another way (2.5e-1 for 0.25, 1.00 for 1.0, 3.0 or
true for an int count, 1 for a float), a byte-order mark, bytes that are
not UTF-8, NaN and Infinity (and Python's nan, inf and -inf), a leaf whose
counts are all 0 or list a class twice or out of order, and schema or class
names that are not distinct strings. Version 1 texts (a node object per
node, full documents as vote members) and version 2 texts (each tree in
post-order) are not read: such a model must be trained again.
"""

from __future__ import annotations

import json
import math
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
FORMAT_VERSION = 3

_HEADER_KEYS = ("format", "version", "variant", "schema", "class_names", "hyperparams")
_INT32_MAX = int(np.iinfo(np.int32).max)


def _dumps(value: object) -> str:
    return json.dumps(value, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Writing


# Values per piece of a column's text: the Python objects of one piece (a
# value and its str, about 100 bytes) are live at a time, so saving holds
# about two copies of the text, whatever the size of the forest.
_PIECE = 1024


def _joined(pieces: Iterator[list]) -> Iterator[str]:
    """The comma-separated text of the values of every piece, a piece at a time."""
    comma = ""
    for values in pieces:
        if values:
            yield comma + ",".join(map(str, values))  # str of a float is its repr
            comma = ","


def _pieces(column: np.ndarray) -> Iterator[np.ndarray]:
    return (column[s:s + _PIECE] for s in range(0, len(column), _PIECE))


def _forest_parts(model: TreeModel) -> Iterator[str]:
    """The text of a tree model's params, a piece of one column at a time."""
    yield '{"sizes":[' + ",".join(map(str, model.sizes.tolist())) + '],"attribute":['
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


def _nb_text(arrays: dict) -> str:
    """The nb params text of the arrays (keyed as NaiveBayesModel's fields)."""
    return _dumps({
        "priors": arrays["priors"].tolist(),
        "means": _nan_to_none(arrays["means"]),
        "stddevs": _nan_to_none(arrays["stddevs"]),
    })


def _params_parts(model: TrainedModel) -> Iterator[str]:
    """The text of model's params, in pieces."""
    if isinstance(model, TreeModel):
        yield from _forest_parts(model)
    elif isinstance(model, NaiveBayesModel):
        yield _nb_text(vars(model))
    elif isinstance(model, EnsembleModel):
        yield '{"members":['
        for i, member in enumerate(model.members):
            yield ("," if i else "") + '{"variant":' + _dumps(member.variant) + ',"params":'
            yield from _params_parts(member)
            yield "}"
        yield "]}"
    else:
        raise ModelFormatError(f"cannot persist model type {type(model).__name__}")


def save_model(model: TrainedModel) -> str:
    """Serialize a trained model to its canonical JSON text."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "variant": model.variant,
        "schema": list(model.schema),
        "class_names": list(model.class_names),
        "hyperparams": asdict(model.hyperparams),
    }
    return "".join([_dumps(header)[:-1] + ',"params":', *_params_parts(model), "}\n"])


# ---------------------------------------------------------------------------
# Reading


def _reject_constant(name: str) -> float:
    raise ModelFormatError(f"{name} is not a JSON number and save_model never writes it")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _expect(text: str, pos: int, literal: str) -> int:
    """The end of `literal`, which must stand at pos."""
    if not text.startswith(literal, pos):
        raise ModelFormatError(
            f"expected {literal!r} at offset {pos} of the model text, found {text[pos:pos + 24]!r}"
        )
    return pos + len(literal)


def _read_json(text: str, pos: int, what: str) -> tuple[object, int]:
    """The JSON value at pos, which must be written as json.dumps writes it, and its end."""
    try:
        value, end = _DECODER.raw_decode(text, pos)
    except json.JSONDecodeError as exc:
        found = text[exc.pos:exc.pos + 24]
        raise ModelFormatError(f"{what} is not readable JSON: {exc.msg}, found {found!r}") from exc
    except (RecursionError, ValueError) as exc:
        raise ModelFormatError(f"{what} is not readable JSON: {exc}") from exc
    if _dumps(value) != text[pos:end]:
        raise ModelFormatError(f"{what} is not written as save_model writes it")
    return value, end


def _span(text: str, pos: int, literal: str, close: str) -> tuple[int, int]:
    """The offsets of the text between `literal`, which must stand at pos,
    and the next `close`."""
    start = _expect(text, pos, literal)
    end = text.find(close, start)
    if end < 0:
        raise ModelFormatError(f"expected {close!r} after offset {start} of the model text")
    return start, end


_INT_BYTES = np.zeros(256, dtype=bool)
_INT_BYTES[list(b"-0123456789,")] = True
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _ints(body: str, key: str, low: int, high: int, size: int = -1) -> np.ndarray:
    """The ints of a list's text, each from low to high (and `size` of them
    unless it is -1), which must be written as str writes them."""
    values = None
    if _INT_BYTES[np.frombuffer(body.encode("ascii"), dtype=np.uint8)].all():
        try:
            values = np.fromstring(body, sep=",", dtype=np.int64) if body else np.zeros(0, dtype=np.int64)
        except ValueError:
            pass
    if values is not None and (size < 0 or len(values) == size) and (
        not len(values) or low <= values.min() <= values.max() <= high
    ):
        # digits, minus signs and commas: any other spelling of the same ints
        # (leading zeros, -0, extra commas) is longer, and a bare minus sign,
        # which np.fromstring reads as 0, is one minus sign too many
        negative = int(np.count_nonzero(values < 0))
        digits = np.searchsorted(_POWERS_OF_TEN, np.abs(values), side="right")
        if body.count("-") == negative and max(int(digits.sum()) + negative + 2 * len(values) - 1, 0) == len(body):
            return values
    count = "" if size < 0 else f"{size} "
    raise ModelFormatError(f"{key} must list {count}ints from {low} to {high} as save_model writes them")


def _is_float_repr(word: str) -> bool:
    try:
        value = float(word)
    except ValueError:
        return False
    return repr(value) == word and math.isfinite(value)


def _floats(text: str, start: int, end: int, key: str, size: int) -> np.ndarray:
    """The `size` finite floats of the list text[start:end], which must be
    written as repr writes them (compared a piece at a time)."""
    body = text[start:end]
    try:
        values = np.fromstring(body, sep=",") if body else np.zeros(0)
    except ValueError:
        values = np.zeros(0)
    at = start
    for i in range(0, len(values), _PIECE):
        written = ("," if i else "") + ",".join(map(repr, values[i:i + _PIECE].tolist()))
        if not text.startswith(written, at):
            break
        at += len(written)
    # nan, inf and -inf are their own repr, so finiteness needs its own check
    if at != end or len(values) != size or not np.isfinite(values).all():
        bad = next((w for w in body.split(",") if not _is_float_repr(w)), None)
        found = f"holds {bad}, which is not a finite float as repr writes it" if bad else f"must list {size} floats"
        raise ModelFormatError(f"tree {key} {found}")
    return values


def _read_forest(text: str, pos: int, variant: str, n_attributes: int, n_classes: int) -> tuple[dict, int]:
    """The TreeModel columns of the tree params at pos, read in one pass
    over all trees, and their end. TreeModel checks the structure."""
    start, pos = _span(text, pos, '{"sizes":[', "]")
    sizes = _ints(text[start:pos], "sizes", 1, _INT32_MAX)
    if not len(sizes):
        raise ModelFormatError(f"{variant} model has no members")
    if len(sizes) > 1 and variant in (VARIANT_C45, VARIANT_RANDOM_TREE):
        raise ModelFormatError(f"a {variant} model is one tree, not {len(sizes)}")
    start, pos = _span(text, pos, '],"attribute":[', "]")
    feature = _ints(text[start:pos], "attribute", -1, n_attributes - 1, int(sizes.sum()))
    n_splits = int(np.count_nonzero(feature >= 0))

    start, pos = _span(text, pos, '],"threshold":[', "]")
    threshold = _floats(text, start, pos, "threshold", n_splits)
    start, pos = _span(text, pos, '],"absent":"', '"')
    letters = text[start:pos]
    if len(letters) != n_splits or letters.strip("lr"):
        raise ModelFormatError(f"absent must be a string of {n_splits} letters l or r")
    absent_left = np.frombuffer(letters.encode("ascii"), dtype=np.uint8) == ord("l")

    n_leaves = len(feature) - n_splits
    start, pos = _span(text, pos, '","leaf_nnz":[', "]")
    nnz = _ints(text[start:pos], "leaf_nnz", 1, n_classes, n_leaves)
    n_counts = int(nnz.sum())
    start, pos = _span(text, pos, '],"count_class":[', "]")
    classes = _ints(text[start:pos], "count_class", 0, n_classes - 1, n_counts)
    ascending = classes[1:] > classes[:-1]
    ascending[np.cumsum(nnz)[:-1] - 1] = True  # where a leaf's counts begin
    if not ascending.all():
        raise ModelFormatError("count_class must list each leaf's classes in ascending order")
    start, pos = _span(text, pos, '],"count":[', "]")
    counts = np.zeros((n_leaves, n_classes), dtype=np.int32)
    counts[np.repeat(np.arange(n_leaves), nnz), classes] = _ints(text[start:pos], "count", 1, _INT32_MAX, n_counts)
    columns = {"sizes": sizes, "feature": feature, "threshold": threshold, "absent_left": absent_left, "counts": counts}
    return columns, _expect(text, pos, "]}")


def _read_naive_bayes(text: str, pos: int, n_attributes: int, n_classes: int) -> tuple[dict, int]:
    """NaiveBayesModel arrays for the nb params at pos, checked so that
    prediction is defined, and their end."""
    params, end = _read_json(text, pos, "nb params")
    priors = np.array(params["priors"], dtype=np.float64)
    means, stddevs = (
        np.array([[math.nan if v is None else v for v in row] for row in params[key]], dtype=np.float64)
        for key in ("means", "stddevs")
    )
    grid = (n_classes, n_attributes)
    if not (
        priors.shape == (n_classes,)
        and means.shape == stddevs.shape == grid
        and np.all(priors > 0)
        and np.array_equal(np.isnan(means), np.isnan(stddevs))
        and np.all(stddevs[~np.isnan(stddevs)] > 0)
    ):
        raise ModelFormatError(
            f"malformed naive Bayes: need {n_classes} positive priors, {grid} means and stddevs,"
            " and a positive stddev exactly where the mean is not null"
        )
    arrays = {"priors": priors, "means": means, "stddevs": stddevs}
    if _nb_text(arrays) != text[pos:end]:
        raise ModelFormatError(
            "nb params need exactly their keys, in order, holding floats (or null) written as save_model writes them"
        )
    return arrays, end


def _names(value: object, key: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and set(map(type, value)) <= {str} and len(set(value)) == len(value)):
        raise ModelFormatError(f"{key} must be a list of distinct strings")
    return tuple(value)


def _read_params(text: str, pos: int, variant: object, common: dict) -> tuple[TrainedModel, int]:
    """The model of this variant whose params start at pos, and their end.
    `common` holds the schema, class names and hyperparams."""
    shape = (len(common["schema"]), len(common["class_names"]))
    if variant in (VARIANT_C45, VARIANT_RANDOM_TREE, VARIANT_RANDOM_FOREST, VARIANT_BAGGING):
        columns, pos = _read_forest(text, pos, variant, *shape)
        try:
            return TreeModel(variant=variant, **columns, **common), pos
        except ValueError as exc:  # the trees' structure
            raise ModelFormatError(str(exc)) from exc
    if variant == VARIANT_NAIVE_BAYES:
        arrays, pos = _read_naive_bayes(text, pos, *shape)
        return NaiveBayesModel(**arrays, **common), pos
    if variant != VARIANT_VOTE:
        raise ModelFormatError(f"unknown variant {variant!r}")
    pos = _expect(text, pos, '{"members":[')
    if text.startswith("]", pos):
        raise ModelFormatError("vote model has no members")
    members = []
    while True:
        member_variant, pos = _read_json(text, _expect(text, pos, '{"variant":'), "member variant")
        if member_variant == VARIANT_VOTE:
            raise ModelFormatError("a vote member cannot itself be a vote")
        member, pos = _read_params(text, _expect(text, pos, ',"params":'), member_variant, common)
        members.append(member)
        pos = _expect(text, pos, "}")
        if not text.startswith(",", pos):
            break
        pos += 1
    return EnsembleModel(variant=VARIANT_VOTE, members=tuple(members), **common), _expect(text, pos, "]}")


def _read_document(text: str) -> TrainedModel:
    """The model of a whole model text."""
    header, pos = {}, 0
    for key in _HEADER_KEYS:
        pos = _expect(text, pos, ("," if header else "{") + _dumps(key) + ":")
        value, pos = _read_json(text, pos, key)
        if key == "format" and value != FORMAT_NAME:
            raise ModelFormatError(f"not a {FORMAT_NAME} document")
        if key == "version" and (type(value) is not int or value != FORMAT_VERSION):
            if type(value) is int and value in (1, 2):
                raise ModelFormatError(
                    f"this build no longer reads model version {value}; retrain the model with this build,"
                    f" which writes version {FORMAT_VERSION}"
                )
            raise ModelFormatError(
                f"unsupported model version {value!r}; this build reads version {FORMAT_VERSION}"
            )
        header[key] = value
    schema, class_names = _names(header["schema"], "schema"), _names(header["class_names"], "class_names")
    try:
        hp = Hyperparams(**header["hyperparams"])
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad hyperparams: {exc}") from exc
    if tuple(header["hyperparams"]) != tuple(asdict(hp)):
        raise ModelFormatError("hyperparams must have exactly their keys, in order")
    common = {"schema": schema, "class_names": class_names, "hyperparams": hp}
    model, pos = _read_params(text, _expect(text, pos, ',"params":'), header["variant"], common)
    if text[pos:] != "}\n":
        raise ModelFormatError("the model text must end with its document and one LF")
    return model


def load_model(text: Union[str, bytes]) -> TrainedModel:
    """Parse canonical JSON text (or its UTF-8 bytes) back into a trained model."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"model file is not UTF-8: {exc}") from exc
    if not text.isascii():
        raise ModelFormatError("the model text must be ASCII, as save_model writes it")
    try:
        return _read_document(text)
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from exc
