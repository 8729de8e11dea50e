"""Versioned model persistence with exact round-trips.

Grammar (JSON, version 1): a model document is an object with, in this
order,

    format       "devfp-model"
    version      1
    variant      "j48" | "rt" | "rf" | "nb" | "bagging" | "vote"
    schema       [attribute names...]
    class_names  [class names...]
    hyperparams  {seed, forest_trees, rt_feature_count, bagging_rounds,
                  bag_fraction, c45_min_leaf, c45_confidence, c45_prune,
                  nb_variance_floor}
    params       variant-specific, see below

Tree params ("j48"/"rt") store nodes as a flat array so arbitrarily deep
trees never hit recursion limits: {"root": index, "nodes": [node...]} where
a node is {"counts": [...]} for a leaf or {"attribute": i, "threshold": x,
"absent_branch": "left"|"right", "left": index, "right": index}. Nodes are
numbered in post-order (right subtree, left subtree, node), so children
carry smaller indices than their parent; the loader rejects documents that
break this, which also rules out cycles. Node i of the document is node i
of the TreeModel's arrays. Forest and bagging params hold {"members": [tree
params...]}, the members being rt and j48 trees respectively; vote params
hold full member documents, none a vote and each with the vote's schema and
class names; nb params hold priors/means/stddevs/present_rates with null
marking classes that never saw an attribute (NaN in the model's arrays).

The text is canonical: UTF-8 (ASCII, in fact: strings escape every other
character as json.dumps does), no whitespace, the keys in the order above,
ints written by str and floats by repr (so they parse back bit-identically),
and one final LF. save_model writes each tree's nodes straight from the
TreeModel arrays and json.dumps only the rest. load_model accepts exactly
the texts save_model writes: every text it accepts re-saves to the same
bytes. It reads the header values and the nb params with json and compares
each with its own re-dump, and a tree's nodes with one regex that admits
only the two node forms above, filling the arrays column by column. So it
rejects, among others, whitespace anywhere, a missing final LF, reordered,
duplicated, missing or unknown keys, a number spelled another way (2.5e-1
for 0.25, 1.00 for 1.0, 3.0 or true for an int count, 1 for a float), a
byte-order mark, bytes that are not UTF-8, NaN and Infinity (and Python's
nan, inf and -inf), an index, attribute or leaf count that is not a plain
int, a threshold or nb number that is not a float, and schema or class
names that are not distinct strings.
"""

from __future__ import annotations

import json
import math
import re
from typing import Iterator, Union

import numpy as np

from ..errors import ModelFormatError
from .base import VARIANT_C45, VARIANT_NAIVE_BAYES, VARIANT_RANDOM_TREE, VARIANT_VOTE, Hyperparams, TrainedModel
from .bayes import NaiveBayesModel
from .ensembles import TREE_MEMBER_VARIANTS, EnsembleModel
from .trees import TreeModel

FORMAT_NAME = "devfp-model"
FORMAT_VERSION = 1

_HEADER_KEYS = ("format", "version", "variant", "schema", "class_names", "hyperparams")


def _dumps(value: object) -> str:
    return json.dumps(value, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Writing


def _tree_text(tree: TreeModel) -> str:
    counts = iter(tree.counts.tolist())
    columns = (tree.feature, tree.threshold, tree.absent_left, tree.left, tree.right)
    nodes = ",".join(
        '{"counts":[%s]}' % ",".join(map(str, next(counts))) if attribute < 0 else
        f'{{"attribute":{attribute},"threshold":{threshold!r},'
        f'"absent_branch":"{"left" if absent_left else "right"}","left":{left},"right":{right}}}'
        for attribute, threshold, absent_left, left, right in zip(*(c.tolist() for c in columns))
    )
    return f'{{"root":{tree.root},"nodes":[{nodes}]}}'


def _nan_to_none(rows: np.ndarray) -> list:
    return [[None if math.isnan(v) else v for v in row] for row in rows.tolist()]


def _nb_text(arrays: dict) -> str:
    """The nb params text of the arrays (keyed as NaiveBayesModel's fields)."""
    return _dumps({
        "priors": arrays["priors"].tolist(),
        "means": _nan_to_none(arrays["means"]),
        "stddevs": _nan_to_none(arrays["stddevs"]),
        "present_rates": arrays["present_rates"].tolist(),
    })


def _document_parts(model: TrainedModel) -> Iterator[str]:
    """The text of model's document, in pieces no larger than one tree."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "variant": model.variant,
        "schema": list(model.schema),
        "class_names": list(model.class_names),
        "hyperparams": model.hyperparams.to_dict(),
    }
    yield _dumps(header)[:-1] + ',"params":'
    if isinstance(model, TreeModel):
        yield _tree_text(model)
    elif isinstance(model, NaiveBayesModel):
        yield _nb_text(vars(model))
    elif isinstance(model, EnsembleModel):
        yield '{"members":['
        for i, member in enumerate(model.members):
            if i:
                yield ","
            if model.variant == VARIANT_VOTE:
                yield from _document_parts(member)
            else:
                yield _tree_text(member)
        yield "]}"
    else:
        raise ModelFormatError(f"cannot persist model type {type(model).__name__}")
    yield "}"


def save_model(model: TrainedModel) -> str:
    """Serialize a trained model to its canonical JSON text."""
    return "".join([*_document_parts(model), "\n"])


# ---------------------------------------------------------------------------
# Reading


_INT = "0|[1-9][0-9]*"
_COUNT = "0|[1-9][0-9]{0,9}"  # at most ten digits: parsed as int64, a count cannot overflow
_TREE_HEAD = re.compile(rf'\{{"root":({_INT}),"nodes":\[')
# Field extractors, run on a tree's nodes once _node_pattern has checked
# them: per node "" for a leaf and l or r (the absent branch) for a split;
# per split its attribute, left and right, and its threshold; per leaf its counts.
_NODE_KIND = re.compile(r'\{"(?:c|attribute":[^}]*"absent_branch":"(l|r))')
_SPLIT_INTS = re.compile(r'"(?:attribute|left|right)":([0-9]+)')
_THRESHOLD = re.compile(r'"threshold":([^,]+)')
_COUNTS = re.compile(r'"counts":\[([0-9,]+)\]')


def _node_pattern(n_classes: int) -> re.Pattern:
    """One canonical node, a leaf of n_classes counts or a split (its
    threshold is checked against repr afterwards), then the comma before the
    next node or the end of the text. Matching nodes one at a time keeps the
    regex engine's backtracking state to one node, whatever the tree's size."""
    leaf = rf'\{{"counts":\[(?:{_COUNT})(?:,(?:{_COUNT})){{{n_classes - 1}}}\]\}}'
    split = (
        rf'\{{"attribute":(?:{_INT}),"threshold":[-+.0-9A-Za-z]+,'
        rf'"absent_branch":"(?:left|right)","left":(?:{_INT}),"right":(?:{_INT})\}}'
    )
    return re.compile(rf"(?:{leaf}|{split})(?:,(?=\{{)|\Z)")


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


def _read_tree(text: str, pos: int, n_attributes: int, n_classes: int) -> tuple[dict, int]:
    """TreeModel arrays for the tree params at pos, checked so that routing
    always ends, and their end."""
    head = _TREE_HEAD.match(text, pos)
    start = head.end() if head else pos
    end = text.find("}]", start) + 1  # the end of the last node, in a canonical tree
    nodes = text[start:end]
    # the nodes are canonical exactly when removing each node and its comma leaves nothing
    rest, n = _node_pattern(n_classes).subn("", nodes) if n_classes else (nodes, 0)
    if head is None or rest or not n:
        raise ModelFormatError(
            f"malformed tree at offset {pos}: need an int root and nodes that are each a leaf of"
            f" {n_classes} counts or a split with exactly five keys, written as save_model writes them"
        )
    kind = np.array(_NODE_KIND.findall(nodes), dtype=str)
    split = kind != ""
    threshold = _THRESHOLD.findall(nodes)
    values = list(map(float, threshold))
    # nan, inf and -inf are their own repr, so finiteness needs its own check
    if list(map(repr, values)) != threshold or not np.isfinite(values).all():
        written = next(w for w, v in zip(threshold, values) if repr(v) != w or not math.isfinite(v))
        raise ModelFormatError(f"tree threshold {written} is not a float as save_model writes it")
    counts = np.fromstring(",".join(_COUNTS.findall(nodes)), sep=",", dtype=np.int64)
    if np.any(counts > np.iinfo(np.int32).max):
        raise ModelFormatError("a leaf count does not fit in int32")
    split_ints = np.array(list(map(int, _SPLIT_INTS.findall(nodes))), dtype=np.intp).reshape(-1, 3)
    root = int(head.group(1))
    if not (
        np.all(split_ints[:, 1:] < np.flatnonzero(split)[:, None])
        and np.all(split_ints[:, 0] < n_attributes)
        and root < n
    ):
        raise ModelFormatError(
            "malformed tree: children must precede their parent and indices must be in range"
        )
    fields = {
        "feature": np.full(n, -1, dtype=np.intp),
        "threshold": np.zeros(n),
        "left": np.full(n, -1, dtype=np.intp),
        "right": np.full(n, -1, dtype=np.intp),
        "absent_left": kind == "l",
        "counts": counts.astype(np.int32).reshape(-1, n_classes),
        "root": root,
    }
    fields["threshold"][split] = values
    fields["feature"][split], fields["left"][split], fields["right"][split] = split_ints.T
    return fields, _expect(text, end, "]}")


def _read_naive_bayes(text: str, pos: int, n_attributes: int, n_classes: int) -> tuple[dict, int]:
    """NaiveBayesModel arrays for the nb params at pos, checked so that
    prediction is defined, and their end."""
    params, end = _read_json(text, pos, "nb params")
    priors = np.array(params["priors"], dtype=np.float64)
    present_rates = np.array(params["present_rates"], dtype=np.float64)
    means, stddevs = (
        np.array([[math.nan if v is None else v for v in row] for row in params[key]], dtype=np.float64)
        for key in ("means", "stddevs")
    )
    grid = (n_classes, n_attributes)
    if not (
        priors.shape == (n_classes,)
        and means.shape == stddevs.shape == present_rates.shape == grid
        and np.all(priors > 0)
        and np.array_equal(np.isnan(means), np.isnan(stddevs))
        and np.all(stddevs[~np.isnan(stddevs)] > 0)
    ):
        raise ModelFormatError(
            f"malformed naive Bayes: need {n_classes} positive priors, {grid} means, stddevs and"
            " present rates, and a positive stddev exactly where the mean is not null"
        )
    arrays = {"priors": priors, "means": means, "stddevs": stddevs, "present_rates": present_rates}
    if _nb_text(arrays) != text[pos:end]:
        raise ModelFormatError(
            "nb params need exactly their keys, in order, holding floats (or null) written as save_model writes them"
        )
    return arrays, end


def _names(value: object, key: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and set(map(type, value)) <= {str} and len(set(value)) == len(value)):
        raise ModelFormatError(f"{key} must be a list of distinct strings")
    return tuple(value)


def _read_document(text: str, pos: int, in_vote: bool = False) -> tuple[TrainedModel, int]:
    """The model whose document starts at pos, and the document's end."""
    header = {}
    for key in _HEADER_KEYS:
        pos = _expect(text, pos, ("," if header else "{") + _dumps(key) + ":")
        value, pos = _read_json(text, pos, key)
        if key == "format" and value != FORMAT_NAME:
            raise ModelFormatError(f"not a {FORMAT_NAME} document")
        if key == "version" and (type(value) is not int or value != FORMAT_VERSION):
            raise ModelFormatError(
                f"unsupported model version {value!r}; this build reads version {FORMAT_VERSION}"
            )
        header[key] = value
    variant = header["variant"]
    schema, class_names = _names(header["schema"], "schema"), _names(header["class_names"], "class_names")
    try:
        hp = Hyperparams(**header["hyperparams"])
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad hyperparams: {exc}") from exc
    if tuple(header["hyperparams"]) != tuple(hp.to_dict()):
        raise ModelFormatError("hyperparams must have exactly their keys, in order")
    if in_vote and variant == VARIANT_VOTE:
        raise ModelFormatError("a vote member cannot itself be a vote")
    pos = _expect(text, pos, ',"params":')
    common = {"schema": schema, "class_names": class_names, "hyperparams": hp}
    shape = (len(schema), len(class_names))
    if variant in (VARIANT_C45, VARIANT_RANDOM_TREE):
        arrays, pos = _read_tree(text, pos, *shape)
        model: TrainedModel = TreeModel(variant=variant, **arrays, **common)
    elif variant == VARIANT_NAIVE_BAYES:
        arrays, pos = _read_naive_bayes(text, pos, *shape)
        model = NaiveBayesModel(**arrays, **common)
    elif variant in TREE_MEMBER_VARIANTS or variant == VARIANT_VOTE:
        pos = _expect(text, pos, '{"members":[')
        if text.startswith("]", pos):
            raise ModelFormatError(f"{variant} model has no members")
        members = []
        while True:
            if variant == VARIANT_VOTE:
                member, pos = _read_document(text, pos, in_vote=True)
                if member.schema != schema or member.class_names != class_names:
                    raise ModelFormatError("every vote member needs the vote's schema and class names")
            else:
                arrays, pos = _read_tree(text, pos, *shape)
                member = TreeModel(variant=TREE_MEMBER_VARIANTS[variant], **arrays, **common)
            members.append(member)
            if not text.startswith(",", pos):
                break
            pos += 1
        pos = _expect(text, pos, "]}")
        model = EnsembleModel(variant=variant, members=tuple(members), **common)
    else:
        raise ModelFormatError(f"unknown variant {variant!r}")
    return model, _expect(text, pos, "}")


def load_model(text: Union[str, bytes]) -> TrainedModel:
    """Parse canonical JSON text (or its UTF-8 bytes) back into a trained model."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"model file is not UTF-8: {exc}") from exc
    try:
        model, end = _read_document(text, 0)
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from exc
    if text[end:] != "\n":
        raise ModelFormatError("the model text must end with its document and one LF")
    return model
