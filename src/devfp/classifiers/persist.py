"""Versioned model persistence with exact round-trips.

Grammar (JSON, version 1): a model document is an object with

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
of the TreeModel's arrays, so saving and loading copy arrays to and from
JSON. Forest and bagging params hold {"members": [tree params...]}, the
members being rt and j48 trees respectively; vote params hold full member
documents, none a vote and each with the vote's schema and class names; nb
params hold priors/means/stddevs/
present_rates with null marking classes that never saw an attribute (NaN
in the model's arrays).

Floats serialize via repr and parse back bit-identically, so
load_model(save_model(m)) reproduces m exactly. The loader takes values in
the JSON types save_model writes and coerces none: version is an integer,
schema and class_names are lists of distinct strings, a tree's root, its
nodes' attribute, left and right and its leaves' counts are integers (not
booleans), thresholds are floats, and so is every nb number that is not
null. Nor does it fill in or skip keys: the document, its hyperparams and
its params have exactly the keys above, a leaf exactly "counts" and a split
exactly its five keys. NaN, Infinity and -Infinity, which JSON lacks and
save_model never writes, are rejected.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import fields
from typing import Union

import numpy as np

from ..errors import ModelFormatError
from .base import VARIANT_C45, VARIANT_NAIVE_BAYES, VARIANT_RANDOM_TREE, VARIANT_VOTE, Hyperparams, TrainedModel
from .bayes import NaiveBayesModel
from .ensembles import TREE_MEMBER_VARIANTS, EnsembleModel
from .trees import TreeModel

FORMAT_NAME = "devfp-model"
FORMAT_VERSION = 1


def _encode_tree(tree: TreeModel) -> dict:
    counts = iter(tree.counts.tolist())
    columns = (tree.feature, tree.threshold, tree.left, tree.right, tree.absent_left)
    nodes = [
        {"counts": next(counts)} if attribute < 0 else {
            "attribute": attribute,
            "threshold": threshold,
            "absent_branch": "left" if absent_left else "right",
            "left": left,
            "right": right,
        }
        for attribute, threshold, left, right, absent_left in zip(*(c.tolist() for c in columns))
    ]
    return {"root": tree.root, "nodes": nodes}


_LEAF_AS_SPLIT = {"attribute": -1, "threshold": 0.0, "absent_branch": "right", "left": -1, "right": -1}
_NODE_KEYS = {frozenset({"counts"}), frozenset(_LEAF_AS_SPLIT)}  # a leaf's and a split's
_DOC_KEYS = frozenset({"format", "version", "variant", "schema", "class_names", "hyperparams", "params"})
_HYPERPARAM_KEYS = frozenset(f.name for f in fields(Hyperparams))
_TREE_KEYS = frozenset({"root", "nodes"})
_NB_KEYS = frozenset({"priors", "means", "stddevs", "present_rates"})
_ENSEMBLE_KEYS = frozenset({"members"})
_ABSENT_LEFT = {"left": True, "right": False}


def _keyed(obj: object, keys: frozenset, what: str) -> dict:
    """obj, which must be an object with exactly `keys`."""
    if not (isinstance(obj, dict) and obj.keys() == keys):
        raise ModelFormatError(f"{what} must have exactly the keys {sorted(keys)}")
    return obj


def _typed(values: list, kind: type, what: str) -> list:
    """values, each exactly of type `kind`: no bool where an int belongs,
    no int or string where a float belongs."""
    if not set(map(type, values)) <= {kind}:
        raise ModelFormatError(f"{what} must be of type {kind.__name__}")
    return values


def _decode_tree(params: dict, n_attributes: int, n_classes: int) -> dict:
    """TreeModel arrays for tree params, checked so that routing always ends."""
    nodes = _keyed(params, _TREE_KEYS, "tree params")["nodes"]
    if not {frozenset(raw) for raw in nodes} <= _NODE_KEYS:
        raise ModelFormatError('a tree node must be a leaf {"counts"} or a split with exactly five keys')
    splits = [_LEAF_AS_SPLIT if "counts" in raw else raw for raw in nodes]
    leaf_counts = [raw["counts"] for raw in nodes if "counts" in raw]
    if not set(map(type, itertools.chain.from_iterable(leaf_counts))) <= {int}:
        raise ModelFormatError("leaf counts must be of type int")

    def column(key: str, kind: type) -> list:
        return _typed([s[key] for s in splits], kind, f"tree node {key!r}")

    fields = {
        "feature": np.array(column("attribute", int), dtype=np.intp),
        "threshold": np.array(column("threshold", float), dtype=np.float64),
        "left": np.array(column("left", int), dtype=np.intp),
        "right": np.array(column("right", int), dtype=np.intp),
        "absent_left": np.array([_ABSENT_LEFT[s["absent_branch"]] for s in splits], dtype=bool),
        "counts": np.array(leaf_counts, dtype=np.int32),
        "root": _typed([params["root"]], int, "tree root")[0],
    }
    split = fields["feature"] >= 0
    index = np.arange(len(nodes))[split]
    children = np.concatenate([fields["left"][split], fields["right"][split]])
    if not (
        np.all((0 <= children) & (children < np.concatenate([index, index])))
        and np.all(fields["feature"] < n_attributes)
        and 0 <= fields["root"] < len(nodes)
        and fields["counts"].shape == (len(nodes) - len(index), n_classes)
        and np.all(fields["counts"] >= 0)
    ):
        raise ModelFormatError(
            "malformed tree: children must precede their parent, indices must be in"
            f" range, and every leaf needs {n_classes} non-negative class counts"
        )
    return fields


def _decode_naive_bayes(params: dict, n_attributes: int, n_classes: int) -> dict:
    """NaiveBayesModel arrays for nb params, checked so that prediction is defined."""
    _keyed(params, _NB_KEYS, "nb params")
    numbers = [params["priors"], *params["means"], *params["stddevs"]]
    _typed([v for row in numbers for v in row if v is not None], float, "nb numbers")
    _typed([v for row in params["present_rates"] for v in row], float, "nb present rates")
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
    return {"priors": priors, "means": means, "stddevs": stddevs, "present_rates": present_rates}


def _nan_to_none(rows: np.ndarray) -> list:
    return [[None if math.isnan(v) else v for v in row] for row in rows.tolist()]


def _model_dict(model: TrainedModel) -> dict:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "variant": model.variant,
        "schema": list(model.schema),
        "class_names": list(model.class_names),
        "hyperparams": model.hyperparams.to_dict(),
    }
    if isinstance(model, TreeModel):
        doc["params"] = _encode_tree(model)
    elif isinstance(model, NaiveBayesModel):
        doc["params"] = {
            "priors": model.priors.tolist(),
            "means": _nan_to_none(model.means),
            "stddevs": _nan_to_none(model.stddevs),
            "present_rates": model.present_rates.tolist(),
        }
    elif isinstance(model, EnsembleModel):
        encode = _model_dict if model.variant == VARIANT_VOTE else _encode_tree
        doc["params"] = {"members": [encode(m) for m in model.members]}
    else:
        raise ModelFormatError(f"cannot persist model type {type(model).__name__}")
    return doc


def save_model(model: TrainedModel) -> str:
    """Serialize a trained model to its canonical JSON text."""
    return json.dumps(_model_dict(model), separators=(",", ":")) + "\n"


def _names(doc: dict, key: str) -> tuple[str, ...]:
    names = doc[key]
    if not (isinstance(names, list) and set(map(type, names)) <= {str} and len(set(names)) == len(names)):
        raise ModelFormatError(f"{key} must be a list of distinct strings")
    return tuple(names)


def _model_from_dict(doc: dict) -> TrainedModel:
    if _keyed(doc, _DOC_KEYS, "a model document")["format"] != FORMAT_NAME:
        raise ModelFormatError(f"not a {FORMAT_NAME} document")
    version = doc["version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model version {version!r}; this build reads version {FORMAT_VERSION}"
        )
    variant = doc["variant"]
    schema, class_names = _names(doc, "schema"), _names(doc, "class_names")
    try:
        hp = Hyperparams(**_keyed(doc["hyperparams"], _HYPERPARAM_KEYS, "hyperparams"))
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad hyperparams: {exc}") from exc
    params = doc["params"]
    common = {"schema": schema, "class_names": class_names, "hyperparams": hp}
    shape = (len(schema), len(class_names))
    if variant in (VARIANT_C45, VARIANT_RANDOM_TREE):
        return TreeModel(variant=variant, **_decode_tree(params, *shape), **common)
    if variant == VARIANT_NAIVE_BAYES:
        return NaiveBayesModel(**_decode_naive_bayes(params, *shape), **common)
    if variant not in TREE_MEMBER_VARIANTS and variant != VARIANT_VOTE:
        raise ModelFormatError(f"unknown variant {variant!r}")
    member_params = _keyed(params, _ENSEMBLE_KEYS, f"{variant} params")["members"]
    if variant in TREE_MEMBER_VARIANTS:
        members = tuple(
            TreeModel(variant=TREE_MEMBER_VARIANTS[variant], **_decode_tree(p, *shape), **common)
            for p in member_params
        )
    else:
        if any(p["variant"] == VARIANT_VOTE for p in member_params):
            raise ModelFormatError("a vote member cannot itself be a vote")
        members = tuple(_model_from_dict(p) for p in member_params)
        if any(m.schema != schema or m.class_names != class_names for m in members):
            raise ModelFormatError("every vote member needs the vote's schema and class names")
    if not members:
        raise ModelFormatError(f"{variant} model has no members")
    return EnsembleModel(variant=variant, members=members, **common)


def _reject_constant(name: str) -> float:
    raise ModelFormatError(f"{name} is not a JSON number and save_model never writes it")


def load_model(text: Union[str, bytes]) -> TrainedModel:
    """Parse canonical JSON text back into a trained model."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (RecursionError, ValueError) as exc:  # ValueError includes JSONDecodeError
        raise ModelFormatError(f"model file is not readable JSON: {exc}") from exc
    try:
        return _model_from_dict(doc)
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from exc
