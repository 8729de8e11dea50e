"""Hand-written model documents (format v1) for tests that need a known tree.

Nodes are listed in the format's post-order: children before their parent,
the root last (unless `root` says otherwise). `canonical` writes a document
as save_model does (no whitespace, one final LF), the only text load_model
reads, so that a test of a document's content is not rejected for its form.
`staircase` builds a very large tree from its arrays, without a document.
"""

import json

import numpy as np

from devfp.classifiers import Hyperparams, load_model
from devfp.classifiers.trees import TreeModel


def leaf(*counts: int) -> dict:
    return {"counts": list(counts)}


def split(attribute: int, threshold: float, absent_branch: str, left: int, right: int) -> dict:
    return {
        "attribute": attribute,
        "threshold": threshold,
        "absent_branch": absent_branch,
        "left": left,
        "right": right,
    }


def document(variant, schema, class_names, params) -> dict:
    """A hand-written model document with these params."""
    return {
        "format": "devfp-model",
        "version": 1,
        "variant": variant,
        "schema": list(schema),
        "class_names": list(class_names),
        "hyperparams": Hyperparams().to_dict(),
        "params": params,
    }


def canonical(doc) -> str:
    """The text of a model document as save_model writes one."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def document_model(variant, schema, class_names, params):
    """A model loaded from a hand-written document with these params."""
    return load_model(canonical(document(variant, schema, class_names, params)))


def tree_model(schema, class_names, nodes, root=None):
    """A j48 model loaded from a hand-written document with these nodes."""
    params = {"root": len(nodes) - 1 if root is None else root, "nodes": nodes}
    return document_model("j48", schema, class_names, params)


def staircase(n_splits: int) -> TreeModel:
    """A j48 tree of n_splits splits on ip.len, each with a leaf on its left:
    node 0 is a leaf, node 2j - 1 a leaf and node 2j the split (left 2j - 1,
    right 2j - 2) for j = 1..n_splits, so the root is the last node."""
    n = 2 * n_splits + 1
    feature = np.full(n, -1, dtype=np.intp)
    feature[2::2] = 0
    threshold = np.zeros(n)
    threshold[2::2] = np.arange(n_splits) + 0.5
    left = np.full(n, -1, dtype=np.intp)
    left[2::2] = np.arange(1, n, 2)
    right = np.full(n, -1, dtype=np.intp)
    right[2::2] = np.arange(0, n - 1, 2)
    absent_left = np.zeros(n, dtype=bool)
    absent_left[2::4] = True
    counts = np.stack((np.arange(n_splits + 1) % 7, np.ones(n_splits + 1)), axis=1).astype(np.int32)
    return TreeModel(
        schema=("ip.len",), class_names=("A", "B"), hyperparams=Hyperparams(), variant="j48",
        feature=feature, threshold=threshold, left=left, right=right, absent_left=absent_left,
        counts=counts, root=n - 1,
    )
