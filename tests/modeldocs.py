"""Hand-written model documents (format v4) for tests that need a known tree.

A tree is written as a node list: `leaf(*counts)` and `split(attribute,
threshold, absent_branch, left, right)`, left and right being indices into
the list, in post-order: children before their parent and the root last.
`tree_params` encodes node lists as the v4 tree columns (sizes, attribute,
threshold, absent, and the sparse leaf counts leaf_nnz, count_class and
count), one tree per list, each tree's nodes in the breadth-first order the
file stores (the root first, then each split's left and right children in
the order of their parents), so the file stores no children. A vote member
is `member(variant, params)`. `canonical` writes a document as save_model
does (no whitespace, one final LF), the only text load_model reads, so that
a test of a document's content is not rejected for its form. `staircase`
builds a very large tree from its columns, without a document.
"""

import json
from dataclasses import asdict

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


def tree_params(*trees: list) -> dict:
    """The v4 tree params of one or more node lists."""
    params = {"sizes": [], "attribute": [], "threshold": [], "absent": "", "leaf_nnz": [], "count_class": [], "count": []}
    for nodes in trees:
        order = [len(nodes) - 1]
        for i in order:  # the list grows as it is walked: a queue
            if "counts" not in nodes[i]:
                order += [nodes[i]["left"], nodes[i]["right"]]
        assert sorted(order) == list(range(len(nodes))), "not one tree rooted at the last node"
        params["sizes"].append(len(nodes))
        for node in (nodes[i] for i in order):
            if "counts" in node:
                params["attribute"].append(-1)
                present = [(c, v) for c, v in enumerate(node["counts"]) if v != 0]
                params["leaf_nnz"].append(len(present))
                params["count_class"] += [c for c, _ in present]
                params["count"] += [v for _, v in present]
            else:
                params["attribute"].append(node["attribute"])
                params["threshold"].append(node["threshold"])
                params["absent"] += node["absent_branch"][:1]
    return params


def member(variant, params) -> dict:
    """A vote member with these params."""
    return {"variant": variant, "params": params}


def document(variant, schema, class_names, params) -> dict:
    """A hand-written model document with these params."""
    return {
        "format": "devfp-model",
        "version": 4,
        "variant": variant,
        "schema": list(schema),
        "class_names": list(class_names),
        "hyperparams": asdict(Hyperparams()),
        "params": params,
    }


def canonical(doc) -> str:
    """The text of a model document as save_model writes one."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def document_model(variant, schema, class_names, params):
    """A model loaded from a hand-written document with these params."""
    return load_model(canonical(document(variant, schema, class_names, params)))


def tree_model(schema, class_names, nodes):
    """A j48 model loaded from a hand-written document with these nodes."""
    return document_model("j48", schema, class_names, tree_params(nodes))


def staircase(n_splits: int) -> TreeModel:
    """A j48 tree of n_splits splits on ip.len, each with a leaf on its left:
    in breadth-first order node 2r is the r-th split, its left child 2r + 1
    a leaf and its right child 2r + 2 the next split, the last node a leaf."""
    n = 2 * n_splits + 1
    feature = np.full(n, -1, dtype=np.intp)
    feature[:-1:2] = 0
    counts = np.stack((np.arange(n_splits + 1) % 7, np.ones(n_splits + 1)), axis=1).astype(np.int32)
    return TreeModel(
        schema=("ip.len",), class_names=("A", "B"), hyperparams=Hyperparams(), variant="j48",
        sizes=np.array([n]), feature=feature, threshold=np.arange(n_splits) + 0.5,
        absent_left=np.arange(n_splits) % 2 == 0, counts=counts,
    )
