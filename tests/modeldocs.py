"""Hand-written model documents (format v1) for tests that need a known tree.

Nodes are listed in the format's post-order: children before their parent,
the root last (unless `root` says otherwise).
"""

import json

from devfp.classifiers import Hyperparams, load_model


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


def document_model(variant, schema, class_names, params):
    """A model loaded from a hand-written document with these params."""
    return load_model(json.dumps(document(variant, schema, class_names, params)))


def tree_model(schema, class_names, nodes, root=None):
    """A j48 model loaded from a hand-written document with these nodes."""
    params = {"root": len(nodes) - 1 if root is None else root, "nodes": nodes}
    return document_model("j48", schema, class_names, params)
