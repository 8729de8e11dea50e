"""The one training entry point, and the vote model.

`train_model(dataset, ModelSpec)` trains every variant: j48, rt, rf, nb,
bagging and vote. Each trained model draws its randomness from RNGs keyed
by `derive_rng`:

- rt: (seed, "rt");
- rf or bagging member i: (token, variant, i), where the token is the seed;
- vote member i of variant v: (seed, "vote", i, v). An rt member draws from
  this RNG directly; an rf or bagging member draws its 64-bit token from it.

j48 and nb draw nothing. An rf or bagging member draws its bootstrap sample
from its RNG, and an rf member then the candidate attributes of each node it
searches, in the tree's breadth-first order, as an rt model does. The member
trees grow in one contiguous chunk per usable CPU, every chunk but the first
in a forked worker that draws its own trees' samples (`trees.grow_trees`,
through `devfp.workers`), each tree exactly as it would grow alone, into one
`TreeModel` that holds them all, every tree in breadth-first order. Vote
members train one after another.
Predictions are the arithmetic mean of member class distributions (rf and
bagging route all their trees in one pass, see `trees`; a vote adds its
members' matrices); the predicted class is the argmax with ties broken
toward the lower class index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DevfpError
from ..features import Dataset, require_classes
from .base import (
    ALL_VARIANTS,
    Hyperparams,
    ModelSpec,
    TrainedModel,
    VARIANT_C45,
    VARIANT_NAIVE_BAYES,
    VARIANT_RANDOM_FOREST,
    VARIANT_RANDOM_TREE,
    VARIANT_VOTE,
    bootstrap_indices,
    derive_rng,
)
from .bayes import NaiveBayesModel, fit_naive_bayes
from .trees import TreeModel, grow_trees


@dataclass(frozen=True, eq=False)
class EnsembleModel(TrainedModel):
    """A vote: the mean of the members' class distributions, their matrices
    added in member order, then divided by the member count. A lone tree's
    matrix is its leaf rows divided by 1, so a vote of trees has the bits of
    routing them as one forest."""

    members: tuple[TrainedModel, ...]

    def distribution_batch(self, X: np.ndarray) -> np.ndarray:
        total = np.zeros((X.shape[0], len(self.class_names)), dtype=np.float64)
        for member in self.members:
            total += member.distribution_batch(X)
        total /= len(self.members)
        return total


def _train(dataset: Dataset, variant: str, hp: Hyperparams, rng: Optional[random.Random]) -> TrainedModel:
    """A model of any variant but vote. rng is a vote member's RNG, None
    for a model trained on its own (see the module docstring for the keys).

    Raises EmptyDataset for fewer than 2 rows and SingleClassDataset when
    fewer than 2 distinct labels are present.
    """
    require_classes(dataset, "training")
    X, y = dataset.matrix(), dataset.class_codes()
    n_classes = len(dataset.class_names)
    common = {"schema": tuple(dataset.attributes), "class_names": dataset.class_names, "hyperparams": hp}
    if variant == VARIANT_NAIVE_BAYES:
        return NaiveBayesModel(**fit_naive_bayes(X, y, n_classes), **common)
    n = len(y)
    if variant in (VARIANT_C45, VARIANT_RANDOM_TREE):
        n_trees, sample = 1, lambda t: np.arange(n)
        rngs = None if variant == VARIANT_C45 else [derive_rng(hp.seed, "rt") if rng is None else rng]
    else:
        # rf or bagging: tree t draws its bootstrap sample of n rows from its own RNG, then all trees grow together
        n_trees = hp.forest_trees if variant == VARIANT_RANDOM_FOREST else hp.bagging_rounds
        token = hp.seed if rng is None else rng.getrandbits(64)
        draws = [derive_rng(token, variant, i) for i in range(n_trees)]

        def sample(t: int) -> np.ndarray:
            return bootstrap_indices(draws[t], n)

        rngs = draws if variant == VARIANT_RANDOM_FOREST else None  # bagging grows j48 trees
    return TreeModel(variant=variant, **grow_trees(X, y, n_classes, n_trees, sample, hp, rngs), **common)


def train_model(dataset: Dataset, spec: ModelSpec) -> TrainedModel:
    """Train the classifier named by a ModelSpec on a dataset.

    A vote trains each of spec.vote_members on the same dataset. A member's
    error propagates with its type, annotated with the member name; an
    empty member list, and a vote or unknown member, raise ValueError.
    """
    hp = spec.hyperparams
    if spec.variant != VARIANT_VOTE:
        return _train(dataset, spec.variant, hp, None)
    if not spec.vote_members:
        raise ValueError("vote needs at least one member")
    members: list[TrainedModel] = []
    for i, variant in enumerate(spec.vote_members):
        try:
            if variant not in ALL_VARIANTS or variant == VARIANT_VOTE:
                raise ValueError(f"unknown or unsupported member variant {variant!r}")
            members.append(_train(dataset, variant, hp, derive_rng(hp.seed, "vote", i, variant)))
        except (DevfpError, ValueError) as exc:
            exc.args = (f"vote member {variant!r}: {exc}",)
            raise
    first = members[0]
    return EnsembleModel(
        schema=first.schema,
        class_names=first.class_names,
        hyperparams=hp,
        variant=VARIANT_VOTE,
        members=tuple(members),
    )
