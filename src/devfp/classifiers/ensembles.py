"""Ensemble classifiers: random forest, bagging, and probability voting.

Each ensemble member trains on its own deterministically derived RNG. An rf
or bagging member draws its bootstrap sample from it, and an rf member then
the candidate attributes of its nodes. All samples are drawn first; then
every member tree grows in one frontier (`trees.grow_trees`), each exactly
as it would grow alone. Vote members train one after another. Predictions
are the arithmetic mean of member class distributions (member matrices
added in member order, then divided by the member count); the predicted
class is the argmax with ties broken toward the lower class index.

identity_bootstrap is a diagnostic mode replacing bootstrap sampling with
the identity permutation, which makes an ensemble of one reproduce its base
model exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import DevfpError
from .base import (
    Hyperparams,
    ModelSpec,
    TrainedModel,
    VARIANT_BAGGING,
    VARIANT_C45,
    VARIANT_NAIVE_BAYES,
    VARIANT_RANDOM_FOREST,
    VARIANT_RANDOM_TREE,
    VARIANT_VOTE,
    bootstrap_indices,
    dataset_arrays,
    derive_rng,
)
from .bayes import train_naive_bayes
from .trees import TreeModel, grow_trees, train_c45, train_random_tree


@dataclass(frozen=True, eq=False)
class EnsembleModel(TrainedModel):
    """rf, bagging or vote: the mean of the members' class distributions."""

    members: tuple[TrainedModel, ...]

    def distribution_batch(self, X: np.ndarray) -> np.ndarray:
        total = np.zeros((X.shape[0], len(self.class_names)), dtype=np.float64)
        for member in self.members:
            total += member.distribution_batch(X)
        total /= len(self.members)
        return total


# The tree variant of the members of a bootstrap ensemble. Model files do not
# store member variants, so the loader reads them from here too.
TREE_MEMBER_VARIANTS = {VARIANT_RANDOM_FOREST: VARIANT_RANDOM_TREE, VARIANT_BAGGING: VARIANT_C45}


def _bootstrap_ensemble(
    variant: str, rounds: int, fraction: float,
    dataset, hp: Hyperparams, rng: Optional[random.Random], identity_bootstrap: bool,
) -> EnsembleModel:
    """`rounds` trees of the variant's member kind, each on its own bootstrap
    sample of size fraction * n drawn with the RNG derived from (token,
    variant, i), which then draws the candidates of a random tree. The token
    is the hyperparameter seed when rng is None, else 64 bits drawn from rng.
    Every sample is drawn first; then all trees grow together."""
    X, y, class_names = dataset_arrays(dataset)
    n = X.shape[0]
    size = max(1, round(fraction * n))
    token = hp.seed if rng is None else rng.getrandbits(64)
    rngs = [derive_rng(token, variant, i) for i in range(rounds)]
    samples = (np.arange(n, dtype=np.intp) if identity_bootstrap else bootstrap_indices(r, n, size) for r in rngs)
    member_variant = TREE_MEMBER_VARIANTS[variant]
    trees = grow_trees(X, y, len(class_names), samples, hp, rngs if member_variant == VARIANT_RANDOM_TREE else None)
    common = {"schema": tuple(dataset.attributes), "class_names": class_names, "hyperparams": hp}
    members = tuple(TreeModel(variant=member_variant, **common, **arrays) for arrays in trees)
    return EnsembleModel(variant=variant, members=members, **common)


def train_random_forest(
    dataset,
    hyperparams: Optional[Hyperparams] = None,
    rng: Optional[random.Random] = None,
    *,
    identity_bootstrap: bool = False,
) -> EnsembleModel:
    """Train forest_trees random trees, each on its own bootstrap sample.

    Member i derives its RNG from (seed, "rf", i); with identity_bootstrap
    the member consumes no draws for sampling, so a forest of one tree
    matches train_random_tree called with that same derived RNG.
    """
    hp = hyperparams or Hyperparams()
    return _bootstrap_ensemble(
        VARIANT_RANDOM_FOREST, hp.forest_trees, 1.0, dataset, hp, rng, identity_bootstrap,
    )


def train_bagging(
    dataset,
    hyperparams: Optional[Hyperparams] = None,
    rng: Optional[random.Random] = None,
    *,
    identity_bootstrap: bool = False,
) -> EnsembleModel:
    """Train bagging_rounds pruned C4.5 trees on bootstrap samples of size
    bag_fraction * n; prediction averages member distributions."""
    hp = hyperparams or Hyperparams()
    return _bootstrap_ensemble(
        VARIANT_BAGGING, hp.bagging_rounds, hp.bag_fraction, dataset, hp, rng, identity_bootstrap,
    )


def train_vote(
    member_specs: Sequence[str],
    dataset,
    hyperparams: Optional[Hyperparams] = None,
) -> EnsembleModel:
    """Train each named member on the same dataset and average their votes.

    Member i of variant v trains with the RNG derived from (seed, "vote", i,
    v). Member errors propagate annotated with the member name. Nested vote
    members are rejected.
    """
    if not member_specs:
        raise ValueError("vote needs at least one member")
    hp = hyperparams or Hyperparams()
    members: list[TrainedModel] = []
    for i, spec in enumerate(member_specs):
        try:
            if spec not in _TRAINERS:
                raise ValueError(f"unknown or unsupported member variant {spec!r}")
            members.append(_TRAINERS[spec](dataset, hp, derive_rng(hp.seed, "vote", i, spec)))
        except DevfpError as exc:
            exc.args = (f"vote member {spec!r}: {exc}",)
            raise
        except ValueError as exc:
            raise ValueError(f"vote member {spec!r}: {exc}") from exc
    first = members[0]
    return EnsembleModel(
        schema=first.schema,
        class_names=first.class_names,
        hyperparams=hp,
        variant=VARIANT_VOTE,
        members=tuple(members),
    )


# variant -> trainer(dataset, hyperparams, rng); j48 and nb draw no randomness
_TRAINERS: dict[str, Callable[..., TrainedModel]] = {
    VARIANT_C45: lambda dataset, hp, rng: train_c45(dataset, hp),
    VARIANT_RANDOM_TREE: train_random_tree,
    VARIANT_RANDOM_FOREST: train_random_forest,
    VARIANT_NAIVE_BAYES: lambda dataset, hp, rng: train_naive_bayes(dataset, hp),
    VARIANT_BAGGING: train_bagging,
}


def train_model(dataset, spec: ModelSpec) -> TrainedModel:
    """Train the classifier named by a ModelSpec on a dataset."""
    if spec.variant == VARIANT_VOTE:
        return train_vote(spec.vote_members, dataset, spec.hyperparams)
    return _TRAINERS[spec.variant](dataset, spec.hyperparams, None)
