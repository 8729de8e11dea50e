"""Shared classifier machinery: hyperparameters and the model contract.

All six classifier variants sit behind one contract. `train_model(dataset,
ModelSpec)` (in `ensembles`) is the one way to train any of them: a trained
model holds the attribute schema and the ordered class names fixed at
training time, and produces a probability distribution over those classes
for any row of feature values that matches the schema. It is one of three
classes, its `variant` naming the algorithm: `trees.TreeModel` (j48, rt,
rf and bagging, every tree in one set of columns), `bayes.NaiveBayesModel`
(nb) or `ensembles.EnsembleModel` (vote). Prediction has one
path, `distribution_batch(X)`: X is a float64 n x k matrix of rows aligned
to the schema (k attributes), with NaN marking Absent cells, and the result
is an n x C float64 matrix of class distributions (C classes, each row sums
to 1). Row i holds the same bits whatever the other rows are. The per-row
`distribution(values)`, a one-row call to it, is kept only for the
benchmark's layer tracer, which replaces it on every model it traces.
Trained models are immutable and safe for concurrent prediction.

Determinism: all randomness is drawn from `random.Random` instances seeded
with strings derived from (seed, role, member index) by `derive_rng`, so
identical inputs give identical models on any platform, and ensemble
members could be trained in parallel without changing the result. The keys
are listed in `ensembles`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence, get_type_hints

import numpy as np


VARIANT_C45 = "j48"
VARIANT_RANDOM_TREE = "rt"
VARIANT_RANDOM_FOREST = "rf"
VARIANT_NAIVE_BAYES = "nb"
VARIANT_BAGGING = "bagging"
VARIANT_VOTE = "vote"

ALL_VARIANTS = (
    VARIANT_C45,
    VARIANT_RANDOM_FOREST,
    VARIANT_RANDOM_TREE,
    VARIANT_NAIVE_BAYES,
    VARIANT_BAGGING,
    VARIANT_VOTE,
)


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs with the benchmark-tool defaults, each set by a flag of
    train-eval and pipeline. A field of another type than its annotation
    raises TypeError, an out-of-range value ValueError.

    Three settings are constants: a random tree searches floor(log2(k)) + 1
    candidates of its k attributes (`trees`) and an rf or bagging tree grows
    on a bootstrap sample as large as the training set (`ensembles`), both
    Weka's defaults, and naive Bayes floors each stddev at sqrt(1e-9)
    (`bayes`).
    """

    seed: int = 1
    forest_trees: int = 100
    bagging_rounds: int = 10
    c45_min_leaf: int = 2
    c45_confidence: float = 0.25
    c45_prune: bool = True

    def __post_init__(self) -> None:
        for name, kind in _HYPERPARAM_TYPES.items():
            if type(getattr(self, name)) is not kind:
                raise TypeError(f"{name} must be of type {kind.__name__}")
        if self.forest_trees < 1 or self.bagging_rounds < 1 or self.c45_min_leaf < 1:
            raise ValueError("counts must be >= 1")
        if not 0.0 < self.c45_confidence <= 0.5:
            raise ValueError("c45_confidence must be in (0, 0.5]")


# The type each Hyperparams field takes exactly, read from its annotation: no
# bool where an int belongs and no int where a float belongs, as a command
# line builds them.
_HYPERPARAM_TYPES = get_type_hints(Hyperparams)


@dataclass(frozen=True)
class ModelSpec:
    """Which classifier to train, with what knobs."""

    variant: str
    hyperparams: Hyperparams = Hyperparams()
    vote_members: tuple[str, ...] = (VARIANT_C45, VARIANT_BAGGING)

    def __post_init__(self) -> None:
        if self.variant not in ALL_VARIANTS:
            raise ValueError(f"unknown classifier variant {self.variant!r}")


def derive_rng(*parts: object) -> random.Random:
    """Deterministic RNG keyed by a tuple of tags (platform independent)."""
    return random.Random("|".join(str(p) for p in parts))


def bootstrap_indices(rng: random.Random, n: int) -> np.ndarray:
    """n row indices drawn from range(n) with replacement: the indices of
    `[rng.randrange(n) for _ in range(n)]`, leaving rng in the same state.

    This relies on n < 2**32: randrange(n) then takes one 32-bit word w per
    try, keeps w >> (32 - n.bit_length()) and tries again while that is >= n.
    getrandbits(32 * count) is count such words, in draw order from the
    least significant end, so the words are drawn in bulk and only the
    shortfall is drawn again.
    """
    shift = 32 - n.bit_length()
    drawn = [np.zeros(0, dtype=np.uint32)]
    missing = n
    while missing:
        words = np.frombuffer(rng.getrandbits(32 * missing).to_bytes(4 * missing, "little"), dtype="<u4")
        tries = words >> shift
        drawn.append(tries[tries < n])
        missing -= len(drawn[-1])
    return np.concatenate(drawn).astype(np.intp)


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Base of all trained classifiers: schema + ordered class names, each
    distinct strings, and the variant naming the algorithm that trained it."""

    schema: tuple[str, ...]
    class_names: tuple[str, ...]
    hyperparams: Hyperparams
    variant: str

    def __post_init__(self) -> None:
        for key in ("schema", "class_names"):
            names = getattr(self, key)
            if not (all(type(name) is str for name in names) and len(set(names)) == len(names)):
                raise ValueError(f"{key} must hold distinct strings")

    def distribution_batch(self, X: np.ndarray) -> np.ndarray:
        """Class distributions (n x C) for schema-aligned rows X (n x k, NaN = Absent)."""
        raise NotImplementedError

    def distribution(self, values: Sequence[Optional[float]]) -> np.ndarray:
        """Class distribution for schema-aligned feature values (None = Absent)."""
        row = [math.nan if v is None else v for v in values]
        return self.distribution_batch(np.array([row], dtype=np.float64))[0]
