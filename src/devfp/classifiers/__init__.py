"""Six supervised classifiers behind one training and batch-prediction contract."""

from .base import (
    ALL_VARIANTS,
    Hyperparams,
    ModelSpec,
    TrainedModel,
    derive_rng,
)
from .bayes import NaiveBayesModel, train_naive_bayes
from .ensembles import (
    EnsembleModel,
    train_bagging,
    train_model,
    train_random_forest,
    train_vote,
)
from .persist import load_model, save_model
from .trees import TreeModel, train_c45, train_random_tree

__all__ = [
    "ALL_VARIANTS",
    "Hyperparams",
    "ModelSpec",
    "TrainedModel",
    "derive_rng",
    "NaiveBayesModel",
    "train_naive_bayes",
    "EnsembleModel",
    "train_bagging",
    "train_random_forest",
    "train_vote",
    "load_model",
    "save_model",
    "TreeModel",
    "train_c45",
    "train_random_tree",
    "train_model",
]

