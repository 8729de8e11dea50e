"""Six supervised classifiers behind one training and batch-prediction contract.

`train_model(dataset, ModelSpec)` is the one way to train a classifier.
"""

from .base import (
    ALL_VARIANTS,
    Hyperparams,
    ModelSpec,
    TrainedModel,
    derive_rng,
)
from .bayes import NaiveBayesModel
from .ensembles import EnsembleModel, train_model
from .persist import load_model, save_model
from .trees import TreeModel

__all__ = [
    "ALL_VARIANTS",
    "Hyperparams",
    "ModelSpec",
    "TrainedModel",
    "derive_rng",
    "NaiveBayesModel",
    "EnsembleModel",
    "load_model",
    "save_model",
    "TreeModel",
    "train_model",
]
