"""Gaussian naive Bayes over numeric attributes with principled missing values.

Each (class, attribute) pair gets a Gaussian fit on the present training
values only, with the standard deviation floored so that constant attributes
keep a finite density. Priors are raw class frequencies, which keeps the
posterior invariant under duplicating the whole training set. Absent query
attributes are skipped; a class that never exhibited a present query
attribute is assigned a fixed tiny density, heavily penalizing it without
producing NaNs. A present cell that is +inf or -inf has no density and
raises ValueError naming its column. Prediction broadcasts over all rows
of a batch, one attribute at a time, with `math`'s log and exp, whose bits
do not depend on numpy's SIMD level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import TrainedModel, VARIANT_NAIVE_BAYES

_LOG_MIN_DENSITY = math.log(1e-300)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# the least stddev of a fitted Gaussian, a variance of 1e-9
_STD_FLOOR = math.sqrt(1e-9)


@dataclass(frozen=True, eq=False)
class NaiveBayesModel(TrainedModel):
    priors: np.ndarray  # [class]
    # [class, attribute]; NaN where the class had no present training values
    means: np.ndarray
    stddevs: np.ndarray
    variant: str = field(init=False, default=VARIANT_NAIVE_BAYES)

    def __post_init__(self) -> None:
        super().__post_init__()
        grid = (len(self.class_names), len(self.schema))
        if not (
            self.priors.shape == grid[:1]
            and self.means.shape == self.stddevs.shape == grid
            and np.all(self.priors > 0)
            and np.array_equal(np.isnan(self.means), np.isnan(self.stddevs))
            and np.all(self.stddevs[~np.isnan(self.stddevs)] > 0)
        ):
            raise ValueError(
                f"malformed naive Bayes: need {grid[0]} positive priors, {grid} means and stddevs,"
                " and a positive stddev exactly where the mean is not NaN (null in a model file)"
            )

    def distribution_batch(self, X: np.ndarray) -> np.ndarray:
        infinite = np.isinf(X).any(axis=0)
        if infinite.any():
            name = self.schema[int(np.argmax(infinite))]
            raise ValueError(f"column {name!r} holds an infinite value; naive Bayes reads finite or Absent cells")
        log_post = np.tile([math.log(p) for p in self.priors], (X.shape[0], 1))
        for j in range(X.shape[1]):
            present = ~np.isnan(X[:, j])
            mean = self.means[:, j]
            log_norm = np.array([-_LOG_SQRT_TWO_PI - math.log(s) for s in self.stddevs[:, j]])
            z = (X[present, j][:, None] - mean) / self.stddevs[:, j]
            log_post[present] += np.where(np.isnan(mean), _LOG_MIN_DENSITY, log_norm - 0.5 * z * z)
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.fromiter(map(math.exp, log_post.ravel().tolist()), float, log_post.size).reshape(log_post.shape)
        return post / post.sum(axis=1, keepdims=True)


def fit_naive_bayes(X: np.ndarray, y: np.ndarray, n_classes: int) -> dict:
    """NaiveBayesModel arrays of per-class Gaussians (present values of X
    only) and frequency priors, for class codes y."""
    n, k = X.shape
    priors = np.empty(n_classes)
    means = np.full((n_classes, k), np.nan)
    stddevs = np.full((n_classes, k), np.nan)
    for c in range(n_classes):
        rows = X[y == c]
        priors[c] = rows.shape[0] / n
        for j in range(k):
            column = rows[:, j]
            present = column[~np.isnan(column)]
            if present.shape[0] > 0:
                means[c, j] = present.mean()
                stddevs[c, j] = max(float(present.std()), _STD_FLOOR)
    return {"priors": priors, "means": means, "stddevs": stddevs}
