"""Small Datasets built by column, a field-by-field Dataset comparison, row
predictions through distribution_batch, lone columns scored through
split_segments, and one train-eval cell of the paper's experiment grid."""

import math
from typing import NamedTuple, Optional

import numpy as np

from devfp.classifiers import ModelSpec, train_model
from devfp.evaluation import (
    FEATURE_SETS,
    EvalReport,
    RunMetadata,
    SplitSpec,
    evaluate,
    metrics,
    stratified_split,
)
from devfp.features import CANONICAL_ATTRIBUTES, Dataset
from devfp.selection import gain_ratios, split_segments, value_codes, xlog2x_table


def labels(values) -> np.ndarray:
    return np.array(list(values), dtype=object)


def vectors_dataset(vectors, names=None, **fields) -> Dataset:
    """A Dataset of nine-value canonical rows (None = Absent) with optional
    labels (default all None); `fields` pass on to Dataset (attributes)."""
    rows = np.array(vectors, dtype=np.float64).reshape(len(vectors), len(CANONICAL_ATTRIBUTES))
    return Dataset(rows, labels([None] * len(rows) if names is None else names), **fields)


def make_dataset(columns: dict, names, attributes=None, **fields) -> Dataset:
    """A Dataset from value lists keyed by canonical attribute name (None =
    Absent; unlisted attributes all Absent). The schema is `attributes`,
    by default the keys of `columns` in order."""
    rows = np.full((len(names), len(CANONICAL_ATTRIBUTES)), np.nan)
    for name, values in columns.items():
        rows[:, CANONICAL_ATTRIBUTES.index(name)] = np.array(values, dtype=np.float64)
    return Dataset(
        rows, labels(names), attributes=tuple(attributes or columns), **fields
    )


def same_dataset(a: Dataset, b: Dataset) -> bool:
    """Equal schema, feature cells (NaN equal to NaN) and labels."""
    return (
        a.attributes == b.attributes
        and np.array_equal(a.rows, b.rows, equal_nan=True)
        and np.array_equal(a.labels, b.labels)
    )


def schema_rows(rows, schema) -> np.ndarray:
    """Nine-value canonical rows (None = Absent) as the float64 matrix of the
    `schema` columns; SchemaMismatch names an attribute that is not canonical."""
    return vectors_dataset(rows).matrix(schema)


def predictions(model, rows) -> list:
    """The most probable class name of each canonical row (ties to the lower
    class index), from one distribution_batch call."""
    dist = model.distribution_batch(schema_rows(rows, model.schema))
    return [model.class_names[c] for c in np.argmax(dist, axis=1).tolist()]


class ColumnScore(NamedTuple):
    """The gain-ratio score of one lone column, with its best split."""

    gain_ratio: float
    info_gain: float  # scaled by present_fraction
    threshold: Optional[float]  # of the best split of the present cells; None if there is none
    split_info: float
    present_fraction: float


def column_scores(columns, label_lists) -> list[ColumnScore]:
    """The score of each column (None = Absent) against its own list of
    labels, every column one segment of a single split_segments call: a
    frontier node of its cells, each of weight 1, with one candidate column.
    Labels are coded by their sorted order over all the lists."""
    names = sorted({label for column_labels in label_lists for label in column_labels})
    code = {name: c for c, name in enumerate(names)}
    sizes = np.array([len(column) for column in columns])
    cells = np.array([v for column in columns for v in column], dtype=np.float64)  # None becomes NaN
    y = np.array([code[label] for column_labels in label_lists for label in column_labels], dtype=np.intp)
    codes, values = value_codes(cells[:, None])
    n = len(cells)
    splits = split_segments(
        codes, values, np.arange(n), y, np.ones(n, dtype=np.int64), sizes, np.zeros((len(columns), 1), dtype=np.intp),
        len(names), xlog2x_table(sizes.max()),
    )
    ratio, gain = gain_ratios(splits, sizes)
    return [
        ColumnScore(r, g, None if math.isnan(t) else t, si, present_fraction)
        for r, g, t, si, present_fraction in zip(
            ratio.tolist(), gain.tolist(), splits.threshold.tolist(), splits.split_info.tolist(),
            (splits.n_present / sizes).tolist(),
        )
    ]


def ablation_report(
    dataset: Dataset, feature_set: str, spec: ModelSpec, split: Optional[SplitSpec] = None
) -> EvalReport:
    """One cell of the paper's grid, as `devfp train-eval` runs it: project to
    a feature set, split (by default seeded with the model's seed), train,
    evaluate and score."""
    split = split or SplitSpec(seed=spec.hyperparams.seed)
    train, test = stratified_split(dataset.project(FEATURE_SETS[feature_set]), split)
    return metrics(
        evaluate(train_model(train, spec), test),
        RunMetadata(seed=split.seed, model=spec.variant, feature_set=feature_set),
    )
