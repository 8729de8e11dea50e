"""Small Datasets built by column, and a field-by-field Dataset comparison."""

import numpy as np

from devfp.features import CANONICAL_ATTRIBUTES, Dataset


def labels(values) -> np.ndarray:
    return np.array(list(values), dtype=object)


def vectors_dataset(vectors, names=None, **fields) -> Dataset:
    """A Dataset with one row per FeatureVector (None = Absent) and optional
    device names; `fields` pass on to Dataset (device_type, src_mac, ...)."""
    rows = np.array(vectors, dtype=np.float64).reshape(len(vectors), len(CANONICAL_ATTRIBUTES))
    return Dataset(rows, device_name=None if names is None else labels(names), **fields)


def make_dataset(columns: dict, names, attributes=None, **fields) -> Dataset:
    """A Dataset from value lists keyed by canonical attribute name (None =
    Absent; unlisted attributes all Absent). The schema is `attributes`,
    by default the keys of `columns` in order."""
    rows = np.full((len(names), len(CANONICAL_ATTRIBUTES)), np.nan)
    for name, values in columns.items():
        rows[:, CANONICAL_ATTRIBUTES.index(name)] = np.array(values, dtype=np.float64)
    return Dataset(
        rows, device_name=labels(names), attributes=tuple(attributes or columns), **fields
    )


def same_dataset(a: Dataset, b: Dataset) -> bool:
    """Equal schema, target, feature cells (NaN equal to NaN) and label columns."""
    return (
        a.attributes == b.attributes
        and a.class_attribute == b.class_attribute
        and np.array_equal(a.rows, b.rows, equal_nan=True)
        and all(
            np.array_equal(getattr(a, column), getattr(b, column))
            for column in ("device_name", "device_type", "src_mac")
        )
    )
