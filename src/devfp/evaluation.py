"""Stratified splitting, confusion matrices, and TPR/PRE/ACC reporting.

Per-class metrics are one-vs-rest: TPR = TP / (TP + FN) and
PRE = TP / (TP + FP), with 0/0 reported as 0 and flagged undefined rather
than silently dropped (small per-device test sets make empty columns
likely). Overall accuracy is the confusion-matrix trace over the total.
Macro averages are unweighted means over the classes whose value is
defined; the support-weighted precision is also reported since published
"average precision" figures do not always say which convention they use.
All three add left to right, the same bits on every Python version.

A confusion matrix is its class names and an int64 n x n count array,
rows actual and columns predicted. A report holds each per-class figure
as a length-n array in the matrix's order (float64 tpr and precision,
int64 support, bool tpr_defined and precision_defined), the aggregates,
the matrix itself and the run's seed, model and feature set.

Everything here works on immutable inputs, so independent (model, split)
pairs can be evaluated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .classifiers import TrainedModel, derive_rng
from .errors import ClassTooSmall, EmptyDataset, EmptyMatrix, SchemaMismatch
from .features import CANONICAL_ATTRIBUTES, Dataset

# the paper's three feature sets: the canonical schema lists the transport
# attributes first, then the network ones
FEATURE_SETS = {
    "network": CANONICAL_ATTRIBUTES[6:],
    "transport": CANONICAL_ATTRIBUTES[:6],
    "combined": CANONICAL_ATTRIBUTES,
}


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 1
    stratified: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


def _train_count(fraction: float, size: int) -> int:
    # round half up, then keep at least one row on each side
    count = int(fraction * size + 0.5)
    return max(1, min(count, size - 1))


def stratified_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic seeded train/test split, per-class when stratified.

    Every class keeps at least one row on each side, so class proportions
    are preserved within one row per class. The same seed always yields the
    same partition.
    """
    if None in dataset.labels:
        raise ValueError("splitting requires every row to be labeled")
    if len(dataset) < 2:
        raise EmptyDataset("splitting needs at least 2 rows")
    rng = derive_rng(spec.seed, "split")
    if spec.stratified:
        codes = dataset.class_codes()
        groups = {
            name: np.flatnonzero(codes == c).tolist() for c, name in enumerate(dataset.class_names)
        }
    else:
        groups = {None: list(range(len(dataset)))}
    train_index: list[int] = []
    test_index: list[int] = []
    for name, indices in groups.items():
        if spec.stratified and len(indices) < 2:
            raise ClassTooSmall(f"class {name!r} has {len(indices)} row(s); stratified split needs >= 2")
        rng.shuffle(indices)
        cut = _train_count(spec.train_fraction, len(indices))
        train_index += indices[:cut]
        test_index += indices[cut:]
    return dataset.take(train_index), dataset.take(test_index)


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Square int64 count array: rows are actual classes, columns predicted."""

    class_names: tuple[str, ...]
    counts: np.ndarray


def evaluate(model: TrainedModel, test: Dataset) -> ConfusionMatrix:
    """Predict every test row and tally (actual, predicted) pairs.

    The matrix covers the model's classes plus any extra labels appearing
    only in the test set, so its total always equals the test size.
    """
    if tuple(test.attributes) != tuple(model.schema):
        raise SchemaMismatch(
            f"test schema {tuple(test.attributes)} != model schema {tuple(model.schema)}"
        )
    if len(test) == 0:
        raise EmptyDataset("evaluation needs a non-empty test set")
    if None in test.labels:
        raise ValueError("evaluation requires every test row to be labeled")
    extra = sorted(set(test.class_names) - set(model.class_names))
    names = tuple(model.class_names) + tuple(extra)
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    actual = np.array([index[name] for name in test.class_names])[test.class_codes()]
    # model classes come first in `names`, so a class index is its column
    predicted = np.argmax(model.distribution_batch(test.matrix()), axis=1)
    counts = np.bincount(actual * n + predicted, minlength=n * n).reshape(n, n)
    return ConfusionMatrix(class_names=names, counts=counts.astype(np.int64, copy=False))


@dataclass(frozen=True)
class RunMetadata:
    seed: int
    model: str
    feature_set: str


@dataclass(frozen=True, eq=False)
class EvalReport:
    tpr: np.ndarray
    precision: np.ndarray
    support: np.ndarray
    tpr_defined: np.ndarray
    precision_defined: np.ndarray
    acc: float
    macro_tpr: float
    macro_pre: float
    weighted_pre: float
    confusion: ConfusionMatrix
    metadata: RunMetadata


def _sum(values: list[float]) -> float:
    # left to right: the built-in sum() is compensated from Python 3.12
    return reduce(add, values, 0.0)


def _mean(values: list[float]) -> float:
    return _sum(values) / len(values) if values else 0.0


def metrics(matrix: ConfusionMatrix, metadata: RunMetadata) -> EvalReport:
    """Per-class and aggregate TPR/PRE/ACC for a confusion matrix."""
    counts = matrix.counts
    total = int(counts.sum())
    if total == 0:
        raise EmptyMatrix("confusion matrix has no counts")
    tp = np.diagonal(counts)
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    tpr_defined = support > 0
    precision_defined = predicted > 0
    # one float64 division of two exact integers, as Python's int / int
    tpr = np.divide(tp, support, out=np.zeros(len(tp)), where=tpr_defined)
    precision = np.divide(tp, predicted, out=np.zeros(len(tp)), where=precision_defined)
    return EvalReport(
        tpr=tpr,
        precision=precision,
        support=support,
        tpr_defined=tpr_defined,
        precision_defined=precision_defined,
        acc=int(tp.sum()) / total,
        macro_tpr=_mean(tpr[tpr_defined].tolist()),
        macro_pre=_mean(precision[precision_defined].tolist()),
        weighted_pre=_sum((support * precision).tolist()) / total,
        confusion=matrix,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Report rendering


def report_classes_csv(report: EvalReport) -> str:
    """Machine-readable per-class metrics: class,tpr,precision,support."""
    lines = ["class,tpr,precision,support"]
    columns = (report.tpr, report.precision, report.support)
    for name, tpr, pre, support in zip(report.confusion.class_names, *(c.tolist() for c in columns)):
        lines.append(f"{name},{tpr:.12g},{pre:.12g},{support}")
    return "\n".join(lines) + "\n"


def report_summary_line(report: EvalReport) -> str:
    """One line: acc,macro_tpr,macro_pre,seed,model,feature_set."""
    md = report.metadata
    return (
        f"{report.acc:.12g},{report.macro_tpr:.12g},{report.macro_pre:.12g},"
        f"{md.seed},{md.model},{md.feature_set}"
    )


def report_text(report: EvalReport) -> str:
    """Human-readable report table."""
    md = report.metadata
    names = report.confusion.class_names
    name_width = max(len(name) for name in ("class", *names))
    lines = [
        f"evaluation report (model={md.model}, features={md.feature_set}, seed={md.seed})",
        f"accuracy {report.acc:.4f}   macro TPR {report.macro_tpr:.4f}   "
        f"macro PRE {report.macro_pre:.4f}   weighted PRE {report.weighted_pre:.4f}",
        f"{'class':<{name_width}}  {'tpr':>8}  {'precision':>9}  {'support':>7}",
    ]
    columns = (report.tpr, report.precision, report.tpr_defined, report.precision_defined, report.support)
    for name, tpr, pre, tpr_ok, pre_ok, support in zip(names, *(c.tolist() for c in columns)):
        tpr = f"{tpr:.4f}" + ("" if tpr_ok else "*")
        pre = f"{pre:.4f}" + ("" if pre_ok else "*")
        lines.append(f"{name:<{name_width}}  {tpr:>8}  {pre:>9}  {support:>7}")
    if not (report.tpr_defined.all() and report.precision_defined.all()):
        lines.append("* undefined (0/0), reported as 0")
    return "\n".join(lines) + "\n"
