"""Stratified splitting, confusion matrices, and TPR/PRE/ACC reporting.

Per-class metrics are one-vs-rest: TPR = TP / (TP + FN) and
PRE = TP / (TP + FP), with 0/0 reported as 0 and flagged undefined rather
than silently dropped (small per-device test sets make empty columns
likely). Overall accuracy is the confusion-matrix trace over the total.
Macro averages are unweighted means over the classes whose value is
defined; the support-weighted precision is also reported since published
"average precision" figures do not always say which convention they use.
A report is plain data: per-class metrics keyed by class name in the
confusion matrix's order, the aggregates, the matrix itself and the run's
seed, model and feature set.

Everything here works on immutable inputs, so independent (model, split)
pairs can be evaluated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix: rows are actual classes, columns predicted."""

    class_names: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.class_names)))


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
    index = {name: i for i, name in enumerate(names)}
    counts = [[0] * len(names) for _ in names]
    # model classes come first in `names`, so a class index is its column
    predicted = np.argmax(model.distribution_batch(test.matrix()), axis=1)
    for actual, column in zip(test.labels.tolist(), predicted.tolist()):
        counts[index[actual]][column] += 1
    return ConfusionMatrix(class_names=names, counts=tuple(tuple(r) for r in counts))


@dataclass(frozen=True)
class ClassMetrics:
    tpr: float
    precision: float
    support: int
    tpr_defined: bool
    precision_defined: bool


@dataclass(frozen=True)
class RunMetadata:
    seed: int
    model: str
    feature_set: str


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, ClassMetrics]  # in the confusion matrix's class order
    acc: float
    macro_tpr: float
    macro_pre: float
    weighted_pre: float
    confusion: ConfusionMatrix
    metadata: RunMetadata


def metrics(matrix: ConfusionMatrix, metadata: RunMetadata) -> EvalReport:
    """Per-class and aggregate TPR/PRE/ACC for a confusion matrix."""
    n = len(matrix.class_names)
    total = matrix.total
    if total == 0:
        raise EmptyMatrix("confusion matrix has no counts")
    per_class: dict[str, ClassMetrics] = {}
    defined_tprs = []
    defined_pres = []
    weighted_pre_sum = 0.0
    for c, name in enumerate(matrix.class_names):
        tp = matrix.counts[c][c]
        row_sum = sum(matrix.counts[c])
        col_sum = sum(matrix.counts[r][c] for r in range(n))
        fn = row_sum - tp
        fp = col_sum - tp
        tpr_defined = (tp + fn) > 0
        pre_defined = (tp + fp) > 0
        tpr = tp / (tp + fn) if tpr_defined else 0.0
        pre = tp / (tp + fp) if pre_defined else 0.0
        per_class[name] = ClassMetrics(
            tpr=tpr,
            precision=pre,
            support=row_sum,
            tpr_defined=tpr_defined,
            precision_defined=pre_defined,
        )
        if tpr_defined:
            defined_tprs.append(tpr)
        if pre_defined:
            defined_pres.append(pre)
        weighted_pre_sum += row_sum * pre
    return EvalReport(
        per_class=per_class,
        acc=matrix.trace / total,
        macro_tpr=sum(defined_tprs) / len(defined_tprs) if defined_tprs else 0.0,
        macro_pre=sum(defined_pres) / len(defined_pres) if defined_pres else 0.0,
        weighted_pre=weighted_pre_sum / total,
        confusion=matrix,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Report rendering


def report_classes_csv(report: EvalReport) -> str:
    """Machine-readable per-class metrics: class,tpr,precision,support."""
    lines = ["class,tpr,precision,support"]
    for name, m in report.per_class.items():
        lines.append(f"{name},{m.tpr:.12g},{m.precision:.12g},{m.support}")
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
    name_width = max(len(name) for name in ("class", *report.per_class))
    lines = [
        f"evaluation report (model={md.model}, features={md.feature_set}, seed={md.seed})",
        f"accuracy {report.acc:.4f}   macro TPR {report.macro_tpr:.4f}   "
        f"macro PRE {report.macro_pre:.4f}   weighted PRE {report.weighted_pre:.4f}",
        f"{'class':<{name_width}}  {'tpr':>8}  {'precision':>9}  {'support':>7}",
    ]
    for name, m in report.per_class.items():
        tpr = f"{m.tpr:.4f}" + ("" if m.tpr_defined else "*")
        pre = f"{m.precision:.4f}" + ("" if m.precision_defined else "*")
        lines.append(f"{name:<{name_width}}  {tpr:>8}  {pre:>9}  {m.support:>7}")
    if not all(m.tpr_defined and m.precision_defined for m in report.per_class.values()):
        lines.append("* undefined (0/0), reported as 0")
    return "\n".join(lines) + "\n"
