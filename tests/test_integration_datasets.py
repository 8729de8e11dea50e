"""Dataset-scale checks against the published figures (criteria 9-12).

These need the public captures, which are not bundled. Point the environment
variables below at canonical 10-column CSVs produced by `devfp extract` (see
README, "Reproducing the published experiments"):

    DEVFP_IOT_SENTINEL_CSV   31 IoT devices, device names in the class column
    DEVFP_UNSW_NONIOT_CSV    7 non-IoT devices from the UNSW captures
    DEVFP_LAB_CSV            any additional non-IoT capture of your own
                             (the original lab dataset is unpublished)

Each test skips when its inputs are absent. Tolerances are wide because the
published numbers depend on split randomness.
"""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tables import ablation_report

from devfp.classifiers import ModelSpec
from devfp.evaluation import SplitSpec
from devfp.features import TYPE_IOT, TYPE_NON_IOT, Dataset, read_csv

SEED = 1


def _load(env_var: str) -> Dataset:
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"set {env_var} to a devfp-extracted CSV to run this check")
    if not Path(path).is_file():
        pytest.skip(f"{env_var}={path} does not exist")
    return read_csv(Path(path).read_text(encoding="utf-8"))


def _with_type(dataset: Dataset, device_type: str) -> Dataset:
    return replace(dataset, labels=np.full(len(dataset), device_type, dtype=object))


def _info(criterion: int, ok: bool, description: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, description


class TestCriterion9IotSentinelJ48:
    def test_combined_accuracy_near_published(self):
        dataset = _load("DEVFP_IOT_SENTINEL_CSV")
        report = ablation_report(dataset, "combined", ModelSpec("j48"), SplitSpec(seed=SEED))
        ok = abs(report.acc - 0.91143) <= 0.03
        _info(9, ok, f"IoT Sentinel J48 combined ACC {report.acc:.4f} within 3pp of 0.91143")

    def test_network_only_materially_worse(self):
        dataset = _load("DEVFP_IOT_SENTINEL_CSV")
        report = ablation_report(dataset, "network", ModelSpec("j48"), SplitSpec(seed=SEED))
        _info(9, report.acc < 0.60, f"IoT Sentinel J48 network-only ACC {report.acc:.4f} < 0.60")

    def test_row_count_matches_published_table(self):
        dataset = _load("DEVFP_IOT_SENTINEL_CSV")
        _info(9, len(dataset.rows) == 102_240, f"IoT Sentinel row count {len(dataset.rows)} == 102240")


class TestCriterion10UnswJ48:
    def test_combined_accuracy(self):
        dataset = _load("DEVFP_UNSW_NONIOT_CSV")
        report = ablation_report(dataset, "combined", ModelSpec("j48"), SplitSpec(seed=SEED))
        _info(10, report.acc >= 0.96, f"UNSW non-IoT J48 combined ACC {report.acc:.4f} >= 0.96")

    def test_transport_beats_network(self):
        dataset = _load("DEVFP_UNSW_NONIOT_CSV")
        transport = ablation_report(dataset, "transport", ModelSpec("j48"), SplitSpec(seed=SEED))
        network = ablation_report(dataset, "network", ModelSpec("j48"), SplitSpec(seed=SEED))
        _info(
            10,
            transport.acc > network.acc,
            f"UNSW transport ACC {transport.acc:.4f} > network ACC {network.acc:.4f}",
        )


class TestCriterion11DeviceType:
    def _combined_type_dataset(self) -> Dataset:
        sentinel = _load("DEVFP_IOT_SENTINEL_CSV")
        unsw = _load("DEVFP_UNSW_NONIOT_CSV")
        return Dataset.concat([_with_type(sentinel, TYPE_IOT), _with_type(unsw, TYPE_NON_IOT)])

    def test_rf_macro_precision_and_nb_ordering(self):
        dataset = self._combined_type_dataset()
        rf = ablation_report(dataset, "combined", ModelSpec("rf"), SplitSpec(seed=SEED))
        nb = ablation_report(dataset, "combined", ModelSpec("nb"), SplitSpec(seed=SEED))
        _info(11, rf.macro_pre >= 0.97, f"device-type RF macro precision {rf.macro_pre:.4f} >= 0.97")
        _info(11, nb.macro_pre < rf.macro_pre, f"NB {nb.macro_pre:.4f} strictly below RF {rf.macro_pre:.4f}")


class TestCriterion12ClassifierOrdering:
    def test_rf_best_nb_worst_on_individual_devices(self):
        sentinel = _load("DEVFP_IOT_SENTINEL_CSV")
        lab = _load("DEVFP_LAB_CSV")
        dataset = Dataset.concat([sentinel, lab])
        scores = {}
        for variant in ("j48", "rf", "rt", "nb", "bagging", "vote"):
            report = ablation_report(dataset, "combined", ModelSpec(variant), SplitSpec(seed=SEED))
            scores[variant] = report.macro_pre
            print(f"  {variant}: macro precision {report.macro_pre:.4f}")
        others = {k: v for k, v in scores.items() if k != "rf"}
        _info(12, all(scores["rf"] > v for v in others.values()), f"RF highest: {scores}")
        _info(12, min(scores, key=scores.get) == "nb", f"NB lowest: {scores}")
