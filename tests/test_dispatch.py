"""Outputs that do not depend on the SIMD kernels numpy dispatches.

numpy picks its SIMD kernels at import time, and NPY_DISABLE_CPU_FEATURES
turns the newer ones off. Split search takes its logarithms from a table
built with `math.log2`, and naive Bayes its exponentials from `math.exp`, so
a child process running at a lowered SIMD level must write the same model
bytes and naive Bayes distribution bits as this process. The setting names
numpy 2's feature groups (numpy 2 silently ignores older names such as
AVX512F); on a host without them it disables nothing, and the test skips.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from devfp.classifiers import Hyperparams, ModelSpec, save_model, train_model
from devfp.features import CANONICAL_ATTRIBUTES
from tables import make_dataset

TESTS = Path(__file__).resolve().parent
LOWERED = "X86_V4 AVX512_ICL AVX512_SPR"


def enabled_features() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, on in __cpu_features__.items() if on)


def overlapping_dataset():
    """300 rows of four classes whose Gaussian columns overlap, a tenth of
    the cells Absent, so that naive Bayes posteriors are far from 0 and 1."""
    rng = random.Random(1)
    names = [rng.choice("ABCD") for _ in range(300)]
    columns = {
        attribute: [None if rng.random() < 0.1 else round(rng.gauss("ABCD".index(name) / 2, 1 + j % 3), 2)
                    for name in names]
        for j, attribute in enumerate(CANONICAL_ATTRIBUTES)
    }
    return make_dataset(columns, names)


def outputs() -> dict:
    """sha256 of the j48, rf and nb models of an overlapping dataset and of
    the nb distribution bits of its rows, with the enabled features."""
    dataset = overlapping_dataset()
    found = {"features": enabled_features()}
    for variant in ("j48", "rf", "nb"):
        model = train_model(dataset, ModelSpec(variant, Hyperparams(forest_trees=20)))
        found[variant] = hashlib.sha256(save_model(model).encode()).hexdigest()
    found["nb distributions"] = hashlib.sha256(model.distribution_batch(dataset.matrix()).tobytes()).hexdigest()
    return found


def test_lowered_simd_level_writes_the_same_bits():
    if not set(LOWERED.split()) & set(enabled_features()):
        pytest.skip(f"none of {LOWERED} is enabled here, so the setting disables nothing")
    here = outputs()
    src = str(TESTS.parent / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=LOWERED, PYTHONPATH=os.pathsep.join((src, str(TESTS))))
    script = "import json, test_dispatch; print(json.dumps(test_dispatch.outputs()))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stderr
    lowered = json.loads(result.stdout)
    assert not set(LOWERED.split()) & set(lowered.pop("features")), "the setting took no effect"
    del here["features"]
    assert lowered == here
