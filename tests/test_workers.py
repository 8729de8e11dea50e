"""Forests grown by forked workers.

`trees.grow_trees` cuts a forest's trees into one contiguous chunk per
usable CPU and grows every chunk but the first in a forked worker. The
saved model must not depend on the worker count, and a worker's failure
must reach the caller, which leaves no process behind, whatever fails.
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest.mock import patch

import pytest

from devfp.classifiers import Hyperparams, ModelSpec, save_model, train_model
from devfp.classifiers import trees
from devfp.errors import DevfpError
from tables import make_dataset

REPO = Path(__file__).resolve().parents[1]
HP = Hyperparams(forest_trees=7, bagging_rounds=5, seed=3)
SPECS = {
    "rf": ModelSpec("rf", HP),
    "bagging": ModelSpec("bagging", HP),
    "vote": ModelSpec("vote", HP, ("rf", "j48", "bagging")),
}


def dataset():
    rng = random.Random(5)
    columns = {"ip.len": [], "ip.ttl": [], "tcp.window_size": []}
    labels = []
    for i in range(150):
        label = "ABC"[i % 3]
        columns["ip.len"].append(rng.choice([None, rng.randrange(60) + 25 * (label == "B")]))
        columns["ip.ttl"].append(rng.choice([None, 32, 64, 128]))
        columns["tcp.window_size"].append(None if label == "C" else rng.randrange(8))
        labels.append(label)
    return make_dataset(columns, labels)


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("variant", sorted(SPECS))
def test_worker_count_does_not_change_the_model(variant):
    data = dataset()
    with patch.object(trees, "_usable_cpus", lambda: 1), patch.object(os, "fork", side_effect=AssertionError):
        want = save_model(train_model(data, SPECS[variant]))
    # chunks of unequal size, more workers than trees, then a step that scores one node
    for workers, step_rows in [(2, trees._STEP_ROWS), (3, trees._STEP_ROWS), (16, trees._STEP_ROWS), (3, 1)]:
        with patch.object(trees, "_usable_cpus", lambda: workers), patch.object(trees, "_STEP_ROWS", step_rows):
            assert save_model(train_model(data, SPECS[variant])) == want, (workers, step_rows)
    assert_no_children()


def stand_in(in_caller, in_workers):
    """A stand-in for trees._grow that calls in_caller() in the calling
    process or in_workers() in a forked worker, then grows as usual."""
    grow, caller = trees._grow, os.getpid()

    def grow_after(*args):
        (in_caller if os.getpid() == caller else in_workers)()
        return grow(*args)

    return grow_after


def nothing():
    pass


def raise_lookup_error():
    raise LookupError("no such node in this chunk")


def fail_the_caller():
    raise RuntimeError("the caller's chunk failed")


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def hang():
    time.sleep(300)


def test_worker_exception_reaches_the_caller():
    with patch.object(trees, "_usable_cpus", lambda: 3), \
            patch.object(trees, "_grow", stand_in(nothing, raise_lookup_error)):
        with pytest.raises(LookupError, match="^no such node in this chunk$"):
            train_model(dataset(), SPECS["rf"])
    assert_no_children()


def test_killed_worker_raises_devfp_error():
    with patch.object(trees, "_usable_cpus", lambda: 3), patch.object(trees, "_grow", stand_in(nothing, kill_self)):
        with pytest.raises(DevfpError, match=f"killed by signal {int(signal.SIGKILL)} "):
            train_model(dataset(), SPECS["bagging"])
    assert_no_children()


def test_caller_failure_kills_and_reaps_the_workers():
    start = time.monotonic()
    with patch.object(trees, "_usable_cpus", lambda: 3), \
            patch.object(trees, "_grow", stand_in(fail_the_caller, hang)):
        with pytest.raises(RuntimeError, match="^the caller's chunk failed$"):
            train_model(dataset(), SPECS["rf"])
    assert time.monotonic() - start < 60
    assert_no_children()


def test_buffered_stdout_is_written_once():
    # stdout is a pipe, so the text waits in the caller's buffer while the
    # workers fork; they must exit without flushing their copies
    script = (
        "import numpy as np\n"
        "from unittest.mock import patch\n"
        "from devfp.classifiers import Hyperparams, ModelSpec, train_model, trees\n"
        "from devfp.features import Dataset\n"
        "print('buffered before training')\n"
        "data = Dataset(np.arange(360.0).reshape(40, 9) % 7, np.array(['A', 'B'] * 20, dtype=object))\n"
        "with patch.object(trees, '_usable_cpus', lambda: 4):\n"
        "    train_model(data, ModelSpec('rf', Hyperparams(forest_trees=6)))\n"
        "print('trained')\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "buffered before training\ntrained\n"
