"""Forests grown by forked workers.

`trees.grow_trees` cuts a forest's trees into one contiguous chunk per
usable CPU and grows every chunk but the first in a forked worker. The
saved model must not depend on the worker count, and a worker's failure
must reach the caller, which leaves no process behind, whatever fails. A
worker whose caller is killed leaves at its next growth step.
"""

import errno
import os
import random
import select
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


def raise_unpicklable():
    class Local(Exception):  # pickle finds no local class by name
        pass

    raise Local("cannot be sent")


def test_worker_without_a_result_raises_devfp_error():
    # its exception cannot be pickled, so the worker exits with status 1
    with patch.object(trees, "_usable_cpus", lambda: 2), \
            patch.object(trees, "_grow", stand_in(nothing, raise_unpicklable)):
        with pytest.raises(DevfpError, match="^a tree-growing worker exited with status 1 and sent no result$"):
            train_model(dataset(), SPECS["rf"])
    assert_no_children()


def test_failed_fork_closes_the_pipe_and_raises():
    pipes, pipe = [], os.pipe

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    with patch.object(trees, "_usable_cpus", lambda: 2), patch.object(os, "pipe", recorded_pipe), \
            patch.object(os, "fork", side_effect=OSError(errno.EAGAIN, "no more processes")):
        with pytest.raises(OSError, match="no more processes"):
            train_model(dataset(), SPECS["bagging"])
    assert len(pipes) == 1
    for fd in pipes[0]:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF
    assert_no_children()


def test_usable_cpus_without_affinity_or_fork(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert trees._usable_cpus() == (os.cpu_count() or 1)
    monkeypatch.delattr(os, "fork", raising=False)
    assert trees._usable_cpus() == 1


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


def running(pid: int) -> bool:
    """Whether process pid exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_worker_leaves_when_its_caller_is_killed():
    # every growth step sleeps, so the worker's chunk would take minutes;
    # the child prints the worker's pid, then is killed by SIGKILL
    script = (
        "import time\n"
        "from unittest.mock import patch\n"
        "from devfp.classifiers import Hyperparams, ModelSpec, train_model, trees\n"
        "from test_workers import dataset\n"
        "fork, best_splits = trees._fork, trees._best_splits\n"
        "def announced(*args):\n"
        "    pid, pipe = fork(*args)\n"
        "    print(pid, flush=True)\n"
        "    return pid, pipe\n"
        "def slow(*args):\n"
        "    time.sleep(0.05)\n"
        "    return best_splits(*args)\n"
        "with patch.object(trees, '_usable_cpus', lambda: 2), patch.object(trees, '_fork', announced), \\\n"
        "        patch.object(trees, '_best_splits', slow), patch.object(trees, '_STEP_ROWS', 1):\n"
        "    train_model(dataset(), ModelSpec('rf', Hyperparams(forest_trees=60, seed=3)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(REPO / "src"), str(REPO / "tests"))))
    child = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env)
    worker = None
    try:
        assert select.select([child.stdout], [], [], 60)[0], "the child forked no worker within 60 s"
        worker = int(child.stdout.readline())
        assert running(worker)
        child.kill()
        child.wait(timeout=60)
        deadline = time.monotonic() + 5
        while running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(worker), "the worker outlived its caller by 5 s"
    finally:
        child.kill()
        child.wait(timeout=60)
        child.stdout.close()
        if worker is not None and running(worker):
            os.kill(worker, signal.SIGKILL)
