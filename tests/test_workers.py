"""Work run by forked workers: forest growth and capture extraction.

`workers.run_chunks` cuts n items into one contiguous chunk per usable CPU
and runs every chunk but the first in a forked worker. `trees.grow_trees`
cuts a forest's trees this way, and `extract` and `pipeline` their
captures. The saved model, the dataset, standard output and standard error
must not depend on the worker count, and a worker's failure must reach the
caller, which leaves no process behind, whatever fails. A worker whose
caller is killed leaves at its next growth step or before its next capture.
"""

import errno
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest.mock import patch

import pytest

from corpus import REFERENCE_REGISTRY, TRAINING_REGISTRY, build_reference_capture, build_training_capture
from devfp import errors, workers
from devfp.classifiers import Hyperparams, ModelSpec, save_model, train_model
from devfp.classifiers import trees
from devfp.cli import main
from devfp.errors import DevfpError
from devfp.pcap import parse_capture
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
    with patch.object(workers, "_usable_cpus", lambda: 1), patch.object(os, "fork", side_effect=AssertionError):
        want = save_model(train_model(data, SPECS[variant]))
    # chunks of unequal size, more workers than trees, then a step that scores one node
    for cpus, step_rows in [(2, trees._STEP_ROWS), (3, trees._STEP_ROWS), (16, trees._STEP_ROWS), (3, 1)]:
        with patch.object(workers, "_usable_cpus", lambda: cpus), patch.object(trees, "_STEP_ROWS", step_rows):
            assert save_model(train_model(data, SPECS[variant])) == want, (cpus, step_rows)
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
    with patch.object(workers, "_usable_cpus", lambda: 3), \
            patch.object(trees, "_grow", stand_in(nothing, raise_lookup_error)):
        with pytest.raises(LookupError, match="^no such node in this chunk$"):
            train_model(dataset(), SPECS["rf"])
    assert_no_children()


def test_killed_worker_raises_devfp_error():
    with patch.object(workers, "_usable_cpus", lambda: 3), patch.object(trees, "_grow", stand_in(nothing, kill_self)):
        with pytest.raises(DevfpError, match=f"killed by signal {int(signal.SIGKILL)} "):
            train_model(dataset(), SPECS["bagging"])
    assert_no_children()


def raise_unpicklable():
    class Local(Exception):  # pickle finds no local class by name
        pass

    raise Local("cannot be sent")


def test_worker_without_a_result_raises_devfp_error():
    # its exception cannot be pickled, so the worker exits with status 1
    with patch.object(workers, "_usable_cpus", lambda: 2), \
            patch.object(trees, "_grow", stand_in(nothing, raise_unpicklable)):
        with pytest.raises(DevfpError, match="^a forked worker exited with status 1 and sent no result$"):
            train_model(dataset(), SPECS["rf"])
    assert_no_children()


DEVFP_ERRORS = [value for value in vars(errors).values() if isinstance(value, type) and issubclass(value, DevfpError)]


@pytest.mark.parametrize("error", DEVFP_ERRORS, ids=lambda error: error.__name__)
def test_every_devfp_error_comes_back_from_a_worker(error):
    # an error pickles as its class and message, so its class takes the message alone
    message = f"line 3: {error.__name__} for 'ip.len' raised in a worker"

    def work(start, stop):
        if start:
            raise error(message)
        return start

    with patch.object(workers, "_usable_cpus", lambda: 2):
        with pytest.raises(DevfpError) as excinfo:
            workers.run_chunks(work, 2)
    assert (type(excinfo.value), str(excinfo.value)) == (error, message)
    assert_no_children()


def test_failed_fork_closes_the_pipe_and_raises():
    pipes, pipe = [], os.pipe

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    with patch.object(workers, "_usable_cpus", lambda: 2), patch.object(os, "pipe", recorded_pipe), \
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
    assert workers._usable_cpus() == (os.cpu_count() or 1)
    monkeypatch.delattr(os, "fork", raising=False)
    assert workers._usable_cpus() == 1


def test_caller_failure_kills_and_reaps_the_workers():
    start = time.monotonic()
    with patch.object(workers, "_usable_cpus", lambda: 3), \
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
        "from devfp import workers\n"
        "from devfp.classifiers import Hyperparams, ModelSpec, train_model\n"
        "from devfp.features import Dataset\n"
        "print('buffered before training')\n"
        "data = Dataset(np.arange(360.0).reshape(40, 9) % 7, np.array(['A', 'B'] * 20, dtype=object))\n"
        "with patch.object(workers, '_usable_cpus', lambda: 4):\n"
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


# a child script's prelude: it prints the pid of each worker it forks
ANNOUNCED_FORK = (
    "from devfp import workers\n"
    "fork = workers._fork\n"
    "def announced(*args):\n"
    "    pid, pipe = fork(*args)\n"
    "    print(pid, flush=True)\n"
    "    return pid, pipe\n"
)


def assert_worker_leaves_when_killed(script: str, args: list[str]) -> None:
    """Run script, whose worker would work for well over 5 s, in a child
    with args; read the pid of the first worker it forks, kill the child by
    SIGKILL, and check that the worker leaves within 5 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(REPO / "src"), str(REPO / "tests"))))
    child = subprocess.Popen([sys.executable, "-c", ANNOUNCED_FORK + script, *args], stdout=subprocess.PIPE,
                             text=True, env=env)
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


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_worker_leaves_when_its_caller_is_killed():
    # every growth step sleeps, so the worker's chunk would take minutes
    script = (
        "import time\n"
        "from unittest.mock import patch\n"
        "from devfp.classifiers import Hyperparams, ModelSpec, train_model, trees\n"
        "from test_workers import dataset\n"
        "best_splits = trees._best_splits\n"
        "def slow(*args):\n"
        "    time.sleep(0.05)\n"
        "    return best_splits(*args)\n"
        "with patch.object(workers, '_usable_cpus', lambda: 2), patch.object(workers, '_fork', announced), \\\n"
        "        patch.object(trees, '_best_splits', slow), patch.object(trees, '_STEP_ROWS', 1):\n"
        "    train_model(dataset(), ModelSpec('rf', Hyperparams(forest_trees=60, seed=3)))\n"
    )
    assert_worker_leaves_when_killed(script, [])


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_extraction_worker_leaves_when_its_caller_is_killed(tmp_path):
    # every capture's parse sleeps 0.2 s, so the worker's 50 captures would take 10 s
    script = (
        "import sys, time\n"
        "from unittest.mock import patch\n"
        "from devfp import cli\n"
        "parse_capture = cli.parse_capture\n"
        "def slow(data):\n"
        "    time.sleep(0.2)\n"
        "    return parse_capture(data)\n"
        "with patch.object(workers, '_usable_cpus', lambda: 2), patch.object(workers, '_fork', announced), \\\n"
        "        patch.object(cli, 'parse_capture', slow):\n"
        "    cli.main(sys.argv[1:])\n"
    )
    pcap, registry = write_inputs(tmp_path)["reference"], tmp_path / "devices.tsv"
    args = ["extract", "--input", *[str(pcap)] * 100, "--registry", str(registry), "--out", str(tmp_path / "d.csv")]
    assert_worker_leaves_when_killed(script, args)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts OS threads in /proc/self/task")
def test_the_caller_holds_one_thread_at_every_fork(tmp_path):
    # Python 3.12 and later warn on a fork from a process with more than one
    # OS thread. A fork hook cannot be removed, so the count is taken in a
    # child process, after each fork of its extraction and of its forest growth
    script = (
        "import json, os, sys\n"
        "from unittest.mock import patch\n"
        "from devfp import cli, workers\n"
        "threads = []\n"
        "os.register_at_fork(after_in_parent=lambda: threads.append(len(os.listdir('/proc/self/task'))))\n"
        "with patch.object(workers, '_usable_cpus', lambda: 2):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, threads]))\n"
    )
    paths = write_inputs(tmp_path)
    second = tmp_path / "second.pcap"
    second.write_bytes(build_training_capture(seed=12))
    args = ["pipeline", "--input", str(paths["training"]), str(second),
            "--registry", str(tmp_path / "devices.tsv"), "--model", "rf", "--out", str(tmp_path / "out")]
    result = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert result.returncode == 0, result.stderr
    code, threads = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stderr
    assert len(threads) >= 2 and set(threads) == {1}, threads


def test_chunks_come_back_in_order_and_a_worker_forks_no_worker():
    def work(start, stop):
        return start, stop, os.getpid(), workers.run_chunks(lambda a, b: (a, b, os.getpid()), 4)

    with patch.object(workers, "_usable_cpus", lambda: 3):
        chunks = workers.run_chunks(work, 7)
    assert [(start, stop) for start, stop, *_ in chunks] == [(0, 2), (2, 4), (4, 7)]
    pids = [pid for _, _, pid, _ in chunks]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    # the caller's nested call cuts its 4 items in 3 chunks; a worker's runs them itself
    assert [b for _, b, _ in chunks[0][3]] == [1, 2, 4]
    assert [nested for *_, nested in chunks[1:]] == [[(0, 4, pid)] for pid in pids[1:]]
    assert_no_children()


PCAPNG = (  # a pcapng section header block: type, length, byte-order magic, version 1.0
    b"\x0a\x0d\x0d\x0a" + (28).to_bytes(4, "little") + b"\x4d\x3c\x2b\x1a"
    + b"\x01\x00\x00\x00" + b"\xff" * 8 + (28).to_bytes(4, "little")
)


def write_inputs(directory: Path) -> dict[str, Path]:
    """Capture files by name, and devices.tsv, the registry of all their
    devices: the reference capture, the training capture cut in the middle
    of its last frame, a second training capture, a pcapng file and a path
    that does not exist."""
    training = build_training_capture()
    last = parse_capture(training).frames[-1]
    captures = {
        "reference": build_reference_capture(),
        "cut": training[:int(last[0] + last[1] // 2)],
        "training": build_training_capture(seed=11),
        "pcapng": PCAPNG,
    }
    paths = {name: directory / f"{name}.pcap" for name in (*captures, "missing")}
    for name, data in captures.items():
        paths[name].write_bytes(data)
    (directory / "devices.tsv").write_text(REFERENCE_REGISTRY + TRAINING_REGISTRY, encoding="utf-8")
    return paths


def command_outputs(command: str, inputs: list[Path], directory: Path, capsys) -> dict:
    """The exit code, standard output and error, and the bytes of every file
    written of `command` on the inputs, with 1, 2 and 3 usable CPUs."""
    out = directory / "out"
    argv = {
        "extract": ["extract", "--out", str(out / "dataset.csv"), "--dedup"],
        "pipeline": ["pipeline", "--out", str(out), "--model", "rf", "--trees", "4", "--seed", "2", "--raw-ack"],
    }[command]
    argv += ["--input", *map(str, inputs), "--registry", str(directory / "devices.tsv")]
    runs = {}
    for cpus in (1, 2, 3):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        with patch.object(workers, "_usable_cpus", lambda: cpus):
            code = main(argv)
        stdout, stderr = capsys.readouterr()
        runs[cpus] = (code, stdout, stderr, {path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert_no_children()
    return runs


@pytest.mark.parametrize("command", ["extract", "pipeline"])
def test_extraction_does_not_depend_on_the_worker_count(command, tmp_path, capsys):
    paths = write_inputs(tmp_path)
    inputs = [paths[name] for name in ("reference", "cut", "training", "reference")]
    runs = command_outputs(command, inputs, tmp_path, capsys)
    code, _, stderr, files = runs[1]
    assert code == 0 and "dataset.csv" in files
    assert stderr.startswith(f"warning: {paths['cut']}: truncated or corrupt at frame ")
    assert runs[2] == runs[1] and runs[3] == runs[1]


@pytest.mark.parametrize("command", ["extract", "pipeline"])
@pytest.mark.parametrize("bad, message", [
    (["pcapng"], "file is pcapng, which is not supported"),
    (["missing"], "No such file or directory"),
    (["pcapng", "missing"], "file is pcapng, which is not supported"),
    (["missing", "pcapng"], "No such file or directory"),
])
def test_first_bad_capture_fails_whatever_the_worker_count(command, bad, message, tmp_path, capsys):
    # a truncated capture before the bad ones warns, and one after them does not
    paths = write_inputs(tmp_path)
    inputs = [paths[name] for name in ("cut", *bad, "reference", "cut")]
    runs = command_outputs(command, inputs, tmp_path, capsys)
    code, stdout, stderr, files = runs[1]
    lines = stderr.splitlines()
    assert (code, stdout, files, len(lines)) == (2, "", {}, 2)
    assert lines[0].startswith(f"warning: {paths['cut']}: truncated or corrupt at frame ")
    assert lines[1].startswith("error: ") and message in lines[1]
    assert runs[2] == runs[1] and runs[3] == runs[1]


def test_one_capture_forks_no_worker(reference_paths, tmp_path, capsys):
    pcap, registry = reference_paths
    argv = ["extract", "--input", str(pcap), "--registry", str(registry), "--out", str(tmp_path / "dataset.csv")]
    with patch.object(workers, "_usable_cpus", lambda: 3), patch.object(os, "fork", side_effect=AssertionError):
        assert main(argv) == 0
