"""Forked workers: one function run over contiguous chunks of items.

`run_chunks` runs the first chunk in the calling process and each other
chunk in a forked worker, which shares the caller's memory without pickling
its inputs or importing devfp again and pickles its result back over a pipe.
Inside a worker every call runs in-process, so a worker forks no further
workers. Forest growth (`classifiers.trees.grow_trees`) cuts its trees into
chunks, and `extract` and `pipeline` their captures. A worker whose caller
dies (SIGKILL, the OOM killer) leaves at its next `leave_if_orphaned` call,
which long work makes between its steps.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import BinaryIO, Callable, Optional, TypeVar

from .errors import DevfpError

T = TypeVar("T")

# In a forked worker, the pid of the process that forked it; None in a caller.
_caller: Optional[int] = None


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where os.fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunks(work: Callable[[int, int], T], n: int) -> list[T]:
    """[work(cuts[0], cuts[1]), ..., work(cuts[W - 1], cuts[W])]: the n items
    cut into W contiguous chunks, W the smaller of n and the usable CPUs, and
    1 in a worker or for no items.

    The caller runs the first chunk; each other chunk runs in a worker that
    is forked before it starts. The results come back in chunk order, so
    they do not depend on the number of chunks when each item's work depends
    only on the item. A worker's exception is raised here with its type and
    message, the first chunk's first; a worker that dies without a result
    raises DevfpError. No worker outlives the call.
    """
    n_chunks = 1 if _caller is not None else max(1, min(_usable_cpus(), n))
    cuts = [n * c // n_chunks for c in range(n_chunks + 1)]
    running: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe) of each worker not yet reaped
    try:
        for c in range(1, n_chunks):
            running.append(_fork(work, cuts[c], cuts[c + 1]))
        results = [work(cuts[0], cuts[1])]
        while running:
            results.append(_receive(running))
    finally:
        for pid, pipe in running:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def leave_if_orphaned() -> None:
    """Leave by os._exit at once in a worker whose caller has died; in a
    caller, do nothing."""
    if _caller is not None and os.getppid() != _caller:
        os._exit(1)


def _fork(work: Callable[[int, int], T], start: int, stop: int) -> tuple[int, BinaryIO]:
    """(pid, read end of its pipe) of a forked worker that pickles
    (True, work(start, stop)) or (False, the exception it raised) to the pipe.

    The worker leaves by os._exit, status 0 once the pipe holds its whole
    result: it runs no atexit handler and flushes no inherited stdio buffer.
    Python 3.12 and later warn (DeprecationWarning) on a fork from a process
    with more than one thread, as numpy's OpenBLAS makes it.
    """
    global _caller
    caller = os.getpid()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            _caller = caller
            os.close(read)
            try:
                result = (True, work(start, stop))
            except BaseException as exc:  # sent to the caller, which raises it
                result = (False, exc)
            with open(write, "wb") as pipe:
                pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _receive(running: list[tuple[int, BinaryIO]]):
    """The result of the first worker, which is reaped and removed from
    `running`; its exception, or a DevfpError when it sent no result."""
    pid, pipe = running[0]
    with pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del running[0]
    if code < 0:
        raise DevfpError(f"a forked worker was killed by signal {-code} ({signal.strsignal(-code)})")
    if code != 0:
        raise DevfpError(f"a forked worker exited with status {code} and sent no result")
    done, result = pickle.loads(data)  # bytes that _fork's worker wrote
    if not done:
        raise result
    return result
