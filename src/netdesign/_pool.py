"""Forked worker processes, each placed on its own CPUs: the one pool that
study cells (`experiments`) and the restarts of a local solve (`optimizer`)
run on.

A pool is plain `os.fork` with one pipe per child, and this process
computes one share of the items itself.  Under fork a child inherits the
function it serves, so that may be a closure; only results and
exceptions are pickled.  A two-worker pool with a trivial function took
3-4 ms to start and finish on a 2-vCPU VM, against about 10 ms for a
`concurrent.futures` process pool.  With BLAS on one thread no two
workers share a CPU; placement is skipped where the platform has no
affinity calls, and never changes a result.
"""

from __future__ import annotations

import contextlib
import numbers
import os
import pickle
import signal
import traceback

from .errors import DataError, NetdesignError


def check_count(value, name: str) -> None:
    """DataError unless `value` is an integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DataError(f"{name} must be an integer of at least 1, got {value!r}")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(asked: int, tasks: int) -> int:
    """Workers to run `tasks` tasks on: at most `asked`, one per task and
    per usable CPU, and 1 (this process) on a platform without fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(asked, tasks, usable_cpus()))


def places_workers() -> bool:
    """True where worker_cpus places workers: the platform has the
    affinity calls and BLAS is held to one thread (OPENBLAS_NUM_THREADS
    or, unset, OMP_NUM_THREADS is 1, as numpy's OpenBLAS reads them).
    Otherwise a worker's BLAS threads would share its CPUs, so it is
    left to the scheduler."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    return blas == "1" and hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity")


def worker_cpus(workers: int) -> list:
    """The CPUs each of `workers` workers is kept on: worker k takes every
    workers-th usable CPU from the k-th, so no two share one.  None for
    each (no placement) unless places_workers()."""
    if not places_workers():
        return [None] * workers
    usable = sorted(os.sched_getaffinity(0))
    return [set(usable[k::workers]) for k in range(workers)]


class _RemoteTraceback(Exception):
    """The cause of an exception raised in a worker: its traceback there."""


def shares(items, workers: int) -> list:
    """`items` (a list or an array) cut into `workers` contiguous shares in
    item order, the last len(items) % workers of them one item longer:
    the first share, this process's, starts only after every child is
    forked."""
    size, extra = divmod(len(items), workers)
    cuts = [k * size + max(0, k - workers + extra) for k in range(workers + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


@contextlib.contextmanager
def _placed(cpus):
    """This thread kept on `cpus` (None: where it is), and given its
    CPUs back on leaving.  Best-effort: an OSError leaves it where it is,
    computing the same results.  Left to the scheduler, both workers of a
    2-worker study were measured sharing one vCPU of two, slower than one
    process."""
    if cpus is None:
        yield
        return
    before = os.sched_getaffinity(0)
    try:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)
        yield
    finally:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, before)


def _failure(error: BaseException) -> bytes:
    """The pickled (error, its formatted traceback), or a NetdesignError
    naming its type and message where the error does not survive a
    pickle round trip."""
    tb = "".join(traceback.format_exception(error))
    try:
        payload = pickle.dumps((False, (error, tb)), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)
    except Exception:
        stand_in = NetdesignError(f"{type(error).__name__}: {error}")
        payload = pickle.dumps((False, (stand_in, tb)), pickle.HIGHEST_PROTOCOL)
    return payload


def _serve(fn, share: list, cpus, fd: int) -> None:
    """In a forked child: kept on `cpus`, compute `share` and write the
    pickled outcome to `fd`.  Never returns: os._exit skips the parent's
    `finally` blocks, exit handlers and unflushed buffers."""
    code = 1
    try:
        try:
            with _placed(cpus):
                results = [fn(item) for item in share]
            payload = pickle.dumps((True, results), pickle.HIGHEST_PROTOCOL)
        except Exception as e:
            payload = _failure(e)
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _outcome(fd: int) -> list:
    """The results a child wrote to `fd`, read to its end; the child's
    exception raised here with its traceback as the cause, and
    NetdesignError where the pipe holds no whole outcome."""
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    try:
        ok, value = pickle.loads(b"".join(chunks))
    except Exception:  # empty or cut short: the child died before it wrote
        raise NetdesignError(
            "a worker process stopped unexpectedly (killed, or out of memory); "
            "one worker (--threads 1) computes the same result in this process"
        ) from None
    if ok:
        return value
    error, tb = value
    raise error from _RemoteTraceback(tb)


def fork_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], in order, computed in this process when
    `workers` is 1 and otherwise by `workers` processes: the items are cut
    into contiguous shares in item order (shares), this process computes
    the first and one forked child each of the others.  So which process
    computes an item is fixed by the item count alone.  Each process is
    kept on its CPUs from worker_cpus while it computes (this one gets its
    own CPUs back afterwards).  A child sends its share's results, or the
    first exception `fn` raised in it, back through its own pipe, and the
    shares are read in order, so the exception raised here, as its own
    type, is that of the first failing item; a child that dies raises
    NetdesignError.  Every child has exited, and been reaped, before this
    returns or raises; on an exception the ones still running are killed."""
    if workers == 1:
        return [fn(item) for item in items]
    parts = shares(list(items), workers)
    cpus = worker_cpus(workers)
    children, done = [], False  # (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _serve(fn, parts[k], cpus[k], write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        with _placed(cpus[0]):
            results = [fn(item) for item in parts[0]]
        for _, fd in children:
            results.extend(_outcome(fd))
        done = True
        return results
    finally:
        for pid, fd in children:
            os.close(fd)
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
