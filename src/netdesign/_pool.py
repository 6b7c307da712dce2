"""Forked worker processes, each placed on its own CPUs: the one pool that
study cells (`experiments`) and the restarts of a local solve (`optimizer`)
run on.

Under fork a worker inherits the function it serves, so that may be a
closure; only the tasks' arguments and results are pickled.  With BLAS on
one thread no two workers share a CPU; placement is skipped where the
platform has no affinity calls, and never changes a result.
`multiprocessing` and `concurrent.futures` are imported only when a pool
starts, so a serial run loads neither.
"""

from __future__ import annotations

import contextlib
import numbers
import os

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


def worker_cpus(workers: int) -> list:
    """The CPUs each of `workers` workers is kept on: worker k takes every
    workers-th usable CPU from the k-th, so no two share one.  None for
    each (no placement) without the affinity calls, or unless BLAS is held
    to one thread (OPENBLAS_NUM_THREADS or, unset, OMP_NUM_THREADS is 1,
    as numpy's OpenBLAS reads them): a worker's BLAS threads would share
    its CPUs."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if blas != "1" or not (hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity")):
        return [None] * workers
    usable = sorted(os.sched_getaffinity(0))
    return [set(usable[k::workers]) for k in range(workers)]


# The function a forked worker serves.  It is set once, in the worker, by
# the pool's initializer; the parent never sets it.
_worker_fn = None


def _start_worker(fn, queue) -> None:
    """Pool initializer: serve `fn`, kept on the CPUs taken from `queue`.

    Left to the scheduler, both workers of a 2-worker study were measured
    sharing one vCPU of two for whole studies, slower than one process; a
    worker placed and then given every CPU back was seen moved next to
    the other one again, so the placement holds for the pool's life.  It
    is best-effort: None or an OSError leaves the worker where it is,
    computing the same results."""
    global _worker_fn
    _worker_fn = fn
    cpus = queue.get()
    if cpus is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


def _worker_call(item):
    return _worker_fn(item)


def fork_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], in order, computed in this process when
    `workers` is 1 and otherwise on `workers` forked processes, each kept on
    its CPUs from worker_cpus: the parent queues them for the workers'
    initializers to take.  Items go in contiguous chunks of about an eighth
    of a worker's share: one item per task costs more than a
    sub-millisecond study cell, and eight chunks a worker still balance
    cells of uneven cost; with no more items than workers each worker
    takes one.  An exception raised by `fn` is raised here as its own
    type; a worker that dies raises NetdesignError.  The pool is shut
    down, its queued chunks dropped, before this returns."""
    if workers == 1:
        return [fn(item) for item in items]
    # Imported here: a serial run and the commands without a pool need neither.
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with contextlib.closing(context.SimpleQueue()) as queue:
        for cpus in worker_cpus(workers):
            queue.put(cpus)
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=context,
            initializer=_start_worker, initargs=(fn, queue),
        )
        try:
            chunk = max(1, len(items) // (8 * workers))
            return list(pool.map(_worker_call, items, chunksize=chunk))
        except BrokenProcessPool:
            raise NetdesignError(
                "a worker process stopped unexpectedly (killed, or out of memory); "
                "one worker (--threads 1) computes the same result in this process"
            ) from None
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
