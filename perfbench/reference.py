"""A fixed amount of work that does not use netdesign, to gauge machine speed.

Machines shared with other tenants run the same code at speeds that drift
by tens of percent over minutes.  Timing this kernel next to each measured
operation lets the benchmark report times at one reference speed, so that
drift between runs does not read as a change of the program.  Its mix
follows the workloads: small dense solves and products, sparse assembly
and indexing, block-wise array arithmetic, and interpreter-bound loops,
all cache-resident.
"""

import os
import time

REFERENCE_S = 0.3  # what the kernel takes at the reference speed
MAX_CPUS = 4  # bounds the time one reading takes on large machines


def reference_kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    import numpy as np
    from scipy import sparse

    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    m = a @ a.T + 12.0 * np.eye(12)
    b = rng.standard_normal(12)
    h = rng.standard_normal((11, 1000))
    w = sparse.random(300, 300, density=0.03, random_state=1, format="csr")
    w = (w + w.T).tocsr()
    deg = np.asarray(w.sum(axis=1)).ravel() + 1.0
    ones = np.ones(300)
    rows = np.arange(0, 300, 3)
    u, v, g = rng.standard_normal(64), rng.standard_normal(500), rng.standard_normal((64, 500))
    start = time.perf_counter()
    acc = 0.0  # every result is consumed, as in a workload
    for _ in range(4000):
        acc += float(np.linalg.solve(m, b)[0])
    for _ in range(180):
        r = (sparse.diags_array(deg, format="csr") - 0.5 * w).tocsr()
        acc += float((r @ ones)[0])
    for _ in range(20):
        for lo in range(0, 300, 32):
            acc += float(w[np.arange(lo, min(lo + 32, 300))][:, rows].toarray().sum())
    for _ in range(50):
        for lo in range(0, 1000, 64):
            acc += float((h[:, lo:lo + 64].T @ h[:, ::2]).min())
    for _ in range(100):
        d = -4.0 * (u[:, None] - v[None, :]) + 4.0 * (u[:, None] - 2.0 * g + v[None, :])
        acc += float(np.where(d < 0.5, d, np.inf).min())
    acc += sum((i % 7) * 1e-9 for i in range(420000))
    return time.perf_counter() - start


def machine_reference() -> float:
    """Mean kernel time over this process's CPUs (at most MAX_CPUS), on each in turn.

    Neighbours slow a machine's CPUs unequally, and a workload runs on
    whichever CPU the scheduler picks (or on all, with threads).
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        times = []
        for cpu in cpus[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(reference_kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)
