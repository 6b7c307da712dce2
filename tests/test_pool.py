"""The worker pool itself (`netdesign._pool.fork_map`): which process
computes which items, which exception is raised, and what is left behind
when a share fails or a child dies.  The commands built on it are tested
in test_cli.py and test_optimizer.py."""

import os
import time

import pytest
from forks import no_children

from netdesign import _pool
from netdesign.errors import NetdesignError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


def affinity():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.fixture
def placed(monkeypatch):
    """Workers placed on CPUs, as with BLAS on one thread."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


class _Unpicklable(Exception):
    def __init__(self, a, b):  # unpickling calls __init__(a) alone
        super().__init__(f"{a} and {b}")


def test_results_in_order_and_first_share_here():
    parent = os.getpid()
    for workers in (1, 2, 3):
        for _ in range(2):
            out = _pool.fork_map(lambda x: (x * x, os.getpid() == parent), list(range(10)),
                                 workers)
            assert [y for y, _ in out] == [x * x for x in range(10)]
            # Shares of 10 items: 10; 5 and 5; 3, 3 and 4.
            mine = [x for x, (_, here) in enumerate(out) if here]
            assert mine == list(range({1: 10, 2: 5, 3: 3}[workers]))
            assert no_children()


def test_shares_are_contiguous_and_cover_the_items():
    for n in range(8):
        for workers in (1, 2, 3, 5):
            shares = _pool.shares(list(range(n)), workers)
            assert len(shares) == workers and sum(shares, []) == list(range(n))
            assert max(map(len, shares)) - min(map(len, shares)) <= 1
            assert [len(s) for s in shares] == sorted(map(len, shares))  # children get the extra


@pytest.mark.parametrize("failing, first", [
    ({4, 7}, 4),  # the second and third shares (children)
    ({1, 5}, 1),  # this process's share and a child's
    ({8, 3}, 3),  # a child's, listed after a later one
])
def test_first_failing_item_in_item_order(failing, first):
    def fn(x):
        if x in failing:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError) as raised:
        _pool.fork_map(fn, list(range(9)), 3)  # shares 0-2 here, 3-5 and 6-8 in children
    assert str(raised.value) == f"item {first}"
    remote = type(raised.value.__cause__).__name__ == "_RemoteTraceback"
    assert remote == (first >= 3)
    if remote:
        assert f"ValueError: item {first}" in str(raised.value.__cause__)
    assert no_children()


def test_unpicklable_error_names_its_type_and_message():
    def fn(x):
        if x == 2:
            raise _Unpicklable("one", "two")
        return x

    with pytest.raises(NetdesignError, match="^_Unpicklable: one and two$"):
        _pool.fork_map(fn, [0, 1, 2], 3)
    assert no_children()


def test_error_here_kills_the_children_and_restores_affinity(placed):
    # The children would sleep for a minute; the error in this process's
    # share stops them at once.
    parent, before = os.getpid(), affinity()

    def fn(x):
        if os.getpid() != parent:
            time.sleep(60)
        raise ValueError("here")

    start = time.perf_counter()
    with pytest.raises(ValueError, match="^here$"):
        _pool.fork_map(fn, list(range(3)), 3)
    assert time.perf_counter() - start < 30
    assert no_children() and affinity() == before


def test_a_child_that_dies_restores_affinity(placed):
    parent, before = os.getpid(), affinity()

    def fn(x):
        if os.getpid() != parent:
            os._exit(9)
        return x

    with pytest.raises(NetdesignError, match="^a worker process stopped unexpectedly"):
        _pool.fork_map(fn, list(range(4)), 2)
    assert no_children() and affinity() == before
