"""A check the pool tests share: that no forked child is left behind."""

import os

_waitpid = os.waitpid  # unpatched, where a test spies on os.waitpid


def no_children() -> bool:
    """True when this process has no child left, reaped or not: a raw
    os.fork child included, which multiprocessing.active_children cannot see."""
    if not hasattr(os, "fork"):
        return True
    try:
        _waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
