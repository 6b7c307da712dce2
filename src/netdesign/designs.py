"""Treatment assignment vectors with +/-1 coding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["Design", "as_sign_vector"]


def as_sign_vector(x) -> np.ndarray:
    """Coerce a Design or array-like to a validated float +/-1 vector."""
    if isinstance(x, Design):
        return x.x
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0 or not np.all(np.abs(arr) == 1.0):
        raise DataError("design entries must all be +1 or -1")
    return arr


@dataclass(frozen=True, eq=False)
class Design:
    """An assignment of each node to the +1 or -1 arm."""

    x: np.ndarray

    def __post_init__(self):
        arr = as_sign_vector(self.x)
        arr.flags.writeable = False
        object.__setattr__(self, "x", arr)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def arm_sum(self) -> int:
        return int(self.x.sum())

    @property
    def is_balanced(self) -> bool:
        """Arm sizes differ by at most one node."""
        return abs(self.arm_sum) <= 1

    def to_lines(self) -> str:
        return "\n".join("+1" if v > 0 else "-1" for v in self.x) + "\n"

    @staticmethod
    def from_lines(text: str) -> "Design":
        vals = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals.append(int(line))
            except ValueError:
                raise DataError(f"line {lineno}: design entries must be +1 or -1") from None
        if not vals:
            raise DataError("no design entries found")
        return Design(np.asarray(vals, dtype=np.float64))

    def __eq__(self, other) -> bool:
        return isinstance(other, Design) and np.array_equal(self.x, other.x)

    def __repr__(self) -> str:
        return f"Design(n={self.n}, arm_sum={self.arm_sum})"
