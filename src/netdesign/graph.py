"""Network and covariate containers, generators, loaders and repairs.

Adjacency is kept sparse (one read-only (m, 2) edge array plus a CSR
matrix built on demand); dense n-by-n arrays are only materialized by
downstream numerics that need them.  Node ids are always 0-based and
dense internally; the loaders accept 1-based files through a flag.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy import sparse

from .errors import DataError, GraphFormatError, RankError

__all__ = [
    "Network",
    "CovariateMatrix",
    "RepairResult",
    "generate_bernoulli_network",
    "generate_pm1_covariates",
    "load_edge_list",
    "write_edge_list",
    "load_covariates",
    "write_covariates",
    "repair_isolated",
    "subsample_network",
    "paired_bipartite_instance",
]


def read_only_copy(a, dtype, order: str = "K") -> np.ndarray:
    """A read-only copy of a as dtype, owned by no caller.

    The default order keeps an array's memory layout: BLAS rounds products
    of a C- and an F-ordered matrix differently, so covariates keep the
    layout they were built in and every result keeps its bits.
    """
    arr = np.array(a, dtype=dtype, order=order)
    arr.flags.writeable = False
    return arr


def _is_whole(v) -> bool:
    """v is an integer or an integer-valued float; a bool is neither."""
    return (isinstance(v, (int, np.integer)) and not isinstance(v, bool)) or (
        isinstance(v, (float, np.floating)) and float(v).is_integer()
    )


def _int64_pairs(given, raw: np.ndarray | None = None) -> np.ndarray:
    """The node pairs `given` (pairs or an array) as an (m, 2) int64 array;
    raw is np.asarray(given) where the caller has built it already.

    Ids are never truncated: GraphFormatError names the first pair holding
    an id that is not an integer or an integer-valued float, or says that
    an id reaches 2^63.
    """
    raw = np.asarray(given) if raw is None else raw
    # Floats, strings, bools, objects: check each id; numpy casts the bools
    # of pairs that also hold ints to ints, so listed pairs are looked at.
    if raw.dtype.kind not in "iu" or (not isinstance(given, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for pair in given for v in pair)):
        rows = raw.reshape(-1, 2).tolist() if isinstance(given, np.ndarray) else given
        for a, b in rows:
            if not (_is_whole(a) and _is_whole(b)):
                raise GraphFormatError(f"edge ({a!r}, {b!r}): node ids must be integers")
        raw = [[int(a), int(b)] for a, b in rows]
    try:
        return np.asarray(raw, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise GraphFormatError("node ids must lie below 2^63") from None


@dataclass(frozen=True, eq=False)
class Network:
    """Simple undirected graph on nodes 0..n-1 with no self loops.

    Networks compare and hash by identity.

    Attributes:
        n: number of nodes.
        edges: read-only (m, 2) int64 copy of the given rows; each row (i, j)
            holds integer ids (integer-valued floats pass) with 0 <= i < j < n
            and the rows strictly increase (sorted, unique), else
            GraphFormatError.
    """

    n: int
    edges: np.ndarray = ()

    def __post_init__(self):
        ij = read_only_copy(_int64_pairs(self.edges), np.int64, "C")
        i, j = ij.T
        bad = (i < 0) | (i >= j) | (j >= self.n)
        bad[1:] |= (i[1:] < i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] <= j[:-1]))
        if bad.any():
            k = int(np.argmax(bad))
            raise GraphFormatError(
                f"edge row {k} {tuple(ij[k].tolist())}: rows must be unique sorted "
                f"pairs i < j of nodes 0..{self.n - 1}"
            )
        object.__setattr__(self, "edges", ij)

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple] | np.ndarray) -> "Network":
        """Build a network from an iterable of node pairs or an (m, 2) integer array.

        Duplicate pairs (in either orientation) collapse to one edge.
        Raises GraphFormatError on ids that are not integers, self loops
        or out-of-range ids.
        """
        if n < 1:
            raise DataError(f"need at least one node, got n={n}")
        given = pairs if isinstance(pairs, np.ndarray) else list(pairs)
        try:
            raw = np.asarray(given)
        except ValueError:  # pairs of unequal lengths
            raise GraphFormatError("edges must be pairs of node ids") from None
        if raw.size == 0:
            raw = raw.reshape(0, 2)
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise GraphFormatError("edges must be pairs of node ids")
        ij = _int64_pairs(given, raw)
        a, b = ij[:, 0], ij[:, 1]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        bad = np.flatnonzero((a == b) | (lo < 0) | (hi >= n))
        if bad.size:  # report the first bad pair, as a scan in input order would
            a, b = int(a[bad[0]]), int(b[bad[0]])
            if a == b:
                raise GraphFormatError(f"self loop at node {a} is not allowed")
            raise GraphFormatError(f"edge ({a}, {b}) outside node range 0..{n - 1}")
        ij = np.column_stack((lo, hi))[np.lexsort((hi, lo))]
        first = np.ones(len(ij), dtype=bool)
        first[1:] = (ij[1:] != ij[:-1]).any(axis=1)
        return Network(n=n, edges=ij[first])

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    @property
    def m(self) -> int:
        """Total degree: twice the edge count."""
        return 2 * len(self.edges)

    @cached_property
    def adjacency(self) -> sparse.csr_array:
        """Symmetric 0/1 adjacency matrix in CSR form."""
        a, b = self.edges.T
        rows, cols = np.concatenate([a, b]), np.concatenate([b, a])
        return sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(self.n, self.n))

    @property
    def isolated_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.degrees == 0)

    def __repr__(self) -> str:
        return f"Network(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True, eq=False)
class CovariateMatrix:
    """Covariates with a leading intercept column.

    Attributes:
        values: read-only n-by-(p+1) float copy of the given array, in its
            memory layout; column 0 is all ones; full column rank is
            checked at construction.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = read_only_copy(self.values, np.float64)
        if vals.ndim != 2 or vals.shape[0] < 1:
            raise DataError("covariate matrix must be 2-dimensional and non-empty")
        if not np.all(vals[:, 0] == 1.0):
            raise DataError("first covariate column must be the intercept (all ones)")
        if np.linalg.matrix_rank(vals) < vals.shape[1]:
            raise RankError(
                f"covariate matrix with {vals.shape[1]} columns is rank deficient"
            )
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_raw(z: np.ndarray) -> "CovariateMatrix":
        """Prepend an intercept column to raw covariates z (n-by-p).

        A 1-d input of length n is treated as a single covariate.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z.reshape(-1, 1)
        ones = np.ones((z.shape[0], 1))
        return CovariateMatrix(np.hstack([ones, z]))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        """Number of covariates, excluding the intercept."""
        return self.values.shape[1] - 1

    def rows(self, idx: np.ndarray) -> "CovariateMatrix":
        return CovariateMatrix(self.values[np.asarray(idx)])

    def __repr__(self) -> str:
        return f"CovariateMatrix(n={self.n}, p={self.p})"


def check_covariate_rows(net: Network, cov: CovariateMatrix) -> None:
    """Raise DataError unless cov has one row per node of net."""
    if cov.n != net.n:
        raise DataError(f"covariate rows ({cov.n}) do not match network nodes ({net.n})")


@dataclass(frozen=True)
class RepairResult:
    """Outcome of an isolated-node repair.

    kept maps new node ids to the old ones; for the connect strategy it is
    the identity.
    """

    network: Network
    kept: np.ndarray


def generate_bernoulli_network(n: int, density: float, seed: int) -> Network:
    """Erdos-Renyi graph: each of the n(n-1)/2 pairs is an edge independently.

    Args:
        n: node count, at least 2.
        density: edge probability in [0, 1].
        seed: RNG seed; equal seeds give bit-identical networks.
    """
    if n < 2:
        raise DataError(f"need n >= 2 nodes, got {n}")
    if not 0.0 <= density <= 1.0:
        raise DataError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    # Row i draws one uniform for each pair (i, j > i).  Rows are drawn in
    # blocks of about max(n, 2^16) uniforms, which continue the stream a
    # row-by-row draw makes, so memory stays O(n).
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=starts[1:])
    blocks = []
    lo = 0
    while lo < n - 1:
        hi = int(np.searchsorted(starts, starts[lo] + max(n, 1 << 16)))
        hi = min(max(hi, lo + 1), n - 1)
        hits = np.flatnonzero(rng.random(int(starts[hi] - starts[lo])) < density) + starts[lo]
        row = np.searchsorted(starts, hits, side="right") - 1
        blocks.append(np.column_stack((row, hits - starts[row] + row + 1)))
        lo = hi
    return Network(n=n, edges=np.concatenate(blocks))


def generate_pm1_covariates(n: int, p: int, seed: int) -> CovariateMatrix:
    """Covariates with iid +/-1 entries plus intercept; redraws if rank deficient."""
    if p < 0:
        raise DataError(f"need p >= 0 covariates, got {p}")
    rng = np.random.default_rng(seed)
    for _ in range(32):
        z = rng.integers(0, 2, size=(n, p)) * 2.0 - 1.0
        try:
            return CovariateMatrix.from_raw(z)
        except RankError:
            continue
    raise RankError(f"could not draw full-rank +/-1 covariates with n={n}, p={p}")


def read_text(path) -> str:
    """A whole input file as UTF-8 text with universal newlines, else DataError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(
            f"{path}: not UTF-8 text (byte {data[e.start]:#04x} at offset {e.start})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_edge_list(path, index_base: int = 0) -> Network:
    """Read a whitespace-separated edge list.

    One edge per line as two integer node ids; blank lines and lines whose
    first non-blank character is '#' are ignored.  Node count is inferred
    from the maximum id seen.

    Args:
        path: file to read.
        index_base: 0 for files whose ids start at 0, 1 for 1-based files.
    """
    if index_base not in (0, 1):
        raise DataError(f"index_base must be 0 or 1, got {index_base}")
    ids = []  # both ends of each edge, in file order
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected two node ids, got {len(parts)} fields"
            )
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: non-integer node id in {parts!r}") from None
        a -= index_base
        b -= index_base
        if a < 0 or b < 0:
            raise GraphFormatError(
                f"{path}:{lineno}: node id below {index_base} "
                f"(file declared {index_base}-based)"
            )
        if a == b:
            raise GraphFormatError(f"{path}:{lineno}: self loop at node {a + index_base}")
        ids += (a, b)
    if not ids:
        raise GraphFormatError(f"{path}: no edges found")
    try:
        ij = np.array(ids, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise GraphFormatError("node ids must lie below 2^63") from None
    return Network.from_edges(int(ij.max()) + 1, ij)


def write_edge_list(net: Network, path) -> None:
    """Write the canonical (sorted, 0-based) edge list."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes: {net.n}\n" + "".join(f"{a} {b}\n" for a, b in net.edges.tolist()))


def load_covariates(path, keep_first: int | None = None, header: bool = False) -> CovariateMatrix:
    """Read raw covariates from CSV (no intercept column in the file).

    Comma-separated, one row per node, no header unless header=True skips
    one line; nan and inf are rejected.  Columns beyond keep_first are
    discarded, then constant columns are dropped with a warning naming
    their indices, then the intercept is prepended and full rank checked.
    """
    rows, linenos = [], []
    ncol = None

    def finite(rows):
        """rows as an array, else the error of the first one with a non-finite value."""
        z = np.asarray(rows, dtype=np.float64)
        ok = np.isfinite(z).all(axis=-1)
        if not ok.all():
            raise GraphFormatError(f"{path}:{linenos[np.argmin(ok)]}: non-finite covariate value")
        return z

    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        if header and lineno == 1:
            continue
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if ncol is None:
            ncol = len(parts)
        elif len(parts) != ncol:
            finite(rows)  # an earlier line's error comes first
            raise GraphFormatError(f"{path}:{lineno}: expected {ncol} fields, got {len(parts)}")
        try:
            values = list(map(float, parts))
        except ValueError:
            finite(rows)
            raise GraphFormatError(f"{path}:{lineno}: non-numeric covariate value") from None
        rows.append(values)
        linenos.append(lineno)
    if not rows:
        raise GraphFormatError(f"{path}: no covariate rows found")
    z = finite(rows)
    if keep_first is not None:
        if keep_first < 0:
            raise DataError(f"keep_first must be non-negative, got {keep_first}")
        z = z[:, :keep_first]
    constant = np.flatnonzero(np.all(z == z[0:1, :], axis=0)) if z.shape[0] else np.array([])
    if constant.size:
        warnings.warn(
            f"dropping constant covariate columns {constant.tolist()} from {path}",
            stacklevel=2,
        )
        z = np.delete(z, constant, axis=1)
    return CovariateMatrix.from_raw(z)


def write_covariates(z: np.ndarray, path) -> None:
    """Write raw covariates (no intercept) as plain CSV."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        for row in z:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def repair_isolated(net: Network, strategy: str, seed: int | None = None) -> RepairResult:
    """Make every degree at least one.

    strategy "connect": scan nodes in index order; any node still isolated
    gains exactly one edge to a uniformly chosen other node.  strategy
    "remove": drop isolated nodes and reindex the rest densely; kept gives
    the old id of each new node.
    """
    if strategy == "connect":
        if net.n < 2:
            raise DataError("cannot connect: a one-node network has no other node to connect to")
        rng = np.random.default_rng(seed)
        added = []
        deg = net.degrees.copy()
        for node in range(net.n):
            if deg[node] > 0:
                continue
            other = int(rng.integers(0, net.n - 1))
            if other >= node:
                other += 1
            added.append((node, other))
            deg[other] += 1  # node itself is never scanned again
        pairs = np.concatenate([net.edges, np.array(added, dtype=np.int64).reshape(-1, 2)])
        return RepairResult(Network.from_edges(net.n, pairs), np.arange(net.n))
    if strategy == "remove":
        kept = np.flatnonzero(net.degrees > 0)
        if kept.size == 0:
            raise DataError("cannot remove isolated nodes: the network has no edges")
        return RepairResult(_induced(net, kept), kept)
    raise DataError(f"unknown repair strategy {strategy!r}; use 'connect' or 'remove'")


def subsample_network(
    net: Network, cov: CovariateMatrix, k: int, seed: int
) -> tuple[Network, CovariateMatrix]:
    """Induced subgraph on k uniformly chosen nodes, with matching covariate rows.

    The sampled node set is sorted ascending, so k == n returns the network
    unchanged.  Isolated nodes may appear in the result; repair separately.
    """
    check_covariate_rows(net, cov)
    if not 1 <= k <= net.n:
        raise DataError(f"subsample size must lie in 1..{net.n}, got {k}")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(net.n, size=k, replace=False))
    return _induced(net, chosen), cov.rows(chosen)


def _induced(net: Network, keep: np.ndarray) -> Network:
    """Subgraph induced on the ascending, non-empty node ids `keep`, with
    keep[i] renumbered i.  Renumbering is increasing, so the canonical
    edges of `net` stay canonical and sorted."""
    new_id = np.full(net.n, -1, dtype=np.int64)
    new_id[keep] = np.arange(keep.size)
    ij = new_id[net.edges]
    return Network(n=int(keep.size), edges=ij[(ij >= 0).all(axis=1)])


def paired_bipartite_instance(n_pairs: int = 10) -> tuple[Network, CovariateMatrix]:
    """Bipartite demonstration instance: n_pairs disjoint partner edges.

    Nodes 0..n_pairs-1 form one side, their partners n_pairs..2*n_pairs-1
    the other.  A single +/-1 covariate alternates along each side and is
    shared within a pair, so cutting every edge can balance the covariate
    exactly while making every edge cross the two arms.
    """
    if n_pairs < 2:
        raise DataError(f"need at least 2 pairs, got {n_pairs}")
    edges = [(i, i + n_pairs) for i in range(n_pairs)]
    z_side = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n_pairs)])
    z = np.concatenate([z_side, z_side]).reshape(-1, 1)
    return Network.from_edges(2 * n_pairs, edges), CovariateMatrix.from_raw(z)
