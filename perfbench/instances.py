"""Benchmark instances, generated here so the program under test only reads them.

A change to netdesign's own generators (say, vectorising
generate_bernoulli_network) therefore cannot change what is measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Instance:
    """Bernoulli graph plus +/-1 covariates (no intercept column)."""

    n: int
    edges: np.ndarray  # (E, 2) int64, rows (i, j) with i < j, sorted
    z: np.ndarray  # (n, p) float64 of +/-1

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def adjacency(self) -> np.ndarray:
        W = np.zeros((self.n, self.n))
        W[self.edges[:, 0], self.edges[:, 1]] = 1.0
        W[self.edges[:, 1], self.edges[:, 0]] = 1.0
        return W

    def edge_text(self) -> str:
        return "".join(f"{i} {j}\n" for i, j in self.edges.tolist())

    def covariate_text(self) -> str:
        return "".join(",".join(str(int(v)) for v in row) + "\n" for row in self.z)

    def write(self, prefix: Path) -> dict:
        """Write `<prefix>_edges.txt` and `<prefix>_covariates.csv`; return a record."""
        edges_path = prefix.with_name(prefix.name + "_edges.txt")
        cov_path = prefix.with_name(prefix.name + "_covariates.csv")
        edge_bytes = self.edge_text().encode()
        cov_bytes = self.covariate_text().encode()
        edges_path.write_bytes(edge_bytes)
        cov_path.write_bytes(cov_bytes)
        return {
            "edges_path": str(edges_path),
            "covariates_path": str(cov_path),
            "n": self.n,
            "p": int(self.z.shape[1]),
            "edge_count": int(self.edges.shape[0]),
            "max_degree": int(self.degrees.max()),
            "edges_sha256": hashlib.sha256(edge_bytes).hexdigest(),
            "covariates_sha256": hashlib.sha256(cov_bytes).hexdigest(),
        }


def bernoulli_instance(n: int, density: float, p: int, seed: int) -> Instance:
    """Each of the n(n-1)/2 pairs is an edge with probability `density`.

    A node left isolated gets one edge to a uniformly drawn other node,
    because the CAR kernel is singular at degree zero and every operation
    of the benchmark must succeed.  Covariate columns are redrawn until
    none is constant, so the covariate matrix keeps full column rank
    with the intercept.
    """
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    hit = rng.random(iu.size) < density
    pairs = {(int(i), int(j)) for i, j in zip(iu[hit], ju[hit])}
    deg = np.zeros(n, dtype=np.int64)
    for i, j in pairs:
        deg[i] += 1
        deg[j] += 1
    for node in np.flatnonzero(deg == 0):
        if deg[node]:
            continue
        other = int(rng.integers(0, n - 1))
        other += other >= node
        pairs.add((min(node, other), max(node, other)))
        deg[node] += 1
        deg[other] += 1
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    while True:
        z = rng.integers(0, 2, size=(n, p)) * 2.0 - 1.0
        if np.all(np.ptp(z, axis=0) > 0):
            return Instance(n=n, edges=edges, z=z)
