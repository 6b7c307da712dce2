"""Assignment solvers for the hybrid design problem.

The hybrid problem minimizes the kernel-weighted covariate imbalance

    x' R F (F' R F)^{-1} F' R x,      R = D - rho0 W,

over +/-1 assignments subject to arm balance (|sum x| <= 1) and a
connection cap x' W x <= q, where q = sqrt(m) * z_alpha for the standard
normal lower-tail quantile z_alpha.  Under iid assignment x'Wx has
variance 2m (each edge contributes 4), so it is x'Wx / sqrt(2m) that is
asymptotically standard normal, and random designs meet the cap with
probability about Phi(z_alpha / sqrt(2)), more than alpha.  The
covariate-only variant drops the cap and weights imbalance by (F'F)^{-1}
instead.

All solvers work off the factored form H = La^{-1} B' (objective
||H x||^2) cached on the problem; no n-by-n dense kernel is formed.  A
swap move exchanges one node from each arm, so balance is invariant; its
objective delta costs O(p) and its constraint delta O(1) given the
maintained vectors.  Repair and descent take the best swap over all
plus x minus pairs exactly, and above n of about 256 without scoring them
all: a lower bound on each plus row's best delta (one matrix product per
step for the objective, O(n) for the cut) orders the rows, and rows are
scored only until the next bound exceeds the best delta found.  The
restarts of a multistart solve advance in lockstep, one swap each per
step; below one block of pairs per restart their pair blocks are scored
as one stack, with the per-restart arithmetic, so each restart takes the
swaps it would take alone.  Reported objectives are recomputed by a
fresh pass over the returned design, never copied from solver
bookkeeping.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import linalg
from scipy.special import ndtri

from .criterion import CriterionEvaluator
from .designs import Design, as_sign_vector
from .errors import DataError, RankError
from .graph import CovariateMatrix, Network

__all__ = [
    "RELAXATION_LADDER",
    "SOLVER_METHODS",
    "quantile_cap",
    "HybridProblem",
    "hybrid_problem",
    "no_network_problem",
    "SolveReport",
    "random_balanced_design",
    "random_iid_design",
    "solve_exact",
    "solve_local",
    "solve_annealing",
    "AnnealingSchedule",
    "solve",
    "solve_no_network",
]

RELAXATION_LADDER = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5)
SOLVER_METHODS = ("auto", "exact", "local", "annealing")

_FEAS_TOL = 1e-9
_TIE_REL = 1e-10


def _cap_value(m: float, alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must lie in (0, 1), got {alpha}")
    if m <= 0:
        raise DataError("connection cap undefined on an edgeless network")
    return math.sqrt(m) * float(ndtri(alpha))


def quantile_cap(net: Network, alpha: float) -> float:
    """Connection cap q = sqrt(m) * z_alpha (lower-tail standard normal quantile).

    Under iid signs x'Wx has variance 2m, not m, so a random design meets
    the cap with probability about Phi(z_alpha / sqrt(2)), not alpha.
    Small alpha gives a strongly negative cap, forcing many cross-arm
    edges.
    """
    return _cap_value(float(net.m), alpha)


@dataclass(frozen=True, eq=False)
class HybridProblem:
    """Factored minimization instance shared by every solver.

    objective(x) = ||H x||^2; the cap applies to x' W x when W is present.
    psi holds the squared column norms of H, used by incremental moves.
    """

    n: int
    H: np.ndarray
    psi: np.ndarray
    W: Optional[object]
    cap: Optional[float]
    m: float
    rho0: Optional[float]
    alpha: Optional[float]
    kind: str

    def objective(self, x) -> float:
        v = self.H @ as_sign_vector(x)
        return float(v @ v)

    def constraint_value(self, x) -> Optional[float]:
        if self.W is None:
            return None
        xv = as_sign_vector(x)
        return float(xv @ (self.W @ xv))

    def is_feasible(self, x, cap: Optional[float] = None) -> bool:
        xv = as_sign_vector(x)
        if abs(float(xv.sum())) > 1.0 + 1e-12:
            return False
        if self.W is None:
            return True
        q = self.cap if cap is None else cap
        return self.constraint_value(xv) <= q + _FEAS_TOL


def hybrid_problem(
    net: Network, cov: CovariateMatrix, rho0: float, alpha: float
) -> HybridProblem:
    """Kernel-weighted imbalance objective with the level-alpha connection cap."""
    ev = CriterionEvaluator(net, cov, rho0)
    cap = quantile_cap(net, alpha)
    H = np.ascontiguousarray(ev.H)
    return HybridProblem(
        n=net.n,
        H=H,
        psi=np.einsum("ij,ij->j", H, H),
        W=net.adjacency,
        cap=cap,
        m=float(net.m),
        rho0=float(rho0),
        alpha=float(alpha),
        kind="network",
    )


def no_network_problem(cov: CovariateMatrix) -> HybridProblem:
    """Plain Mahalanobis imbalance x' F (F'F)^{-1} F' x, balance only."""
    F = cov.values
    A = F.T @ F
    try:
        La = linalg.cholesky(A, lower=True)
    except linalg.LinAlgError:
        raise RankError("F'F is not positive definite; check covariate rank") from None
    H = np.ascontiguousarray(linalg.solve_triangular(La, F.T, lower=True))
    return HybridProblem(
        n=cov.n,
        H=H,
        psi=np.einsum("ij,ij->j", H, H),
        W=None,
        cap=None,
        m=0.0,
        rho0=None,
        alpha=None,
        kind="covariate_only",
    )


@dataclass(frozen=True, eq=False)
class SolveReport:
    """What a solver found and how.

    objective and constraint_value are recomputed by a fresh evaluation
    pass on the returned design.  optimal is True when an exact search
    completed, False when the time budget cut it short, None for
    heuristics.  iterations is summed over every ladder level tried:
    designs scanned or tree nodes visited (exact), repair and descent
    swaps (local), accepted moves plus those swaps (annealing).
    relaxations_applied lists the ladder levels tried after the requested
    alpha; alpha is the level in force for the reported design.
    wall_time stays in memory only, keeping serialized output
    byte-reproducible.
    """

    design: Optional[Design]
    objective: float
    constraint_value: Optional[float]
    feasible: bool
    optimal: Optional[bool]
    method: str
    iterations: int
    restarts: int
    seed: Optional[int]
    alpha: Optional[float]
    alpha_requested: Optional[float]
    relaxations_applied: tuple
    rho0: Optional[float]
    n: int
    wall_time: float = field(repr=False, default=0.0)

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "design": (
                "".join("+" if v > 0 else "-" for v in self.design.x)
                if self.design is not None
                else ""
            ),
            "objective": self.objective,
            "constraint_value": self.constraint_value,
            "feasible": self.feasible,
            "optimal": self.optimal,
            "method": self.method,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "seed": self.seed,
            "alpha": self.alpha,
            "alpha_requested": self.alpha_requested,
            "relaxations_applied": list(self.relaxations_applied),
            "rho0": self.rho0,
        }


def random_balanced_design(n: int, seed) -> Design:
    """Uniform assignment with arm sizes ceil(n/2) / floor(n/2).

    For odd n the sign of the larger arm is a fair coin.
    """
    if n < 2:
        raise DataError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    k = n // 2
    if n % 2 == 1 and rng.random() < 0.5:
        k += 1
    x = -np.ones(n)
    x[rng.choice(n, size=k, replace=False)] = 1.0
    return Design(x)


def random_iid_design(n: int, seed) -> Design:
    if n < 1:
        raise DataError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return Design(rng.integers(0, 2, size=n) * 2.0 - 1.0)


def _canonical(x: np.ndarray) -> np.ndarray:
    """Quotient the global sign flip: force the first coordinate positive."""
    return x if x[0] > 0 else -x


def _feas_cap(cap: float) -> float:
    return cap + _FEAS_TOL


def _ladder_schedule(problem: HybridProblem, relax: bool):
    """(alpha, cap) pairs to try: the requested level, then the ladder above it."""
    if problem.W is None:
        return [(None, None)]
    levels = [(problem.alpha, problem.cap)]
    if relax:
        for a in RELAXATION_LADDER:
            if a > (problem.alpha or 0.0) + 1e-15:
                levels.append((a, _cap_value(problem.m, a)))
    return levels


def _ladder(problem: HybridProblem, relax: bool, time_budget, attempt, **report_fields):
    """Run attempt(level, cap, deadline) up the alpha ladder; report the first design.

    attempt returns (x or None, iterations, optimal).  The climb stops at
    the first design, after an exact search that was cut short
    (optimal False), or once the deadline has passed; an exact search
    stopped with levels left untried is reported as not optimal.
    iterations is the sum over every level tried.
    """
    started = time.perf_counter()
    deadline = None if time_budget is None else started + time_budget
    relaxations, total = [], 0
    x, alpha_used, optimal = None, None, None
    for level, (alpha, cap) in enumerate(_ladder_schedule(problem, relax)):
        if level > 0:
            if optimal is False or (deadline is not None and time.perf_counter() > deadline):
                if optimal:  # a completed level proves nothing about untried ones
                    optimal = False
                break
            relaxations.append(alpha)
        x, iterations, optimal = attempt(level, cap, deadline)
        total += iterations
        if x is not None:
            alpha_used = alpha
            break
    if x is None:
        obj, cval, design = math.inf, None, None
    else:
        design = Design(_canonical(np.asarray(x, dtype=np.float64)))
        obj = problem.objective(design.x)
        cval = problem.constraint_value(design.x)
    return SolveReport(
        design=design,
        objective=obj,
        constraint_value=cval,
        feasible=x is not None,
        optimal=optimal,
        iterations=total,
        alpha=alpha_used,
        alpha_requested=problem.alpha,
        relaxations_applied=tuple(relaxations),
        rho0=problem.rho0,
        n=problem.n,
        wall_time=time.perf_counter() - started,
        **report_fields,
    )


# ---------------------------------------------------------------------------
# Exact search: exhaustive scan to n = 16, branch and bound to n = 30.


def _enumerate_exact(problem: HybridProblem, cap: Optional[float]):
    """Exhaustive scan over the sign-flip quotient, in lexicographic order.

    Row index equals the lexicographic rank of the tail bits (-1 before
    +1), so the first index attaining the minimum is the canonical
    tie-break winner.
    """
    n = problem.n
    count = 1 << (n - 1)
    shifts = np.arange(n - 2, -1, -1, dtype=np.uint32)
    bits = (np.arange(count, dtype=np.uint32)[:, None] >> shifts[None, :]) & 1
    X = np.empty((count, n))
    X[:, 0] = 1.0
    X[:, 1:] = bits * 2.0 - 1.0
    mask = np.abs(X.sum(axis=1)) <= 1.0 + 1e-12
    if problem.W is not None:
        Wd = problem.W.toarray()
        cvals = np.einsum("ij,ij->i", X @ Wd, X)
        mask &= cvals <= _feas_cap(cap)
    if not mask.any():
        return None, int(count)
    V = X @ problem.H.T
    obj = np.einsum("ij,ij->i", V, V)
    obj = np.where(mask, obj, np.inf)
    best = float(obj.min())
    tie = _TIE_REL * max(1.0, best)
    idx = int(np.flatnonzero(obj <= best + tie)[0])
    return X[idx].copy(), int(count)


def _bnb_exact(problem: HybridProblem, cap: Optional[float], deadline: Optional[float]):
    """Depth-first branch and bound in lexicographic order, x_0 fixed to +1.

    Objective bound: ||H x|| can shrink by at most the summed norms of the
    unassigned columns, so max(0, ||v|| - rad)^2 lower-bounds every
    completion.  Constraint bound: each edge with an unassigned endpoint
    contributes at least -2.  Balance prunes by the exact parity argument.
    Returns (best_x, nodes_visited, truncated).
    """
    n = problem.n
    hcols = np.ascontiguousarray(problem.H.T)  # row i = column i of H
    norms = np.sqrt(problem.psi)
    rad = np.zeros(n + 1)
    rad[:n] = np.cumsum(norms[::-1])[::-1]

    if problem.W is not None:
        Wd = problem.W.toarray()
        capv = _feas_cap(cap)
        undetermined = np.zeros(n + 1)
        iu, ju = np.nonzero(np.triu(Wd))
        for b in ju:
            undetermined[: b + 1] += 1.0
    else:
        Wd = None
        capv = math.inf
        undetermined = np.zeros(n + 1)

    state = {
        "best_obj": math.inf,
        "best_x": None,
        "from_dfs": False,
        "nodes": 0,
        "truncated": False,
    }
    primer = _local_core(problem, cap, restarts=4, seed=0, deadline=deadline)
    if primer[0] is not None:
        state["best_x"] = _canonical(primer[0]).copy()
        state["best_obj"] = primer[1]

    x = np.zeros(n)
    x[0] = 1.0

    def rec(depth: int, v: np.ndarray, psum: float, cpart: float) -> None:
        if state["truncated"]:
            return
        state["nodes"] += 1
        if (
            deadline is not None
            and state["nodes"] % 1024 == 0
            and time.perf_counter() > deadline
        ):
            state["truncated"] = True
            return
        k = n - depth
        apsum = abs(psum)
        if apsum > k + 1:
            return
        if (int(apsum) + k) % 2 == 0 and apsum > k:
            return
        if Wd is not None and cpart - 2.0 * undetermined[depth] > capv:
            return
        nv = float(np.linalg.norm(v))
        lb = max(0.0, nv - rad[depth]) ** 2
        tie = _TIE_REL * max(1.0, min(state["best_obj"], 1e300))
        if state["from_dfs"]:
            if lb >= state["best_obj"] - tie:
                return
        elif lb > state["best_obj"] + tie:
            return
        if depth == n:
            obj = nv * nv
            if obj < state["best_obj"] - tie or (
                not state["from_dfs"] and obj <= state["best_obj"] + tie
            ):
                state["best_obj"] = obj
                state["best_x"] = x.copy()
                state["from_dfs"] = True
            return
        row = Wd[depth, :depth] if Wd is not None else None
        for sign in (-1.0, 1.0):
            x[depth] = sign
            dc = 2.0 * sign * float(row @ x[:depth]) if Wd is not None else 0.0
            rec(depth + 1, v + sign * hcols[depth], psum + sign, cpart + dc)
            if state["truncated"]:
                break
        x[depth] = 0.0

    rec(1, hcols[0].copy(), 1.0, 0.0)
    return state["best_x"], state["nodes"], state["truncated"]


def solve_exact(
    problem: HybridProblem,
    time_budget: Optional[float] = None,
    relax: bool = True,
) -> SolveReport:
    """Provably optimal assignment for n up to 30.

    Exhaustive scan of the sign-flip quotient up to n = 16, branch and
    bound above.  Ties resolve to the lexicographically smallest design
    with x_0 = +1.  With relax=True an infeasible cap is retried up the
    alpha ladder; otherwise infeasibility is reported as such.
    """
    if problem.n > 30:
        raise DataError(f"exact search is limited to n <= 30, got n={problem.n}")

    def attempt(level, cap, deadline):
        if problem.n <= 16:
            x, nodes = _enumerate_exact(problem, cap)
            return x, nodes, True
        x, nodes, truncated = _bnb_exact(problem, cap, deadline)
        return x, nodes, not truncated

    return _ladder(problem, relax, time_budget, attempt, method="exact", restarts=0, seed=None)


# ---------------------------------------------------------------------------
# Swap moves: one engine for repair, descent and annealing.


def _cut_delta(s_i, s_j, w_ij):
    """Change in x'Wx when i leaves the plus arm and j the minus arm; s = x * Wx."""
    return -4.0 * (s_i + s_j + 2.0 * w_ij)


def _obj_delta(a_i, a_j, psi_i, psi_j, g_ij):
    """Change in ||Hx||^2 for the same swap; a = H'Hx and g_ij = h_i . h_j.

    Computes -4 (a_i - a_j) + 4 (psi_i - 2 g_ij + psi_j) in place of the
    array g_ij, which it returns: a block needs no temporaries of its own
    size beyond the one for a_i - a_j.
    """
    g_ij *= 2.0
    np.subtract(psi_i, g_ij, out=g_ij)
    g_ij += psi_j
    g_ij *= 4.0
    g_ij += -4.0 * (a_i - a_j)
    return g_ij


def _csr_entries(W, rows):
    """Positions in W.data of the entries of the given rows, row after row, and their counts."""
    start, count = W.indptr[rows], W.indptr[rows + 1] - W.indptr[rows]
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count), count


# Pair scores per block.  A step scores the pairs of as many designs as fit
# in one block with one set of array ops; a design whose pairs alone
# overflow it (n above about 256) takes the row-bound search, which keeps
# memory at O(n) whatever the arm sizes.  Up to one block of pairs,
# scoring them all took less time than the row bounds save.
_BLOCK_ENTRIES = 1 << 14


class _SwapState:
    """R balanced designs, the rows of x, each with v = Hx, obj = ||v||^2, wx = Wx and c = x'Wx.

    x is updated in place; a 1-d x is a stack of one, whose obj and c read
    as numbers.  apply() moves the products of the swapped designs along
    and recomputes a design's from scratch every `resync` of its swaps, so
    rounding drift stays bounded.  best() finds one design's
    lowest-scoring plus x minus pair exactly; given a lower bound on each
    plus row's scores, it scores only the rows whose bound does not exceed
    the best value found so far.  best_swaps() finds the repair or descent
    swap of several designs at once.
    """

    def __init__(self, problem: HybridProblem, x: np.ndarray, resync: int):
        self.H, self.psi, self.W = problem.H, problem.psi, problem.W
        self.Ht = np.ascontiguousarray(problem.H.T)  # row i = column i of H
        self.Wd = None  # dense W, flattened, built for the first stacked cut block
        self.x = x.reshape(-1, problem.n)
        R = self.x.shape[0]
        self.v = np.empty((R, self.H.shape[0]))
        self.objs = np.empty(R)
        if self.W is not None:
            self.wx = np.empty((R, problem.n))
            self.cuts = np.empty(R)
        self.resync, self.swaps = resync, np.zeros(R, dtype=np.int64)
        self.r, self.a = 0, None
        for r in range(R):
            self.sync(r)

    @property
    def obj(self) -> float:
        return float(self.objs[0])

    @property
    def c(self) -> float:
        return float(self.cuts[0])

    def sync(self, r: int = 0) -> None:
        x = self.x[r]
        self.v[r] = self.H @ x
        self.objs[r] = self.v[r] @ self.v[r]
        if self.W is not None:
            self.wx[r] = self.W @ x
            self.cuts[r] = x @ self.wx[r]

    def column_step(self, i, j) -> np.ndarray:
        """Change in v = Hx when plus node i and minus node j swap."""
        return -2.0 * self.Ht[i] + 2.0 * self.Ht[j]

    def apply(self, i, j, d_obj, dc, dv=None, r=0) -> None:
        """Swap plus node i with minus node j in design r, given their objective and cut deltas.

        i, j, d_obj, dc and r may be arrays, one entry per design moved.
        d_obj None leaves v and obj behind until the next sync, for repair,
        which reads neither.  dv, if given, is column_step(i, j) as the
        caller already computed it.
        """
        x, W = self.x, self.W
        x[r, i], x[r, j] = -1.0, 1.0
        if d_obj is not None:
            self.v[r] += self.column_step(i, j) if dv is None else dv
            self.objs[r] += d_obj
        if W is not None:
            self.cuts[r] += dc
            if isinstance(r, np.ndarray):
                for nodes, step in ((i, -2.0), (j, 2.0)):
                    nz, count = _csr_entries(W, nodes)
                    self.wx[np.repeat(r, count), W.indices[nz]] += step * W.data[nz]
            else:  # one design, as an annealing move: slice its two rows of W
                wx = self.wx[r]
                for node, step in ((i, -2.0), (j, 2.0)):
                    lo, hi = W.indptr[node], W.indptr[node + 1]
                    wx[W.indices[lo:hi]] += step * W.data[lo:hi]
        self.swaps[r] += 1
        if isinstance(r, np.ndarray):
            for q in r[self.swaps[r] % self.resync == 0]:
                self.sync(q)
        elif self.swaps[r] % self.resync == 0:
            self.sync(r)

    def obj_delta(self, i: int, j: int, dv: Optional[np.ndarray] = None, r: int = 0) -> float:
        dv = self.column_step(i, j) if dv is None else dv
        return 2.0 * float(self.v[r] @ dv) + float(dv @ dv)

    def cut_delta(self, i: int, j: int, r: int = 0) -> float:
        W, x, wx = self.W, self.x[r], self.wx[r]
        lo, hi = W.indptr[i], W.indptr[i + 1]
        cols = W.indices[lo:hi]
        pos = np.searchsorted(cols, j)
        w_ij = float(W.data[lo + pos]) if pos < cols.size and cols[pos] == j else 0.0
        return _cut_delta(x[i] * wx[i], x[j] * wx[j], w_ij)

    def hv(self) -> np.ndarray:
        """a = H'v of the design best() searches, computed on first use (valid inside best())."""
        if self.a is None:
            self.a = self.v[self.r] @ self.H
        return self.a

    def obj_block(self, P: np.ndarray, minus: np.ndarray) -> np.ndarray:
        """Objective deltas of the swaps P x minus (valid inside best())."""
        a, psi = self.hv(), self.psi
        G = self.H[:, P].T @ self.H[:, minus]
        return _obj_delta(a[P][:, None], a[minus][None, :], psi[P][:, None], psi[minus][None, :], G)

    def obj_row_bounds(self, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
        """Lower bounds on the obj_block values of each plus row (valid inside best()).

        Row i's minimum is 4(psi_i - a_i) + min_j [4(psi_j + a_j) - 8 h_i.h_j],
        one matrix product per block of rows.  The slack covers the
        rounding of this sum and of obj_block's: both together stay below
        (20k + 88) u (max psi + max |a|) for k rows of H and unit
        roundoff u, and the slack is more than five times that.
        """
        H, a, psi = self.H, self.hv(), self.psi
        left = np.ones((plus.size, H.shape[0] + 1))
        left[:, :-1] = H[:, plus].T
        right = np.vstack([-8.0 * H[:, minus], 4.0 * (psi[minus] + a[minus])])
        rows = max(1, _BLOCK_ENTRIES // minus.size)
        buf = np.empty((min(rows, plus.size), minus.size))
        low = np.empty(plus.size)
        for lo in range(0, plus.size, rows):
            block = buf[: min(rows, plus.size - lo)]
            np.matmul(left[lo : lo + rows], right, out=block)
            block.min(axis=1, out=low[lo : lo + rows])
        slack = 64.0 * (H.shape[0] + 4) * np.finfo(float).eps * (
            float(psi.max()) + float(np.abs(a).max())
        )
        return low + 4.0 * (psi[plus] - a[plus]) - slack

    def cut_block(self, P: np.ndarray, minus: np.ndarray) -> np.ndarray:
        """Cut deltas of the swaps P x minus (valid inside best()).

        The weights come straight from W's CSR arrays (sorted, without
        duplicates, as Network.adjacency builds them).
        """
        W, s = self.W, self.s
        nz, count = _csr_entries(W, P)
        col = self.minus_pos[W.indices[nz]]
        keep = col >= 0
        w = np.zeros((P.size, minus.size))
        w[np.repeat(np.arange(P.size), count)[keep], col[keep]] = W.data[nz[keep]]
        return _cut_delta(s[P][:, None], s[minus][None, :], w)

    def cut_row_bounds(self, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
        """Lower bounds on the cut_block values of each plus row (valid inside best()).

        _cut_delta does not increase as s_j or w_ij grow, under rounding
        too, so the largest s on the minus arm and the largest weight
        bound every row exactly.
        """
        heaviest = float(self.W.data.max(initial=0.0))
        return _cut_delta(self.s[plus], float(self.s[minus].max()), heaviest)

    def best(self, score, floor: float, bound=None, r: int = 0):
        """(value, (i, j)) of design r's lowest score(P, minus) below floor, or (floor, None).

        Ties go to the first pair in (plus, minus) order.  bound(plus,
        minus), if given, returns a lower bound on the scores of each plus
        row.  Unless one block holds every pair, rows are then visited in
        ascending bound order, in blocks that double from two rows, and
        the search stops at the first row whose bound exceeds the best
        value found, which leaves the result unchanged.
        """
        x = self.x[r]
        plus = np.flatnonzero(x > 0)
        minus = np.flatnonzero(x < 0)
        self.r, self.a = r, None
        if self.W is not None:
            self.s = x * self.wx[r]
            self.minus_pos = np.full(x.size, -1)
            self.minus_pos[minus] = np.arange(minus.size)
        rows = max(2, _BLOCK_ENTRIES // minus.size)
        if bound is None or rows >= plus.size:  # one block holds every pair
            low, size = np.full(plus.size, -np.inf), rows
        else:
            low, size = bound(plus, minus), 2
        order = np.argsort(low, kind="stable")
        low = low[order]
        best_val, pair = floor, None
        lo = 0
        while lo < plus.size and low[lo] <= best_val:
            hi = lo + max(2, int(np.searchsorted(low[lo : lo + size], best_val, side="right")))
            # numpy scores a lone row by a matrix-vector product, whose
            # rounding differs from the matrix product's: leave none over.
            hi = plus.size if hi >= plus.size - 1 else hi
            P = plus[np.sort(order[lo:hi])]
            block = score(P, minus)
            k = int(np.argmin(block))
            val = float(block.flat[k])
            cand = (int(P[k // minus.size]), int(minus[k % minus.size]))
            if val < best_val or (val == best_val and pair is not None and cand < pair):
                best_val, pair = val, cand
            lo, size = hi, min(2 * size, rows)
        return best_val, pair

    def best_stacked(self, rows: np.ndarray, repair: bool, capv: Optional[float]):
        """The lowest-scoring repair or descent pair of each design in rows, all scored as one stack.

        The designs share their arm sizes, so their pair blocks stack into
        one (designs, plus, minus) array.  Returns (value, i, j, cut delta)
        arrays of the lowest-scoring pair of each design, the first in
        (plus, minus) order.  Every product is the per-design one: a
        stacked matmul runs the same BLAS call for each design.
        """
        X = self.x[rows]
        G, n = X.shape
        at = np.arange(G)
        P = np.nonzero(X > 0)[1].reshape(G, -1)
        M = np.nonzero(X < 0)[1].reshape(G, -1)
        if self.W is not None:
            if self.Wd is None:
                self.Wd = self.W.toarray().ravel()
            S = X * self.wx[rows]
            cut = _cut_delta(
                S[at[:, None], P][:, :, None],
                S[at[:, None], M][:, None, :],
                self.Wd.take(P[:, :, None] * n + M[:, None, :]),
            )
        if repair:
            block = cut
        else:
            A = np.matmul(self.v[rows][:, None, :], self.H)[:, 0]
            block = _obj_delta(
                A[at[:, None], P][:, :, None],
                A[at[:, None], M][:, None, :],
                self.psi[P][:, :, None],
                self.psi[M][:, None, :],
                np.matmul(self.Ht[P], self.H[:, M].transpose(1, 0, 2)),
            )
            if self.W is not None:
                block = np.where(self.cuts[rows][:, None, None] + cut <= capv, block, np.inf)
        k = block.reshape(G, -1).argmin(axis=1)
        p_at, m_at = np.divmod(k, M.shape[1])
        dc = cut[at, p_at, m_at] if self.W is not None else np.zeros(G)
        return block[at, p_at, m_at], P[at, p_at], M[at, m_at], dc

    def best_swaps(self, rows: np.ndarray, repair: bool, capv: Optional[float]):
        """The best swap below its floor of each design in rows: arrays (r, i, j, value, dc).

        Repair lowers x'Wx (floor -1e-12); descent lowers the objective
        (floor -1e-10 max(1, obj)) within the cap.  Designs whose pairs
        fit in one block are scored in stacks of as many as fit; the others
        take the row-bound search one by one.  Designs without a swap below
        their floor are left out.
        """
        floors = np.full(rows.size, -1e-12) if repair else -1e-10 * np.maximum(1.0, self.objs[rows])
        n = self.x.shape[1]
        plus = np.count_nonzero(self.x[rows] > 0, axis=1)
        fits = np.maximum(2, _BLOCK_ENTRIES // (n - plus)) >= plus
        val, dc = np.full(rows.size, np.inf), np.zeros(rows.size)
        i, j = np.zeros(rows.size, dtype=np.int64), np.zeros(rows.size, dtype=np.int64)
        for size in np.unique(plus[fits]):
            same = np.flatnonzero(fits & (plus == size))
            per = max(1, _BLOCK_ENTRIES // int(size * (n - size)))
            for lo in range(0, same.size, per):
                at = same[lo : lo + per]
                val[at], i[at], j[at], dc[at] = self.best_stacked(rows[at], repair, capv)
        for at in np.flatnonzero(~fits):
            r = int(rows[at])

            def descent(P, minus, r=r):
                delta = self.obj_block(P, minus)
                if self.W is not None:
                    delta = np.where(self.cuts[r] + self.cut_block(P, minus) <= capv, delta, np.inf)
                return delta

            if repair:
                val[at], pair = self.best(self.cut_block, floors[at], self.cut_row_bounds, r)
                dc[at] = val[at]
            else:
                val[at], pair = self.best(descent, floors[at], self.obj_row_bounds, r)
                if pair is not None and self.W is not None:
                    dc[at] = self.cut_delta(*pair, r)
            if pair is not None:
                i[at], j[at] = pair
        ok = val < floors
        return rows[ok], i[ok], j[ok], val[ok], dc[ok]


# ---------------------------------------------------------------------------
# Local search: balanced-pair swaps, best improvement, multistart in lockstep.


def _polish(
    problem: HybridProblem,
    cap: Optional[float],
    x: np.ndarray,
    deadline: Optional[float] = None,
):
    """Repair, then descend, every row of x together; returns (best_x or None, best_obj, swaps).

    Each design that violates the cap takes greedy swaps that lower x'Wx
    until it meets the cap, or is dropped when no swap lowers it; then it
    takes best-improvement swaps on the objective, feasibility preserved,
    until none improves.  Every design still moving takes one swap per
    step.  Past the deadline no design takes another descent swap; a
    repair runs to its end.  The best design is the first whose
    recomputed objective is lowest, by more than 1e-15.
    """
    st = _SwapState(problem, x, resync=64)
    capv = _feas_cap(cap) if problem.W is not None else None
    repairing = st.cuts > capv if capv is not None else np.zeros(st.objs.size, dtype=bool)
    descending = ~repairing
    feasible = descending.copy()
    total = 0
    while repairing.any() or descending.any():
        for repair, moving in ((True, repairing), (False, descending)):
            if not repair and deadline is not None and time.perf_counter() > deadline:
                moving[:] = False
            rows = np.flatnonzero(moving)
            if rows.size == 0:
                continue
            r, i, j, val, dc = st.best_swaps(rows, repair, capv)
            st.apply(i, j, None if repair else val, dc, r=r)
            total += r.size
            moving[rows] = False  # no swap left below the floor
            moving[r] = True
            if repair:
                for done in r[st.cuts[r] <= capv]:
                    # Descent starts from fresh products, as a new state would.
                    repairing[done] = False
                    descending[done] = feasible[done] = True
                    st.sync(done)
                    st.swaps[done] = 0
    best_x, best_obj = None, math.inf
    for row in st.x[feasible]:
        obj = problem.objective(row)
        if obj < best_obj - 1e-15:
            best_x, best_obj = row.copy(), obj
    return best_x, best_obj, total


def _local_core(
    problem: HybridProblem,
    cap: Optional[float],
    restarts: int,
    seed: int,
    deadline: Optional[float] = None,
):
    """Multistart repair-then-descend; returns (best_x or None, best_obj, iterations)."""
    rng = np.random.default_rng(seed)
    # One scalar draw per restart keeps the seed stream a prefix of any
    # longer run, so more restarts can only improve the result.
    starts = [random_balanced_design(problem.n, int(rng.integers(0, 2**63 - 1))).x
              for _ in range(restarts)]
    return _polish(problem, cap, np.stack(starts), deadline)


def solve_local(
    problem: HybridProblem,
    restarts: int = 32,
    seed: int = 0,
    time_budget: Optional[float] = None,
    relax: bool = True,
) -> SolveReport:
    """Multistart best-improvement swap descent.

    Each restart draws a balanced design, repairs it into the cap region
    by greedy constraint-lowering swaps, then descends on the objective.
    The restarts advance together, one swap each per step; below one
    block of pairs per restart (n up to about 256) the pairs of as many
    restarts as fit in one block are scored together.  The first restart
    with the lowest objective wins, as if they had run one by one.  Once
    time_budget is spent every restart stops descending where it stands
    (a repair in progress still finishes) and the best feasible one is
    reported; restarts no longer go unstarted.  If every restart fails to
    reach feasibility the alpha ladder applies.
    """
    if restarts < 1:
        raise DataError(f"need at least 1 restart, got {restarts}")

    def attempt(level, cap, deadline):
        level_seed = seed if level == 0 else np.random.default_rng((seed, level)).integers(
            0, 2**63 - 1
        )
        x, _, iters = _local_core(problem, cap, restarts, int(level_seed), deadline)
        return x, iters, None

    return _ladder(
        problem, relax, time_budget, attempt, method="local", restarts=restarts, seed=seed
    )


# ---------------------------------------------------------------------------
# Simulated annealing with a quadratic cap penalty.


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling schedule.

    t0=None picks the initial temperature from the spread of sampled move
    deltas; t0=0 degenerates to randomized descent.  The penalty weight
    multiplies by penalty_growth at any temperature reset that ends with
    the cap still violated.
    """

    t0: Optional[float] = None
    cooling: float = 0.92
    n_temps: int = 80
    moves_per_temp: Optional[int] = None
    penalty0: float = 1.0
    penalty_growth: float = 10.0


def _anneal_core(
    problem: HybridProblem,
    cap: Optional[float],
    schedule: AnnealingSchedule,
    rng: np.random.Generator,
    deadline: Optional[float],
):
    n = problem.n
    network = problem.W is not None
    x = random_balanced_design(n, rng).x.copy()
    st = _SwapState(problem, x, resync=1024)
    if network:
        capv = _feas_cap(cap)
    mu = schedule.penalty0
    moves = schedule.moves_per_temp or max(4 * n, 64)
    # Track the best feasible point along the whole trajectory; the final
    # state of a cooled chain is often worse than its best excursion.
    best_x, best_obj = None, math.inf
    if not network or st.c <= capv:
        best_x, best_obj = x.copy(), st.obj

    def viol(cval: float) -> float:
        return max(0.0, cval - cap) if network else 0.0

    def propose():
        while True:
            i = int(rng.integers(n))
            if x[i] > 0:
                break
        while True:
            j = int(rng.integers(n))
            if x[j] < 0:
                break
        return i, j

    if schedule.t0 is None:
        # Calibrate from the magnitude of a few sampled move deltas.
        probe = [abs(st.obj_delta(*propose())) for _ in range(32)]
        t0 = max(1e-9, 2.0 * float(np.mean(probe)))
    else:
        t0 = schedule.t0

    temps = [t0 * schedule.cooling**k for k in range(schedule.n_temps)]
    for t in temps:
        if deadline is not None and time.perf_counter() > deadline:
            break
        for _ in range(moves):
            i, j = propose()
            dv = st.column_step(i, j)
            d_obj = st.obj_delta(i, j, dv)
            if network:
                dc = st.cut_delta(i, j)
                d_pen = mu * (viol(st.c + dc) ** 2 - viol(st.c) ** 2)
            else:
                dc = d_pen = 0.0
            d_total = d_obj + d_pen
            if d_total <= 0.0 or (t > 0.0 and rng.random() < math.exp(-d_total / t)):
                st.apply(i, j, d_obj, dc, dv)
                if (not network or st.c <= capv) and st.obj < best_obj - 1e-12:
                    best_x, best_obj = x.copy(), st.obj
        if network and st.c > capv:
            mu *= schedule.penalty_growth
    return (best_x if best_x is not None else x), int(st.swaps[0])


def solve_annealing(
    problem: HybridProblem,
    schedule: Optional[AnnealingSchedule] = None,
    seed: int = 0,
    time_budget: Optional[float] = None,
    relax: bool = True,
) -> SolveReport:
    """Penalized annealing over balanced swaps, polished by local descent.

    The cap enters as mu * max(0, x'Wx - q)^2; mu escalates whenever a
    temperature ends in violation.  The final point is repaired if needed
    and passed through the descent used by solve_local; only genuinely
    feasible finals are reported feasible.
    """
    schedule = schedule or AnnealingSchedule()

    def attempt(level, cap, deadline):
        rng = np.random.default_rng(seed if level == 0 else (seed, level))
        x, iters = _anneal_core(problem, cap, schedule, rng, deadline)
        x, _, polish_iters = _polish(problem, cap, x[None, :], deadline)
        return x, iters + polish_iters, None

    return _ladder(
        problem, relax, time_budget, attempt, method="annealing", restarts=1, seed=seed
    )


def solve(
    problem: HybridProblem,
    method: str = "auto",
    seed: int = 0,
    restarts: int = 32,
    schedule: Optional[AnnealingSchedule] = None,
    time_budget: Optional[float] = None,
    relax: bool = True,
) -> SolveReport:
    """Dispatch: exact to n = 16, local search to n = 5000, annealing above.

    Local search beat annealing in both time and objective at every size
    measured, up to n = 5000 (perfbench graphs, mean degree 10, p = 10);
    larger sizes were not measured.
    """
    if method == "auto":
        if problem.n <= 16:
            method = "exact"
        elif problem.n <= 5000:
            method = "local"
        else:
            method = "annealing"
    if method == "exact":
        return solve_exact(problem, time_budget=time_budget, relax=relax)
    if method == "local":
        return solve_local(
            problem, restarts=restarts, seed=seed, time_budget=time_budget, relax=relax
        )
    if method == "annealing":
        return solve_annealing(
            problem, schedule=schedule, seed=seed, time_budget=time_budget, relax=relax
        )
    raise DataError(f"unknown method {method!r}; use one of {', '.join(SOLVER_METHODS)}")


def solve_no_network(cov: CovariateMatrix, method: str = "auto", **kwargs) -> SolveReport:
    """Balance-only Mahalanobis minimization over the same move set."""
    return solve(no_network_problem(cov), method=method, **kwargs)
