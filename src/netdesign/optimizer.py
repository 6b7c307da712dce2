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
scored only until the next bound exceeds the best delta found.  Reported objectives
are recomputed by a fresh pass over the returned design, never copied
from solver bookkeeping.
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


# Pair scores per block: keeps best() and the row bounds at O(n) memory
# whatever the arm sizes.  Up to one block of pairs (n up to about 256),
# scoring them all took less time than the row bounds save.
_BLOCK_ENTRIES = 1 << 14


class _SwapState:
    """A balanced design x with v = Hx, obj = ||v||^2, wx = Wx and c = x'Wx.

    apply() moves the products along with each swap and recomputes them
    from scratch every `resync` swaps, so rounding drift stays bounded.
    best() finds the lowest-scoring plus x minus pair exactly; given a
    lower bound on each plus row's scores, it scores only the rows whose
    bound does not exceed the best value found so far.
    """

    def __init__(self, problem: HybridProblem, x: np.ndarray, resync: int):
        self.H, self.psi, self.W = problem.H, problem.psi, problem.W
        self.x, self.resync, self.swaps = x, resync, 0
        self.sync()

    def sync(self) -> None:
        self.v = self.H @ self.x
        self.obj = float(self.v @ self.v)
        if self.W is not None:
            self.wx = self.W @ self.x
            self.c = float(self.x @ self.wx)

    def column_step(self, i: int, j: int) -> np.ndarray:
        """Change in v = Hx when plus node i and minus node j swap."""
        return -2.0 * self.H[:, i] + 2.0 * self.H[:, j]

    def apply(
        self, i: int, j: int, d_obj: float, dc: float, dv: Optional[np.ndarray] = None
    ) -> None:
        """Swap plus node i with minus node j, given their objective and cut deltas.

        dv, if given, is column_step(i, j) as the caller already computed it.
        """
        x, W = self.x, self.W
        x[i], x[j] = -1.0, 1.0
        self.v += self.column_step(i, j) if dv is None else dv
        self.obj += d_obj
        if W is not None:
            for node, step in ((i, -2.0), (j, 2.0)):
                lo, hi = W.indptr[node], W.indptr[node + 1]
                self.wx[W.indices[lo:hi]] += step * W.data[lo:hi]
            self.c += dc
        self.swaps += 1
        if self.swaps % self.resync == 0:
            self.sync()

    def obj_delta(self, i: int, j: int, dv: Optional[np.ndarray] = None) -> float:
        dv = self.column_step(i, j) if dv is None else dv
        return 2.0 * float(self.v @ dv) + float(dv @ dv)

    def cut_delta(self, i: int, j: int) -> float:
        W = self.W
        lo, hi = W.indptr[i], W.indptr[i + 1]
        cols = W.indices[lo:hi]
        pos = np.searchsorted(cols, j)
        w_ij = float(W.data[lo + pos]) if pos < cols.size and cols[pos] == j else 0.0
        return _cut_delta(self.x[i] * self.wx[i], self.x[j] * self.wx[j], w_ij)

    def obj_block(self, P: np.ndarray, minus: np.ndarray) -> np.ndarray:
        """Objective deltas of the swaps P x minus (valid inside best())."""
        a, psi = self.a, self.psi
        G = self.H[:, P].T @ self.H[:, minus]
        return -4.0 * (a[P][:, None] - a[minus][None, :]) + 4.0 * (
            psi[P][:, None] - 2.0 * G + psi[minus][None, :]
        )

    def obj_row_bounds(self, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
        """Lower bounds on the obj_block values of each plus row (valid inside best()).

        Row i's minimum is 4(psi_i - a_i) + min_j [4(psi_j + a_j) - 8 h_i.h_j],
        one matrix product per block of rows.  The slack covers the
        rounding of this sum and of obj_block's: both together stay below
        (20k + 88) u (max psi + max |a|) for k rows of H and unit
        roundoff u, and the slack is more than five times that.
        """
        H, a, psi = self.H, self.a, self.psi
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
        start, count = W.indptr[P], W.indptr[P + 1] - W.indptr[P]
        nz = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
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

    def best(self, score, floor: float, bound=None):
        """(value, (i, j)) of the lowest score(P, minus) below floor, or (floor, None).

        Ties go to the first pair in (plus, minus) order.  bound(plus,
        minus), if given, returns a lower bound on the scores of each plus
        row.  Unless one block holds every pair, rows are then visited in
        ascending bound order, in blocks that double from two rows, and
        the search stops at the first row whose bound exceeds the best
        value found, which leaves the result unchanged.
        """
        plus = np.flatnonzero(self.x > 0)
        minus = np.flatnonzero(self.x < 0)
        self.a = self.v @ self.H
        if self.W is not None:
            self.s = self.x * self.wx
            self.minus_pos = np.full(self.x.size, -1)
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


# ---------------------------------------------------------------------------
# Local search: balanced-pair swaps, best improvement, multistart.


def _repair(problem: HybridProblem, cap: float, x: np.ndarray):
    """Greedy swaps that lower x'Wx until it meets the cap; balance preserved."""
    st = _SwapState(problem, x, resync=64)
    capv = _feas_cap(cap)
    while st.c > capv:
        dc, pair = st.best(st.cut_block, -1e-12, st.cut_row_bounds)
        if pair is None:
            return False, x, st.swaps
        st.apply(*pair, st.obj_delta(*pair), dc)
    return True, x, st.swaps


def _descend(
    problem: HybridProblem,
    cap: Optional[float],
    x: np.ndarray,
    deadline: Optional[float] = None,
):
    """Best-improvement swap descent on the objective, feasibility preserved."""
    st = _SwapState(problem, x, resync=64)
    network = problem.W is not None
    capv = _feas_cap(cap) if network else None

    def score(P, minus):
        delta = st.obj_block(P, minus)
        if network:
            delta = np.where(st.c + st.cut_block(P, minus) <= capv, delta, np.inf)
        return delta

    while deadline is None or time.perf_counter() <= deadline:
        d_obj, pair = st.best(score, -1e-10 * max(1.0, st.obj), st.obj_row_bounds)
        if pair is None:
            break
        st.apply(*pair, d_obj, st.cut_delta(*pair) if network else 0.0)
    return x, float(problem.objective(x)), st.swaps


def _local_core(
    problem: HybridProblem,
    cap: Optional[float],
    restarts: int,
    seed: int,
    deadline: Optional[float] = None,
):
    """Multistart repair-then-descend; returns (best_x or None, best_obj, iterations)."""
    rng = np.random.default_rng(seed)
    best_x, best_obj = None, math.inf
    total_iters = 0
    for _ in range(restarts):
        # One scalar draw per restart keeps the seed stream a prefix of any
        # longer run, so more restarts can only improve the result.
        child_seed = int(rng.integers(0, 2**63 - 1))
        if deadline is not None and time.perf_counter() > deadline:
            break
        x = random_balanced_design(problem.n, child_seed).x.copy()
        if problem.W is not None:
            ok, x, rep_iters = _repair(problem, cap, x)
            total_iters += rep_iters
            if not ok:
                continue
        x, obj, iters = _descend(problem, cap, x, deadline)
        total_iters += iters
        if obj < best_obj - 1e-15:
            best_x, best_obj = x.copy(), obj
    return best_x, best_obj, total_iters


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
    If every restart fails to reach feasibility the alpha ladder applies.
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
    return (best_x if best_x is not None else x), st.swaps


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
        if problem.W is not None and not problem.is_feasible(x, cap):
            ok, x, rep_iters = _repair(problem, cap, x)
            iters += rep_iters
            if not ok:
                return None, iters, None
        x, _, desc_iters = _descend(problem, cap, x, deadline)
        return x, iters + desc_iters, None

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
