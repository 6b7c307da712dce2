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
plus x minus pairs exactly.  Repair reads it from the top of s = x * Wx
on each arm and the cross-arm edges of the nodes whose s lies within
twice the largest weight of that top, for every repairing design in one
pass.  The restarts of a multistart solve advance in lockstep, one swap
each per step, scored in stacks with the per-restart arithmetic, so each
takes the swaps it would take alone.  Descent takes the first pair in
(plus, minus) order of lowest score summed in one fixed order.  Below
one block of pairs per restart (n up to about 256) it scores every pair
of a stack, from a table of each node pair's terms.  Above that a lower
bound on each plus row's best delta orders the rows, and rows are scored
only until the next bound exceeds the best delta found by a rounding
window, pairs near the best rescored in the fixed order, six restarts
sharing each product and scoring call, in O(n) memory a restart.  The
bounds are the product that scores the rows rounded to float32, less a
slack E that bounds their rounding error in advance, so they stay valid
and the swaps stay those of a float64 scan.  A covariate-only problem
whose H has few distinct columns (p +/-1 covariates give at most 2^p)
reads a = H'v once per class of identical columns, so a swap's score
depends on its two classes alone, and descent searches the class pairs,
each from the first plus and first minus node of its classes, in
O(C^2 + n) a step.  The restarts of a solve can also run in contiguous
chunks on forked worker processes, with the same result.  Reported
objectives are recomputed by a fresh pass over the returned design,
never copied from solver bookkeeping.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from scipy import linalg

from . import _pool
from .criterion import CriterionEvaluator, _ndtri
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


def _cap_value(m: float, alpha: Optional[float]) -> float:
    if alpha is None or not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must lie in (0, 1), got {alpha}")
    if m <= 0:
        raise DataError("connection cap undefined on an edgeless network")
    return math.sqrt(m) * _ndtri(alpha)


def quantile_cap(net: Network, alpha: float) -> float:
    """Connection cap q = sqrt(m) * z_alpha (lower-tail standard normal quantile).

    Under iid signs x'Wx has variance 2m, not m, so a random design meets
    the cap with probability about Phi(z_alpha / sqrt(2)), not alpha.
    Small alpha gives a strongly negative cap, forcing many cross-arm
    edges.
    """
    return _cap_value(float(net.m), alpha)


class NodeClasses(NamedTuple):
    """Nodes grouped by bit-identical columns of [H; psi]."""

    label: np.ndarray  # each node's class
    order: np.ndarray  # the nodes sorted by class, then index
    starts: np.ndarray  # where each class starts in order
    first: np.ndarray  # each class's first node


@dataclass(frozen=True, eq=False)
class HybridProblem:
    """Factored minimization instance shared by every solver.

    objective(x) = ||H x||^2; the cap applies to x' W x when W is present.
    Built from H, W, rho0 and alpha alone; the rest is derived from them
    once, here: n is the column count of H, psi the squared column norms
    of H (used by incremental moves), m the total degree W.nnz (0 without
    W) and cap = sqrt(m) z_alpha with W, None without.  dataclasses.replace
    derives them again, so they always follow H, W and alpha.
    """

    H: np.ndarray
    W: Optional[object] = None
    rho0: Optional[float] = None
    alpha: Optional[float] = None
    n: int = field(init=False)
    psi: np.ndarray = field(init=False)
    m: float = field(init=False)
    cap: Optional[float] = field(init=False)

    def __post_init__(self):
        m = 0.0 if self.W is None else float(self.W.nnz)
        object.__setattr__(self, "n", self.H.shape[1])
        object.__setattr__(self, "psi", np.einsum("ij,ij->j", self.H, self.H))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "cap", None if self.W is None else _cap_value(m, self.alpha))

    def objective(self, x) -> float:
        v = self.H @ as_sign_vector(x)
        return float(v @ v)

    def constraint_value(self, x) -> Optional[float]:
        if self.W is None:
            return None
        xv = as_sign_vector(x)
        return float(xv @ (self.W @ xv))

    @cached_property
    def classes(self) -> Optional[NodeClasses]:
        """The nodes of a covariate-only problem grouped by bit-identical columns of [H; psi].

        None with W, where a swap's score depends on the nodes' edges too,
        and for C classes with more class pairs than a balanced design has
        node pairs, C^2 > floor(n/2) ceil(n/2), where a class search cannot
        pay (continuous covariates, or many +/-1 ones).
        """
        if self.W is not None:
            return None
        cols = np.vstack([self.H, self.psi]).view(np.uint64)
        _, first, label, count = np.unique(
            cols, axis=1, return_index=True, return_inverse=True, return_counts=True
        )
        if first.size**2 > (self.n // 2) * (self.n - self.n // 2):
            return None
        label = label.ravel()
        return NodeClasses(label, np.argsort(label, kind="stable"), np.cumsum(count) - count, first)


def hybrid_problem(
    net: Network, cov: CovariateMatrix, rho0: float, alpha: float
) -> HybridProblem:
    """Kernel-weighted imbalance objective with the level-alpha connection cap."""
    ev = CriterionEvaluator(net, cov, rho0)
    alpha = None if alpha is None else float(alpha)  # None: HybridProblem's DataError
    return HybridProblem(np.ascontiguousarray(ev.H), net.adjacency, float(rho0), alpha)


def no_network_problem(cov: CovariateMatrix) -> HybridProblem:
    """Plain Mahalanobis imbalance x' F (F'F)^{-1} F' x, balance only."""
    F = cov.values
    A = F.T @ F
    try:
        La = linalg.cholesky(A, lower=True)
    except linalg.LinAlgError:
        raise RankError("F'F is not positive definite; check covariate rank") from None
    return HybridProblem(np.ascontiguousarray(linalg.solve_triangular(La, F.T, lower=True)))


@dataclass(frozen=True, eq=False)
class SolveReport:
    """What a solver found and how.

    objective and constraint_value are recomputed by a fresh evaluation
    pass on the returned design.  optimal is True when an exact search
    completed, False when the time budget cut it short, None for
    heuristics.  iterations is summed over every ladder level tried:
    balanced designs scored (exact), repair and descent swaps (local),
    accepted moves plus those swaps (annealing).
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
    return Design(_balanced_signs(n, seed))


def _balanced_signs(n: int, seed) -> np.ndarray:
    """The signs of random_balanced_design(n, seed), as a plain writable array."""
    rng = np.random.default_rng(seed)
    k = n // 2
    if n % 2 == 1 and rng.random() < 0.5:
        k += 1
    x = -np.ones(n)
    x[rng.choice(n, size=k, replace=False)] = 1.0
    return x


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
            if a > problem.alpha + 1e-15:
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
# Exact search: head x tail enumeration of the balanced designs, n up to 30.

# Design scores per block of head patterns against one tail group: 2^16 (512 KB
# an array) timed fastest of 2^12 to 2^20 at n = 24, 28 and 30.
_EXACT_BLOCK = 1 << 16


def _sign_patterns(length: int) -> np.ndarray:
    """Every +/-1 vector of the given length, one per row, in lexicographic order (-1 first)."""
    return ((np.arange(1 << length)[:, None] >> np.arange(length - 1, -1, -1)) & 1) * 2.0 - 1.0


def _exact_search(problem: HybridProblem, cap: Optional[float], deadline: Optional[float]):
    """Best balanced design within the cap; returns (x or None, designs scored, completed).

    A design with x_0 = +1 is a head pattern on the first ceil(n/2) nodes
    and a tail pattern on the rest.  A first pass scores blocks of head
    patterns against the tail group that makes |sum x| <= 1 and finds the
    lowest objective within the cap, checking the deadline between blocks.
    A second rescores the blocks that come within _TIE_REL max(1, best) of
    it, skipping those whose first head pattern follows the earliest tie
    yet, and takes the lexicographically first design there.  The tolerance
    is absolute near zero, where cancellation reads a zero objective as -1e-15.
    """
    n, h = problem.n, (problem.n + 1) // 2
    head, tail = _sign_patterns(h)[1 << (h - 1) :], _sign_patterns(n - h)
    # Tail patterns grouped by plus count, lexicographic within a group.
    tail = tail[np.argsort((tail > 0).sum(axis=1), kind="stable")]
    tplus = (tail > 0).sum(axis=1)

    def quadratic(Q):
        # x'Qx = [2 x_h'Q_ht, x_h'Q_hh x_h, 1] . [x_t, 1, x_t'Q_tt x_t]: one product a block.
        ch, ct = ((head @ Q[:h, :h]) * head).sum(axis=1), ((tail @ Q[h:, h:]) * tail).sum(axis=1)
        return (np.column_stack([2.0 * head @ Q[:h, h:], ch, np.ones(len(head))]),
                np.column_stack([tail, np.ones(len(tail)), ct]))

    objective = quadratic(problem.H.T @ problem.H)
    if problem.W is not None:
        cut, capv = quadratic(problem.W.toarray()), _feas_cap(cap)

    hplus, blocks = (head > 0).sum(axis=1), []
    for kh in range(1, h + 1):
        rows = np.flatnonzero(hplus == kh)
        for kt in sorted({n // 2 - kh, (n + 1) // 2 - kh} & set(range(n - h + 1))):
            c0, c1 = np.searchsorted(tplus, [kt, kt + 1]).tolist()
            step = max(1, _EXACT_BLOCK // (c1 - c0))
            blocks += [(rows[lo : lo + step], c0, c1) for lo in range(0, rows.size, step)]

    def score(rows, c0, c1):
        """Objectives of head patterns rows with tail patterns c0:c1, inf above the cap."""
        obj = objective[0][rows] @ objective[1][c0:c1].T
        if problem.W is not None:
            obj[cut[0][rows] @ cut[1][c0:c1].T > capv] = np.inf
        return obj

    lows, scored = [], 0
    for b, (rows, c0, c1) in enumerate(blocks):
        if b and deadline is not None and time.perf_counter() > deadline:
            break
        lows.append(float(score(rows, c0, c1).min()))
        scored += rows.size * (c1 - c0)
    completed, best = len(lows) == len(blocks), min(lows, default=math.inf)
    if best == math.inf:
        return None, scored, completed
    near, first = best + _TIE_REL * max(1.0, best), (math.inf,)
    for (rows, c0, c1), low in zip(blocks, lows):
        if low <= near and tuple(head[rows[0]]) <= first[:h]:
            r, c = divmod(int(np.argmax(score(rows, c0, c1) <= near)), c1 - c0)
            first = min(first, tuple(head[rows[r]]) + tuple(tail[c0 + c]))
    return np.array(first), scored, completed


def solve_exact(
    problem: HybridProblem,
    time_budget: Optional[float] = None,
    relax: bool = True,
) -> SolveReport:
    """Provably optimal assignment for n up to 30.

    Scores every balanced design with x_0 = +1, C(29, 14) = 7.8e7 of them
    at n = 30, in blocks of matrix products, and resolves ties to the
    lexicographically smallest.  With relax=True an infeasible cap is
    retried up the alpha ladder; otherwise infeasibility is reported.
    """
    if problem.n > 30:
        raise DataError(f"exact search is limited to n <= 30, got n={problem.n}")

    def attempt(level, cap, deadline):
        return _exact_search(problem, cap, deadline)

    return _ladder(problem, relax, time_budget, attempt, method="exact", restarts=0, seed=None)


# ---------------------------------------------------------------------------
# Swap moves: one engine for repair, descent and annealing.


def _cut_delta(s_i, s_j, w_ij):
    """Change in x'Wx when i leaves the plus arm and j the minus arm; s = x * Wx."""
    return -4.0 * (s_i + s_j + 2.0 * w_ij)


def _csr_entries(W, rows):
    """Positions in W.data of the entries of the given rows, row after row, and their counts."""
    start, count = W.indptr[rows], W.indptr[rows + 1] - W.indptr[rows]
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count), count


# Pair scores per block.  A step scores the pairs of as many designs as fit
# in one block with one set of array ops; a design whose pairs alone
# overflow it (n above about 256) takes the row-bound search, which keeps
# memory at O(n) whatever the arm sizes.  Up to one block of pairs,
# scoring them all took less time than the row bounds save.  Both searches
# take the same swap, so these constants set the speed alone.  The float32
# row bounds fill twice as many rows, at least 16, as one block of pairs:
# at n = 5000 (a 6-design stack of 2500-entry rows) 16 rows, 0.96 MB, timed
# 8.8 ms against 10.4 ms for 32 on one core of a 2-vCPU Xeon VM.
_BLOCK_ENTRIES = 1 << 14

# Class pairs per node pair up to which a covariate-only design's swaps are
# searched per class pair (best_classes) rather than per node pair.  Both take
# the same swap, so it sets the speed alone.  16-restart solves on +/-1
# covariates, one core of a 2-vCPU Xeon VM: at C^2 / kl 0.25-0.38 the class
# search took 0.5-0.9 of the time from n = 200 to 4000; at 0.76-0.8 (n 1000
# and 2000) it took 1.4-2.7 times as long.
_CLASS_SHARE = 0.25

# Large designs per row-bound search: at n = 1000, stacks of 6 and 8 timed fastest
# of 4 to 32, and 6 peaked at 1.6 MB of transient arrays against 2.2 MB for 8.
_STACK_DESIGNS = 6


def _pick(arrays, at):
    """The entries at of each array in a tuple, None left as None."""
    return tuple(None if a is None else a[at] for a in arrays)


class _SwapState:
    """R balanced designs, the rows of x, each with v = Hx, obj = ||v||^2, wx = Wx and c = x'Wx.

    x is updated in place; a 1-d x is a stack of one, whose obj and c read
    as numbers.  apply() moves the products of the swapped designs along
    and recomputes a design's from scratch every `resync` of its swaps, so
    rounding drift stays bounded.  best_repairs() finds repair swaps and
    best_swaps() descent swaps, through pairs(), the scorer of a stack of
    designs that share their arm sizes: best_stacked() scores every pair,
    best() only the plus rows whose obj_row_bounds(), the float32 rounding
    of the product that scores them, comes within window() of the best
    value found so far; covariate-only problems with few classes of
    identical columns of H take best_classes() instead, over class pairs.
    All take the first canonical() minimum, so the search taken never
    changes the swap.
    """

    def __init__(self, problem: HybridProblem, x: np.ndarray, resync: int):
        self.H, self.psi, self.W = problem.H, problem.psi, problem.W
        self.Ht = np.ascontiguousarray(problem.H.T)  # row i = column i of H
        self.Ht1 = None  # float32 [Ht 1], built by the first obj_row_bounds()
        self.table = self.Wd = None  # terms() of each node pair and W, flat, for pairs()
        # Covariate-only with few classes: the classes, H's column of each and terms() of each pair.
        self.classes, self.ctable = problem.classes, None
        self.Hc = None if self.classes is None else self.H[:, self.classes.first]
        # Twice the largest weight: how far below the top s of its arm an
        # endpoint of a repair edge that can beat the top pair may lie.
        self.reach = None if self.W is None else 2.0 * float(self.W.data.max(initial=0.0))
        self.x = x.reshape(-1, problem.n)
        R = self.x.shape[0]
        self.v = np.empty((R, self.H.shape[0]))
        self.objs = np.empty(R)
        if self.W is not None:
            self.wx = np.empty((R, problem.n))
            self.cuts = np.empty(R)
        self.resync, self.swaps = resync, np.zeros(R, dtype=np.int64)
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

    def best_repairs(self, rows: np.ndarray):
        """The swap lowering x'Wx most of each design in rows: arrays (r, i, j, dc).

        dc = -4 (s_i + s_j + 2 w_ij) is exact for nonnegative integer weights
        (0/1 in a Network), so a scan of every pair takes the first top-s plus
        node i* with the first top-s minus node j*, or a cross-arm edge that
        scores lower or ties it earlier in (plus, minus) order.  Such an edge
        (i, j) has s_i + s_j + 2 w_ij >= s_i* + s_j*, so s_i >= s_i* - 2 w_max
        and s_j >= s_j* - 2 w_max: only the CSR rows of those plus nodes are
        read, and only their heads among those minus nodes scored, in
        (design, plus, minus) order, for every design in one pass; on graphs
        where many nodes tie at the top, such as complete bipartite ones, in
        passes of about _BLOCK_ENTRIES entries, so memory stays O(n + m).
        Designs whose best dc is not below -1e-12 are left out.
        """
        W, at = self.W, np.arange(rows.size)
        S, plus = self.x[rows] * self.wx[rows], self.x[rows] > 0
        top, bottom = np.where(plus, S, -np.inf), np.where(plus, -np.inf, S)
        i, j = top.argmax(axis=1), bottom.argmax(axis=1)
        dc = _cut_delta(S[at, i], S[at, j], 0.0)  # an edge i-j scores lower below
        near = top >= S[at, i, None] - self.reach
        load = np.cumsum(near @ np.diff(W.indptr)) // _BLOCK_ENTRIES
        for group in np.split(at, np.flatnonzero(np.diff(load)) + 1):
            g, tail = np.nonzero(near[group])
            nz, count = _csr_entries(W, tail)
            g, tail, head = np.repeat(group[g], count), np.repeat(tail, count), W.indices[nz]
            keep = bottom[g, head] >= S[g, j[g]] - self.reach
            g, tail, head = g[keep], tail[keep], head[keep]
            cut = _cut_delta(S[g, tail], S[g, head], W.data[nz[keep]])
            lead = np.lexsort((cut, g))  # stable: ties keep (plus, minus) order
            lead = lead[np.diff(g[lead], prepend=-1) != 0]  # each design's first lowest edge
            g, v, ei, ej = g[lead], cut[lead], tail[lead], head[lead]
            win = (v < dc[g]) | ((v == dc[g]) & ((ei < i[g]) | ((ei == i[g]) & (ej < j[g]))))
            g = g[win]
            dc[g], i[g], j[g] = v[win], ei[win], ej[win]
        ok = dc < -1e-12
        return rows[ok], i[ok], j[ok], dc[ok]

    def focus(self, rows: np.ndarray):
        """(P, M, A, S) of the designs in rows, which share their arm sizes.

        P and M hold each design's plus and minus nodes, (G, k) and (G, l);
        A its a = H'v and S its s = x * Wx (None without W), both (G, n).
        Covariate-only problems with node classes read a from class_a(), so
        nodes of one class get the same bits of a and pairs of the same two
        classes tie exactly.
        The methods that take arms also take them followed by their
        gather_minus(), which a stack then gathers once for all its calls.
        """
        X = self.x[rows]
        G, n = X.shape
        if self.classes is None:
            A = np.matmul(self.v[rows][:, None, :], self.H)[:, 0]
        else:
            A = self.class_a(rows)[:, self.classes.label]
        S = X * self.wx[rows] if self.W is not None else None
        P = np.flatnonzero(X > 0).reshape(G, -1) % n
        return P, np.flatnonzero(X < 0).reshape(G, -1) % n, A, S

    def class_a(self, rows: np.ndarray) -> np.ndarray:
        """a = H'v of the designs in rows at each class, (G, C), summed left to right over H's rows.

        The products are reduced over a middle axis, one row after another for
        every class alike, so a class's bits depend on its column alone.
        """
        return np.multiply(self.v[rows][:, :, None], self.Hc).sum(axis=1)

    def gather_minus(self, arms):
        """What the row-bound search reads of the minus arms of arms: (s_j, right, pos).

        right, (G, q, l), is [-8 h_j; c_j], c_j = 4 (psi_j + a_j), q = rows of H + 1:
        the float64 operand that pairs() scores and obj_row_bounds() rounds to
        float32.  s_j, (G, 1, l), and pos, (G, n), each node's column in each
        design's minus arm for weights(), are None without W.  Returns arms[4:]
        when arms already carries them.
        """
        if len(arms) > 4:
            return arms[4:]
        _, M, A, S = arms
        (G, l), n = M.shape, self.x.shape[1]
        at = np.arange(G)[:, None]
        s_j = pos = None
        if S is not None:
            pos = np.full((G, n), -1)
            pos[at, M] = np.arange(l)
            s_j = S[at, M][:, None, :]
        right = np.empty((G, self.H.shape[0] + 1, l))
        np.multiply(self.Ht[M].transpose(0, 2, 1), -8.0, out=right[:, :-1])
        right[:, -1] = 4.0 * (self.psi[M] + A[at, M])
        return s_j, right, pos

    def weights(self, P: np.ndarray, M: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """w_ij of the pairs P x M, (G, k, l), from W's CSR rows.

        W's rows are sorted, without duplicates, as Network.adjacency builds
        them; pos holds each design's node-to-minus-column map, so memory
        stays O(n) a design.
        """
        nz, count = _csr_entries(self.W, P.ravel())
        row = np.repeat(np.arange(P.size), count)
        col = pos[row // P.shape[1], self.W.indices[nz]]
        keep = col >= 0
        w = np.zeros((P.size, M.shape[1]))
        w[row[keep], col[keep]] = self.W.data[nz[keep]]
        return w.reshape(P.shape + M.shape[1:])

    def pairs(self, rows: np.ndarray, arms, capv: Optional[float]):
        """(score, cut) blocks, (G, k, l), of the swaps P x M of the designs in rows.

        arms is (P, M, A, S) as focus returns it, for every plus row or a
        subset, followed by their gather_minus() or not.  The score is the
        objective delta, inf where the cut would take x'Wx above capv; cut is
        None without W.  Designs whose pairs fit one block (n up to about
        256) read terms() and w_ij from n * n tables, 0.5 MB each, so their
        scores are canonical() bit for bit; larger ones score h_i . [-8 h_j]
        + c_j + 4 (psi_i - a_i) from gather_minus() in a stacked matmul, the
        same BLAS call for each design, and w_ij from weights().
        """
        P, M, A, S = arms[:4]
        (G, l), n = M.shape, self.x.shape[1]
        at = np.arange(G)[:, None]
        if (n - l) * l <= _BLOCK_ENTRIES:
            if self.table is None:
                self.table = self.terms(np.arange(n)[:, None], np.arange(n)).ravel()
                self.Wd = None if self.W is None else self.W.toarray().ravel()
            flat = P[:, :, None] * n + M[:, None, :]
            score = self.table.take(flat)
            score -= 4.0 * (A[at, P][:, :, None] - A[at, M][:, None, :])
            s_j, w = (None, None) if S is None else (S[at, M][:, None, :], self.Wd.take(flat))
        else:
            s_j, right, pos = self.gather_minus(arms)
            score = np.matmul(self.Ht[P], right[:, :-1])
            score += right[:, -1:]
            score += 4.0 * (self.psi[P] - A[at, P])[:, :, None]
            w = None if S is None else self.weights(P, M, pos)
        cut = None
        if S is not None:
            cut = _cut_delta(S[at, P][:, :, None], s_j, w)
            score = np.where(self.cuts[rows][:, None, None] + cut <= capv, score, np.inf)
        return score, cut

    def window(self, A: np.ndarray) -> np.ndarray:
        """Rounding window w = 64 (k + 4) eps S of designs whose a are A's rows, S = max psi + max |a|.

        To first order in u = eps / 2 (Higham 2002, ch. 3), canonical() lies within
        (8k + 44) u S of a pair's exact delta and a pairs() block score, its k-term product
        summed in any order, within (8k + 36) u S: they differ by (16k + 80) u S < w / 2 at
        most.  A row bound's float64 rest adds 20 u S, so before its window and the float32
        slack of obj_row_bounds() it lies within (8k + 56) u S < w of its row's scores.
        """
        scale = float(self.psi.max()) + np.abs(A).max(axis=1)
        return 64.0 * (self.H.shape[0] + 4) * np.finfo(float).eps * scale

    def terms(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """4 (psi_i - 2 h_i.h_j + psi_j) of pairs (i, j), broadcast, with h_i.h_j summed left to right."""
        dot = self.H[0].take(i) * self.H[0].take(j)
        for h in self.H[1:]:
            dot += h.take(i) * h.take(j)
        dot *= 2.0
        np.subtract(self.psi.take(i), dot, out=dot)
        dot += self.psi.take(j)
        dot *= 4.0
        return dot

    def canonical(self, A: np.ndarray, g: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Objective deltas of swaps (i, j) of designs g, a = A[g], from terms() in one fixed order."""
        score = self.terms(i, j)
        score -= 4.0 * (A[g, i] - A[g, j])
        return score

    def obj_row_bounds(self, arms) -> np.ndarray:
        """Lower bounds, (G, k), on the descent scores of each plus row of each design in arms.

        Row i's minimum is 4(psi_i - a_i) + min_j t_ij, t_ij = c_j - 8 h_i.h_j with
        c_j = 4(psi_j + a_j), the product pairs() scores in float64: here gather_minus()'s
        operand [-8 h_j; c_j], q = rows of H + 1 long, rounded to float32, in one stacked
        float32 matrix product with [h_i 1] per block of twice the rows of a block of
        pairs, at least 16, and its row minima in float32, less window(), which
        covers the float64 rest, and less a slack E for float32.
        With u = 2^-24, rounding each input to float32 costs a factor (1 + u) and
        the q-term sum in any order, FMA or not, gamma_q (Higham 2002, ch. 3), so
        |fl(t_ij) - t_ij| <= gamma_{q+2} (8 sum_r |h_ri h_rj| + |c_j|), where
        sum_r |h_ri h_rj| <= sqrt(psi_i psi_j) <= max psi by Cauchy-Schwarz.
        Hence E = 1.01 (q + 4) u (8 max psi + max_j |c_j|) for each design, plus
        10 (q + 1) (1 + sqrt(max psi)) 2^-126 for terms that underflow, even
        flushed to zero.  A minimum adds no rounding, so a bound lies at most
        2 (E + window()) below its row's lowest float64 score.  H'H <= R in the
        positive semidefinite order gives psi_i <= d_i and |a_j| <= n max d, far
        inside float32 range on any graph.
        """
        P, A = arms[0], arms[2]
        right = self.gather_minus(arms)[1]
        (G, k), (q, l) = P.shape, right.shape[1:]
        if self.Ht1 is None:
            self.Ht1 = np.hstack([self.Ht, np.ones((self.Ht.shape[0], 1))]).astype(np.float32)
        c, right = right[:, -1], right.astype(np.float32)
        left = self.Ht1[P]
        rows = max(16, 2 * _BLOCK_ENTRIES // l)
        buf = np.empty((G, min(rows, k), l), dtype=np.float32)
        low = np.empty((G, k), dtype=np.float32)
        for lo in range(0, k, rows):
            block = buf[:, : min(rows, k - lo)]
            np.matmul(left[:, lo : lo + rows], right, out=block)
            block.min(axis=2, out=low[:, lo : lo + rows])
        psi_max = float(self.psi.max())
        slack = 1.01 * (q + 4) * 2.0**-24 * (8.0 * psi_max + np.abs(c).max(axis=1))
        slack += 10.0 * (q + 1) * (1.0 + math.sqrt(psi_max)) * 2.0**-126
        at = np.arange(G)[:, None]
        return low + 4.0 * (self.psi[P] - A[at, P]) - (self.window(A) + slack)[:, None]

    def best(self, rows: np.ndarray, arms, capv: Optional[float], floors, low: np.ndarray):
        """Each design's lowest pair below its floor: arrays (value, i, j, cut delta).

        value is the canonical() score, ties going to the first pair in
        (plus, minus) order; a design without one gets (floor, -1, -1, 0).
        rows is a stack of designs that share their arm sizes, arms their
        focus and low (G, k) a lower bound on each plus row's block scores.
        The designs visit their rows in ascending bound order, one pairs()
        call a round, in blocks that double from two rows, while the bound is
        within window() w of their best value.  Pairs within w of the lowest
        score so far are rescored by canonical(), less than w / 2 from a
        block score, so no block layout changes the result.
        """
        arms = arms[:4] + self.gather_minus(arms)
        P, M, A = arms[:3]
        (G, k), l, n = P.shape, M.shape[1], self.x.shape[1]
        w = self.window(A)
        at, order = np.arange(G), np.argsort(low, axis=1, kind="stable")
        most = max(1, _BLOCK_ENTRIES // l)  # rows a block may take
        low = np.hstack([low[at[:, None], order], np.full((G, most), np.nan)])
        val, key, dc = np.array(floors, dtype=float), np.full(G, -1), np.zeros(G)
        lo, size = np.zeros(G, dtype=np.int64), min(2, most)
        while (live := np.flatnonzero(low[at, lo] <= val + w)).size:
            span = lo[live, None] + np.arange(size)
            span = span[:, : (low[live[:, None], span] <= (val + w)[live, None]).sum(1).max()]
            b = P[live[:, None], order[live[:, None], np.minimum(span, k - 1)]]
            block, cut = self.pairs(rows[live], (b,) + _pick(arms[1:], live), capv)
            lo[live], size = span[:, -1] + 1, min(2 * size, most)
            bar = np.minimum(val[live], block.min(axis=(1, 2))) + w[live]
            s, p, m = np.nonzero(block <= bar[:, None, None])
            d, pair = live[s], b[s, p] * n + M[live[s], m]
            v = np.where(block[s, p, m] < np.inf, self.canonical(A, d, pair // n, pair % n), np.inf)
            was = val.copy()
            np.minimum.at(val, d, v)
            key[val < was] = n * n  # key = i n + j of the best pair, -1 for none
            tied = v == val[d]
            np.minimum.at(key, d[tied], pair[tied])
            hit = tied & (pair == key[d])
            dc[d[hit]] = 0.0 if cut is None else cut[s[hit], p[hit], m[hit]]
        i, j = np.divmod(key, n)
        return val, i, np.where(key < 0, -1, j), dc

    def best_stacked(self, rows: np.ndarray, arms, capv: Optional[float]):
        """The lowest-scoring pair of each design in rows, every plus node scored as one stack.

        Returns (value, i, j, cut delta) arrays, the first lowest canonical()
        score in (plus, minus) order for each design; arms is focus(rows).
        """
        block, cut = self.pairs(rows, arms, capv)
        at = np.arange(rows.size)
        p_at, m_at = np.divmod(block.reshape(rows.size, -1).argmin(axis=1), block.shape[2])
        dc = cut[at, p_at, m_at] if cut is not None else np.zeros(rows.size)
        return block[at, p_at, m_at], arms[0][at, p_at], arms[1][at, m_at], dc

    def best_classes(self, rows: np.ndarray):
        """The first lowest canonical() score of each design in rows, read per class pair.

        Returns (value, i, j) arrays, for a problem with classes: every plus
        node of class c with every minus node of class d scores terms() of
        the class pair, from a C x C table built once, less 4 (a_c - a_d)
        from class_a(), canonical() bit for bit.  So the first such pair in
        (plus, minus) order is the first plus node of c with the first minus
        node of d, and ties between class pairs go to the smallest (i, j):
        O(C^2 + n) a design, the class pairs scored in blocks of _BLOCK_ENTRIES.
        """
        _, order, starts, first = self.classes
        n = self.x.shape[1]
        if self.ctable is None:
            self.ctable = self.terms(first[:, None], first)
        plus = self.x[rows][:, order] > 0
        # Each class's first plus and first minus node in each design, n if it has none.
        fp = np.minimum.reduceat(np.where(plus, order, n), starts, axis=1)
        fm = np.minimum.reduceat(np.where(plus, n, order), starts, axis=1)
        # A class with no plus node scores +inf as c, one with no minus node as d.
        a = self.class_a(rows)
        ap, am = np.where(fp < n, a, -np.inf)[:, :, None], np.where(fm < n, a, np.inf)[:, None, :]
        G, C = a.shape
        val, key = np.full(G, np.inf), np.full(G, n * n)  # key = i n + j of the best pair
        step = max(1, _BLOCK_ENTRIES // (G * C))  # classes c a block of class pairs takes
        for lo in range(0, C, step):
            score = np.subtract(ap[:, lo : lo + step], am)
            score *= 4.0
            np.subtract(self.ctable[lo : lo + step], score, out=score)
            low = score.min(axis=(1, 2))
            key[low < val] = n * n
            np.minimum(val, low, out=val)
            g, c, d = np.nonzero(score == val[:, None, None])
            np.minimum.at(key, g, fp[g, lo + c] * n + fm[g, d])
        i, j = np.divmod(key, n)
        return val, i, j

    def best_swaps(self, rows: np.ndarray, capv: Optional[float]):
        """The best descent swap of each design in rows: arrays (r, i, j, value, dc).

        A swap must lower the objective by more than 1e-10 max(1, obj) within
        capv; the first lowest canonical() score is taken.  Covariate-only
        designs with few node classes against their pairs (C^2 <= _CLASS_SHARE
        k l) go to best_classes(), in stacks of as many as fit in one block of
        class pairs.  The others of each arm size are scored together: those
        whose pairs fit in one block in stacks of as many as fit, the rest in
        stacks of _STACK_DESIGNS, each one row-bound search.  Designs without
        such a swap are left out.
        """
        floors = -1e-10 * np.maximum(1.0, self.objs[rows])
        n = self.x.shape[1]
        plus = np.count_nonzero(self.x[rows] > 0, axis=1)
        val, dc = np.empty(rows.size), np.zeros(rows.size)
        i, j = np.empty(rows.size, dtype=np.int64), np.empty(rows.size, dtype=np.int64)
        C = 0 if self.classes is None else self.classes.first.size
        by_class = (C > 0) & (C * C <= _CLASS_SHARE * plus * (n - plus))
        same, per = np.flatnonzero(by_class), max(1, _BLOCK_ENTRIES // max(1, C * C))
        for lo in range(0, same.size, per):
            at = same[lo : lo + per]
            val[at], i[at], j[at] = self.best_classes(rows[at])
        for size in np.unique(plus[~by_class]).tolist():
            same = np.flatnonzero((plus == size) & ~by_class)
            fits = size * (n - size) <= _BLOCK_ENTRIES
            per = max(1, _BLOCK_ENTRIES // (size * (n - size))) if fits else _STACK_DESIGNS
            for lo in range(0, same.size, per):
                at = same[lo : lo + per]
                arms = self.focus(rows[at])
                if fits:
                    val[at], i[at], j[at], dc[at] = self.best_stacked(rows[at], arms, capv)
                else:
                    arms += self.gather_minus(arms)  # once for the bounds and the search
                    low = self.obj_row_bounds(arms)
                    val[at], i[at], j[at], dc[at] = self.best(rows[at], arms, capv, floors[at], low)
        ok = val < floors
        return rows[ok], i[ok], j[ok], val[ok], dc[ok]


# ---------------------------------------------------------------------------
# Local search: balanced-pair swaps, best improvement, multistart in lockstep.


def _polish_rows(
    problem: HybridProblem,
    cap: Optional[float],
    x: np.ndarray,
    deadline: Optional[float] = None,
):
    """Repair, then descend, every row of x together, in place; returns (x, feasible, swaps).

    Each design over the cap takes greedy swaps that lower x'Wx until it
    meets the cap, or is dropped (feasible False) when none lowers it.
    Then each feasible design takes best-improvement swaps on the
    objective within the cap until none improves, or the deadline, a
    time.perf_counter() value, passes.  Each moving design takes one swap
    a step; swaps counts them over every design.
    """
    st = _SwapState(problem, x, resync=64)
    capv = None if problem.W is None else _feas_cap(cap)
    repairing = np.zeros(st.objs.size, dtype=bool) if capv is None else st.cuts > capv
    feasible, total = ~repairing, 0
    while repairing.any():
        r, i, j, dc = st.best_repairs(np.flatnonzero(repairing))
        st.apply(i, j, None, dc, r=r)
        total += r.size
        repairing[:] = False  # dropped unless it took a swap
        repairing[r] = st.cuts[r] > capv
        feasible[r] = ~repairing[r]
    for r in np.flatnonzero(feasible):  # descent starts from fresh products
        st.sync(r)
    st.swaps[:] = 0
    descending = feasible.copy()
    while descending.any() and (deadline is None or time.perf_counter() <= deadline):
        rows = np.flatnonzero(descending)
        r, i, j, val, dc = st.best_swaps(rows, capv)
        st.apply(i, j, val, dc, r=r)
        total += r.size
        descending[:] = False  # no swap left below the floor
        descending[r] = True
    return st.x, feasible, total


def _first_best(problem: HybridProblem, x: np.ndarray, feasible: np.ndarray):
    """(row or None, objective): the first feasible row of x whose recomputed
    objective is lowest, by more than 1e-15."""
    best_x, best_obj = None, math.inf
    for row in x[feasible]:
        obj = problem.objective(row)
        if obj < best_obj - 1e-15:
            best_x, best_obj = row.copy(), obj
    return best_x, best_obj


def _local_core(
    problem: HybridProblem,
    cap: Optional[float],
    restarts: int,
    seed: int,
    deadline: Optional[float] = None,
    workers: int = 1,
):
    """Multistart repair-then-descend; returns (best_x or None, best_obj, iterations).

    Every start is drawn here.  The restarts go, in contiguous chunks in
    restart order, to _pool.worker_count(workers, restarts) processes
    (_pool.fork_map: this one polishes the first chunk, a forked child
    each other chunk).  A restart never reads another's state, so the
    result, iterations included, is that of one process.
    """
    rng = np.random.default_rng(seed)
    # One scalar draw per restart keeps the seed stream a prefix of any
    # longer run, so more restarts can only improve the result.
    starts = np.empty((restarts, problem.n))
    for r in range(restarts):
        starts[r] = _balanced_signs(problem.n, int(rng.integers(0, 2**63 - 1)))
    workers = _pool.worker_count(workers, restarts)
    parts = _pool.fork_map(
        functools.partial(_polish_rows, problem, cap, deadline=deadline),
        _pool.shares(starts, workers), workers,
    )
    x, feasible, swaps = zip(*parts)
    best_x, best_obj = _first_best(problem, np.concatenate(x), np.concatenate(feasible))
    return best_x, best_obj, sum(swaps)


def solve_local(
    problem: HybridProblem,
    restarts: int = 32,
    seed: int = 0,
    time_budget: Optional[float] = None,
    relax: bool = True,
    workers: int = 1,
) -> SolveReport:
    """Multistart best-improvement swap descent.

    Each restart draws a balanced design, repairs it into the cap region
    by greedy constraint-lowering swaps, then descends on the objective.
    The restarts advance together, one swap each per step, all repairing
    before any descends; below about n = 256 the pairs of as many restarts
    as fit in one block are scored together.  The first restart with the
    lowest objective wins, as if they had run one by one.  Once
    time_budget is spent every restart stops descending where it stands
    and the best feasible one is reported.  If every restart fails to
    reach feasibility the alpha ladder applies.

    workers > 1 splits the restarts into contiguous chunks, one per worker
    process, this one included (no more than the restarts or the usable
    CPUs; with BLAS on one thread each on its own CPU), at any n and on
    any search: a child costs a few ms to start, so a solve shorter than
    that is quicker with workers=1.  The report is the same for any
    count, iterations included, unless a time_budget stops descent,
    which each worker then does at its own step.
    DataError unless workers is an integer of at least 1.
    """
    if restarts < 1:
        raise DataError(f"need at least 1 restart, got {restarts}")
    _pool.check_count(workers, "workers")

    def attempt(level, cap, deadline):
        level_seed = seed if level == 0 else np.random.default_rng((seed, level)).integers(
            0, 2**63 - 1
        )
        x, _, iters = _local_core(problem, cap, restarts, int(level_seed), deadline, workers)
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
    x = _balanced_signs(n, rng)
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
        x, feasible, polish_iters = _polish_rows(problem, cap, x[None, :], deadline)
        return _first_best(problem, x, feasible)[0], iters + polish_iters, None

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
    workers: int = 1,
) -> SolveReport:
    """Dispatch: exact search to n = 30, local search above.

    At n = 22-30 exact search took 0.005-0.65 s, where a 32-restart local
    search returned 1.6-7.1 times the optimum (0.026 against 6e-31 at 30).
    Local search beat annealing in objective and time at every size
    measured up to n = 10,000 (mean degree 10, p = 10).  At n = 12,000 it
    took 32-35 s against 49-50 s on two graphs, and its objective was 0.99
    and 1.53 times annealing's.  workers is passed to solve_local, which
    runs its restarts on up to that many processes, this one and forked
    children (same report for any count); the exact and annealing
    searches run in this process.  DataError unless workers is an
    integer of at least 1.
    """
    _pool.check_count(workers, "workers")
    if method == "auto":
        method = "exact" if problem.n <= 30 else "local"
    if method == "exact":
        return solve_exact(problem, time_budget=time_budget, relax=relax)
    if method == "local":
        return solve_local(
            problem, restarts=restarts, seed=seed, time_budget=time_budget, relax=relax,
            workers=workers,
        )
    if method == "annealing":
        return solve_annealing(
            problem, schedule=schedule, seed=seed, time_budget=time_budget, relax=relax
        )
    raise DataError(f"unknown method {method!r}; use one of {', '.join(SOLVER_METHODS)}")


def solve_no_network(cov: CovariateMatrix, method: str = "auto", **kwargs) -> SolveReport:
    """Balance-only Mahalanobis minimization over the same move set."""
    return solve(no_network_problem(cov), method=method, **kwargs)
