"""Solver tests against exhaustive enumeration oracles.

The oracles here never touch the factored form used by the solvers: they
rebuild the objective matrix R F (F'R F)^{-1} F' R densely via
numpy.linalg.inv and scan assignments in lexicographic order, so the
tie-break rule is reproduced independently.  The inverse normal CDF is
cross-checked by bisection on math.erf.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse, stats

from netdesign import optimizer
from netdesign.designs import Design
from netdesign.errors import DataError
from netdesign.graph import (
    CovariateMatrix,
    Network,
    generate_bernoulli_network,
    generate_pm1_covariates,
    paired_bipartite_instance,
    repair_isolated,
)
from netdesign.optimizer import (
    RELAXATION_LADDER,
    AnnealingSchedule,
    _SwapState,
    hybrid_problem,
    no_network_problem,
    quantile_cap,
    random_balanced_design,
    random_iid_design,
    solve,
    solve_annealing,
    solve_exact,
    solve_local,
    solve_no_network,
)


def dense_objective_matrix(net, cov, rho0):
    W = net.adjacency.toarray()
    R = np.diag(net.degrees.astype(float)) - rho0 * W
    F = cov.values
    A = F.T @ R @ F
    return R @ F @ np.linalg.inv(A) @ F.T @ R


def brute_force_hybrid(net, cov, rho0, alpha):
    """Lexicographic scan with x_0 = +1; first tie wins. None if infeasible."""
    n = net.n
    M = dense_objective_matrix(net, cov, rho0)
    W = net.adjacency.toarray()
    cap = quantile_cap(net, alpha)
    best_obj, best_x = math.inf, None
    for bits in itertools.product((-1.0, 1.0), repeat=n - 1):
        x = np.array((1.0,) + bits)
        if abs(x.sum()) > 1.0 + 1e-12:
            continue
        if float(x @ W @ x) > cap + 1e-9:
            continue
        obj = float(x @ M @ x)
        if best_x is None or obj < best_obj - 1e-10 * max(1.0, best_obj):
            best_obj, best_x = obj, x
    return best_obj, best_x


def brute_force_no_network(cov):
    n = cov.n
    F = cov.values
    M = F @ np.linalg.inv(F.T @ F) @ F.T
    best_obj, best_x = math.inf, None
    for bits in itertools.product((-1.0, 1.0), repeat=n - 1):
        x = np.array((1.0,) + bits)
        if abs(x.sum()) > 1.0 + 1e-12:
            continue
        obj = float(x @ M @ x)
        if best_x is None or obj < best_obj - 1e-10 * max(1.0, best_obj):
            best_obj, best_x = obj, x
    return best_obj, best_x


def chunked_enumeration(net, cov, rho0, alpha, block=1 << 16):
    """Same scan vectorized in blocks, for n around 20."""
    n = net.n
    M = dense_objective_matrix(net, cov, rho0)
    W = net.adjacency.toarray()
    cap = quantile_cap(net, alpha)
    shifts = np.arange(n - 2, -1, -1, dtype=np.uint64)
    count = 1 << (n - 1)
    best_obj, best_x = math.inf, None
    for start in range(0, count, block):
        idx = np.arange(start, min(start + block, count), dtype=np.uint64)
        bits = (idx[:, None] >> shifts[None, :]) & np.uint64(1)
        X = np.empty((idx.size, n))
        X[:, 0] = 1.0
        X[:, 1:] = bits * 2.0 - 1.0
        mask = np.abs(X.sum(axis=1)) <= 1.0 + 1e-12
        mask &= np.einsum("ij,ij->i", X @ W, X) <= cap + 1e-9
        obj = np.einsum("ij,ij->i", X @ M, X)
        obj = np.where(mask, obj, np.inf)
        j = int(np.argmin(obj))
        val = float(obj[j])
        if val < best_obj - 1e-10 * max(1.0, min(best_obj, val)):
            tie = 1e-10 * max(1.0, val)
            j = int(np.flatnonzero(obj <= val + tie)[0])
            best_obj, best_x = float(obj[j]), X[j].copy()
    return best_obj, best_x


def random_instance(rng, n_lo=6, n_hi=12):
    n = int(rng.integers(n_lo, n_hi + 1))
    net = generate_bernoulli_network(n, 0.45, seed=int(rng.integers(2**31)))
    net = repair_isolated(net, "connect", seed=int(rng.integers(2**31))).network
    p = int(rng.integers(1, 3))
    cov = generate_pm1_covariates(n, p, seed=int(rng.integers(2**31)))
    rho0 = float(rng.uniform(0.0, 0.9))
    alpha = float(rng.choice([0.2, 0.3, 0.5]))
    return net, cov, rho0, alpha


class TestQuantileCap:
    def test_alpha_half_is_zero(self):
        net = Network.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert abs(quantile_cap(net, 0.5)) < 1e-12

    def test_against_erf_bisection(self):
        # Invert Phi(z) = 0.5*(1 + erf(z/sqrt(2))) by bisection.
        net = Network.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        for alpha in (0.001, 0.01, 0.05, 0.3, 0.9, 0.999):
            lo, hi = -10.0, 10.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < alpha:
                    lo = mid
                else:
                    hi = mid
            z = 0.5 * (lo + hi)
            assert quantile_cap(net, alpha) == pytest.approx(
                math.sqrt(6.0) * z, abs=1e-9
            )

    def test_point001_value(self):
        net = Network.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert quantile_cap(net, 0.001) == pytest.approx(
            -3.0902 * math.sqrt(6.0), abs=1e-3
        )

    def test_sqrt_m_scaling(self):
        small = Network.from_edges(3, [(0, 1), (0, 2)])  # m = 4
        big = Network.from_edges(9, [(0, j) for j in range(1, 9)])  # m = 16
        for alpha in (0.01, 0.2, 0.8):
            assert quantile_cap(big, alpha) == pytest.approx(
                2.0 * quantile_cap(small, alpha), rel=1e-12
            )

    def test_alpha_domain(self):
        net = Network.from_edges(3, [(0, 1)])
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DataError):
                quantile_cap(net, bad)


class TestRandomDesigns:
    def test_balanced_even_split(self):
        for seed in range(50):
            x = random_balanced_design(4, seed).x
            assert int((x > 0).sum()) == 2

    def test_balanced_odd_sign_is_fair(self):
        rng = np.random.default_rng(11)
        sums = np.array([random_balanced_design(5, rng).x.sum() for _ in range(10_000)])
        assert set(np.unique(sums)) <= {-1.0, 1.0}
        # binomial(10000, 1/2): 3 sigma = 0.015
        assert abs(np.mean(sums == 1.0) - 0.5) < 0.015

    def test_iid_quadform_clt(self):
        # var(x'Wx) under iid signs is exactly 2m: the form is twice a sum
        # of pairwise-independent unit-variance edge products, so each
        # unordered edge contributes 4.  sqrt(2m) is the scaling that
        # converges to N(0, 1).
        net = generate_bernoulli_network(500, 0.02, seed=7)
        W = net.adjacency.toarray()
        rng = np.random.default_rng(21)
        X = np.array([random_iid_design(500, rng).x for _ in range(2000)])
        vals = np.einsum("ij,ij->i", X @ W, X)
        assert np.var(vals) == pytest.approx(2.0 * net.m, rel=0.1)
        assert stats.kstest(vals / math.sqrt(2.0 * net.m), "norm").pvalue > 0.01

    def test_seed_determinism(self):
        a = random_balanced_design(9, 3).x
        b = random_balanced_design(9, 3).x
        assert np.array_equal(a, b)
        rng = np.random.default_rng(3)
        c = random_balanced_design(9, rng).x
        d = random_balanced_design(9, rng).x
        assert not np.array_equal(c, d)  # generator state advances

    def test_too_small(self):
        with pytest.raises(DataError):
            random_balanced_design(1, 0)


class TestExactSmall:
    def test_path6_matches_brute_force(self):
        net = Network.from_edges(6, [(i, i + 1) for i in range(5)])
        cov = CovariateMatrix.from_raw(np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0]))
        prob = hybrid_problem(net, cov, rho0=0.5, alpha=0.5)
        report = solve_exact(prob)
        obj, x = brute_force_hybrid(net, cov, 0.5, 0.5)
        assert report.feasible and report.optimal
        assert report.objective == pytest.approx(obj, abs=1e-9)
        assert np.array_equal(report.design.x, x)

    def test_random_sweep_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            net, cov, rho0, alpha = random_instance(rng, n_lo=5, n_hi=10)
            prob = hybrid_problem(net, cov, rho0, alpha)
            report = solve_exact(prob, relax=False)
            obj, x = brute_force_hybrid(net, cov, rho0, alpha)
            if x is None:
                assert not report.feasible and report.design is None
                continue
            assert report.objective == pytest.approx(obj, abs=1e-8)
            assert np.array_equal(report.design.x, x)

    def test_triangle_infeasible_detected(self):
        # balanced x on a triangle has x'Wx = -2; cap(0.001) is below that
        net = Network.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        cov = CovariateMatrix.from_raw(np.array([1.0, -1.0, 1.0]))
        prob = hybrid_problem(net, cov, rho0=0.3, alpha=0.001)
        report = solve_exact(prob, relax=False)
        assert not report.feasible
        assert report.design is None
        assert report.optimal

    def test_relaxation_ladder_engages(self):
        net = Network.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        cov = CovariateMatrix.from_raw(np.array([1.0, -1.0, 1.0]))
        prob = hybrid_problem(net, cov, rho0=0.3, alpha=0.001)
        report = solve_exact(prob, relax=True)
        assert report.feasible
        assert report.alpha_requested == 0.001
        assert report.alpha in RELAXATION_LADDER and report.alpha > 0.001
        assert report.relaxations_applied
        assert report.relaxations_applied[-1] == report.alpha

    def test_sign_symmetry_of_values(self):
        rng = np.random.default_rng(5)
        net, cov, rho0, alpha = random_instance(rng)
        prob = hybrid_problem(net, cov, rho0, alpha)
        report = solve_exact(prob)
        x = report.design.x
        assert prob.objective(-x) == pytest.approx(report.objective, rel=1e-12)
        assert prob.constraint_value(-x) == pytest.approx(
            report.constraint_value, rel=1e-12
        )
        assert x[0] > 0  # canonical representative

    def test_spent_budget_proves_nothing_above_level_zero(self):
        # Level 0 completes and is infeasible; with the budget spent the
        # ladder stops, so the report claims neither a design nor optimality.
        net = Network.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        cov = CovariateMatrix.from_raw(np.array([1.0, -1.0, 1.0]))
        prob = hybrid_problem(net, cov, rho0=0.3, alpha=0.001)
        report = solve_exact(prob, time_budget=1e-9)
        assert not report.feasible
        assert report.relaxations_applied == ()
        assert report.optimal is False

    def test_size_guard(self):
        net = repair_isolated(
            generate_bernoulli_network(31, 0.2, seed=0), "connect", seed=0
        ).network
        cov = generate_pm1_covariates(31, 1, seed=1)
        with pytest.raises(DataError):
            solve_exact(hybrid_problem(net, cov, 0.5, 0.5))


class TestBranchAndBound:
    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_matches_chunked_enumeration(self, n):
        net = repair_isolated(
            generate_bernoulli_network(n, 0.25, seed=n), "connect", seed=0
        ).network
        cov = generate_pm1_covariates(n, 2, seed=n + 100)
        rho0, alpha = 0.5, 0.3
        prob = hybrid_problem(net, cov, rho0, alpha)
        report = solve_exact(prob, relax=False)
        obj, x = chunked_enumeration(net, cov, rho0, alpha)
        assert report.feasible and report.optimal
        assert report.objective == pytest.approx(obj, abs=1e-8)
        assert np.array_equal(report.design.x, x)

    def test_complete_graph_ladder(self):
        # K18: every balanced design has x'Wx = (sum x)^2 - n = -18, so the
        # cap only clears at alpha = 0.5 where q = 0.
        n = 18
        net = Network.from_edges(n, list(itertools.combinations(range(n), 2)))
        cov = generate_pm1_covariates(n, 1, seed=2)
        prob = hybrid_problem(net, cov, rho0=0.5, alpha=0.001)
        strict = solve_exact(prob, relax=False)
        assert not strict.feasible
        relaxed = solve_exact(prob, relax=True)
        assert relaxed.feasible
        assert relaxed.alpha == 0.5
        assert relaxed.relaxations_applied == (0.005, 0.01, 0.05, 0.1, 0.5)
        assert relaxed.constraint_value == pytest.approx(-18.0)

    def test_iterations_sum_over_ladder_levels(self):
        # The instance of test_complete_graph_ladder: the strict solve
        # visits nodes before proving infeasibility, and the relaxed solve
        # counts those of every level it climbed through.
        n = 18
        net = Network.from_edges(n, list(itertools.combinations(range(n), 2)))
        cov = generate_pm1_covariates(n, 1, seed=2)
        prob = hybrid_problem(net, cov, rho0=0.5, alpha=0.001)
        strict = solve_exact(prob, relax=False)
        relaxed = solve_exact(prob, relax=True)
        assert relaxed.iterations > strict.iterations > 0

    def test_time_budget_marks_not_optimal(self):
        net = repair_isolated(
            generate_bernoulli_network(30, 0.2, seed=9), "connect", seed=0
        ).network
        cov = generate_pm1_covariates(30, 3, seed=10)
        prob = hybrid_problem(net, cov, 0.5, 0.5)
        report = solve_exact(prob, time_budget=1e-4)
        assert report.optimal is False
        assert (report.design is None) == (not report.feasible)


class TestLocalSearch:
    def test_matches_exact_on_100_instances(self):
        rng = np.random.default_rng(2024)
        equals = 0
        total = 0
        for _ in range(100):
            net, cov, rho0, alpha = random_instance(rng)
            prob = hybrid_problem(net, cov, rho0, alpha)
            exact = solve_exact(prob, relax=False)
            local = solve_local(prob, restarts=32, seed=int(rng.integers(2**31)),
                                relax=False)
            total += 1
            if not exact.feasible:
                assert not local.feasible
                equals += 1
                continue
            assert local.feasible
            gap = local.objective - exact.objective
            assert gap >= -1e-8
            if gap <= 1e-8 * max(1.0, exact.objective):
                equals += 1
            else:
                assert gap <= 0.05 * max(exact.objective, 1e-12)
        assert total == 100
        assert equals >= 90

    def test_more_restarts_never_worse(self):
        net = repair_isolated(
            generate_bernoulli_network(100, 0.05, seed=3), "connect", seed=0
        ).network
        cov = generate_pm1_covariates(100, 2, seed=4)
        prob = hybrid_problem(net, cov, 0.6, 0.1)
        one = solve_local(prob, restarts=1, seed=17)
        twenty = solve_local(prob, restarts=20, seed=17)
        assert twenty.objective <= one.objective + 1e-12

    def test_same_seed_same_report(self):
        net = repair_isolated(
            generate_bernoulli_network(40, 0.1, seed=6), "connect", seed=0
        ).network
        cov = generate_pm1_covariates(40, 2, seed=7)
        prob = hybrid_problem(net, cov, 0.4, 0.1)
        a = solve_local(prob, restarts=8, seed=5)
        b = solve_local(prob, restarts=8, seed=5)
        assert a.to_record() == b.to_record()

    def test_feasibility_reverified(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            net, cov, rho0, alpha = random_instance(rng, n_lo=20, n_hi=40)
            prob = hybrid_problem(net, cov, rho0, alpha)
            report = solve_local(prob, restarts=4, seed=int(rng.integers(2**31)))
            if not report.feasible:
                continue
            x = report.design.x
            assert abs(x.sum()) <= 1.0
            assert float(x @ (net.adjacency @ x)) <= quantile_cap(net, report.alpha) + 1e-9

    def test_ladder_on_strict_cap(self):
        net = Network.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        cov = CovariateMatrix.from_raw(np.array([1.0, -1.0, 1.0]))
        prob = hybrid_problem(net, cov, 0.3, 0.001)
        strict = solve_local(prob, restarts=4, seed=0, relax=False)
        assert not strict.feasible
        relaxed = solve_local(prob, restarts=4, seed=0, relax=True)
        assert relaxed.feasible
        assert relaxed.relaxations_applied

    def test_spent_budget_reports_the_best_start(self):
        # Every restart stops where it stands: here, at its random start.
        prob = no_network_problem(generate_pm1_covariates(40, 3, seed=21))
        report = solve_local(prob, restarts=6, seed=4, time_budget=1e-9)
        assert report.feasible and report.iterations == 0
        rng = np.random.default_rng(4)
        starts = [random_balanced_design(40, int(rng.integers(0, 2**63 - 1))).x
                  for _ in range(6)]
        assert report.objective == min(prob.objective(x) for x in starts)


class TestAnnealing:
    def test_zero_temperature_is_descent(self):
        cov = generate_pm1_covariates(30, 3, seed=13)
        prob = no_network_problem(cov)
        schedule = AnnealingSchedule(t0=0.0, n_temps=10, moves_per_temp=50)
        report = solve_annealing(prob, schedule=schedule, seed=99)
        # reconstruct the starting design from the same generator stream
        start = random_balanced_design(30, np.random.default_rng(99)).x
        assert report.feasible
        assert report.objective <= prob.objective(start) + 1e-9

    def test_matches_exact_on_100_instances(self):
        rng = np.random.default_rng(77)
        equals = 0
        for _ in range(100):
            net, cov, rho0, alpha = random_instance(rng)
            prob = hybrid_problem(net, cov, rho0, alpha)
            exact = solve_exact(prob, relax=False)
            sa = solve_annealing(prob, seed=int(rng.integers(2**31)), relax=False)
            if not exact.feasible:
                assert not sa.feasible
                equals += 1
                continue
            assert sa.feasible
            if sa.objective <= exact.objective + 1e-8 * max(1.0, exact.objective):
                equals += 1
        assert equals >= 85

    def test_penalty_escalation_reaches_feasibility(self):
        net, cov = paired_bipartite_instance(10)
        prob = hybrid_problem(net, cov, 0.5, 0.001)
        report = solve_annealing(prob, seed=1, relax=False)
        assert report.feasible
        assert report.constraint_value <= quantile_cap(net, 0.001) + 1e-9

    def test_same_seed_same_report(self):
        net = repair_isolated(
            generate_bernoulli_network(25, 0.2, seed=14), "connect", seed=0
        ).network
        cov = generate_pm1_covariates(25, 2, seed=15)
        prob = hybrid_problem(net, cov, 0.5, 0.2)
        a = solve_annealing(prob, seed=6)
        b = solve_annealing(prob, seed=6)
        assert a.to_record() == b.to_record()

    def test_spent_budget_stops_the_ladder(self):
        # K18 meets no cap below alpha = 0.5; a spent budget must stop at
        # the requested level instead of repairing up the whole ladder.
        n = 18
        net = Network.from_edges(n, list(itertools.combinations(range(n), 2)))
        cov = generate_pm1_covariates(n, 1, seed=2)
        prob = hybrid_problem(net, cov, rho0=0.5, alpha=0.001)
        report = solve_annealing(prob, seed=0, time_budget=1e-9)
        assert report.relaxations_applied == ()
        assert not report.feasible and report.design is None


class TestSwapDeltas:
    @given(
        n=st.integers(4, 14),
        density=st.floats(0.1, 0.8),
        p=st.integers(1, 3),
        rho0=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_deltas_match_dense_recomputation(self, n, density, p, rho0, seed):
        net = repair_isolated(
            generate_bernoulli_network(n, density, seed=seed), "connect", seed=seed
        ).network
        cov = generate_pm1_covariates(n, p, seed=seed + 1)
        prob = hybrid_problem(net, cov, rho0, 0.5)
        M = dense_objective_matrix(net, cov, rho0)
        W = net.adjacency.toarray()
        x = random_balanced_design(n, seed + 2).x.copy()
        state = _SwapState(prob, x, resync=64)
        pairs = []

        def score(P, minus):
            d_obj, d_cut = state.obj_block(P, minus), state.cut_block(P, minus)
            for a, i in enumerate(P):
                for b, j in enumerate(minus):
                    y = x.copy()
                    y[i], y[j] = -1.0, 1.0
                    dense_obj = y @ M @ y - x @ M @ x
                    dense_cut = y @ W @ y - x @ W @ x
                    assert d_obj[a, b] == pytest.approx(dense_obj, abs=1e-9)
                    assert d_cut[a, b] == pytest.approx(dense_cut, abs=1e-9)
                    assert state.obj_delta(i, j) == pytest.approx(dense_obj, abs=1e-9)
                    assert state.cut_delta(i, j) == pytest.approx(dense_cut, abs=1e-9)
                    pairs.append((i, j))
            return d_obj

        _, (i, j) = state.best(score, math.inf)
        assert len(pairs) == int((x > 0).sum() * (x < 0).sum())
        # The maintained products follow the swap.
        state.apply(i, j, state.obj_delta(i, j), state.cut_delta(i, j))
        assert x[i] == -1.0 and x[j] == 1.0
        assert state.obj == pytest.approx(x @ M @ x, abs=1e-9)
        assert state.c == pytest.approx(x @ W @ x, abs=1e-9)
        assert np.allclose(state.wx, W @ x, atol=1e-12)

    def test_best_decodes_pairs_across_blocks(self):
        n = 300  # 150 plus rows: three 64-row blocks
        x = random_balanced_design(n, 0).x.copy()
        state = _SwapState(no_network_problem(generate_pm1_covariates(n, 1, seed=0)), x, 64)
        plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
        target = (int(plus[130]), int(minus[17]))

        def score(P, minus):
            block = np.zeros((P.size, minus.size))
            block[np.ix_(P == target[0], minus == target[1])] = -1.0
            return block

        assert state.best(score, -0.5) == (-1.0, target)
        assert state.best(score, -1.0) == (-1.0, None)


def scan_every_pair(state, score, floor):
    """Lowest score below floor, first in (plus, minus) order, pair by pair.

    Call it right after state.best(), which sets up the products score reads.
    """
    plus, minus = np.flatnonzero(state.x > 0), np.flatnonzero(state.x < 0)
    block = score(plus, minus)
    best_val, pair = floor, None
    for a, i in enumerate(plus):
        for b, j in enumerate(minus):
            if block[a, b] < best_val:
                best_val, pair = float(block[a, b]), (int(i), int(j))
    return best_val, pair


def pruning_instance(n, density, p, rho0, alpha, weighted, seed):
    net = repair_isolated(
        generate_bernoulli_network(n, density, seed=seed), "connect", seed=seed
    ).network
    prob = hybrid_problem(net, generate_pm1_covariates(n, p, seed=seed + 1), rho0, alpha)
    if weighted:
        # Small integer weights keep cut ties common.
        W = sparse.triu(net.adjacency, k=1).tocoo()
        w = np.random.default_rng(seed).integers(1, 4, size=W.nnz).astype(float)
        W = sparse.csr_array((np.r_[w, w], (np.r_[W.row, W.col], np.r_[W.col, W.row])),
                             shape=(n, n))
        prob = dataclasses.replace(prob, W=W)
    return prob


class TestPrunedSearch:
    """best() with row bounds returns what a scan of every pair returns.

    best() prunes only when one block cannot hold every pair (n above about
    256), so most tests shrink the block to prune at sizes an oracle scans
    quickly.
    """

    @settings(max_examples=60)
    @given(
        n=st.integers(6, 120),
        density=st.floats(0.02, 0.5),
        p=st.integers(1, 4),
        rho0=st.floats(0.0, 0.9),
        alpha=st.sampled_from([0.001, 0.05, 0.5]),
        weighted=st.booleans(),
        block=st.sampled_from([1, 64, 512, optimizer._BLOCK_ENTRIES]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_scan_of_every_pair(
        self, n, density, p, rho0, alpha, weighted, block, seed
    ):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_BLOCK_ENTRIES", block)
            self.check_against_scan(n, density, p, rho0, alpha, weighted, seed)

    @staticmethod
    def check_against_scan(n, density, p, rho0, alpha, weighted, seed):
        prob = pruning_instance(n, density, p, rho0, alpha, weighted, seed)
        x = random_balanced_design(n, seed + 2).x.copy()
        state = _SwapState(prob, x, resync=64)
        capv = prob.cap + 1e-9

        def capped(P, minus):
            delta = state.obj_block(P, minus)
            return np.where(state.c + state.cut_block(P, minus) <= capv, delta, np.inf)

        def late_rows_first(per_row):
            # Exact minima (per row, or over all rows), lowered by one on the
            # later half of the rows: those are visited first, so an earlier
            # row that ties the best score has a bound equal to it.  Integer
            # cut deltas make such ties common.
            def bound(plus, minus):
                block = state.cut_block(plus, minus)
                late = np.arange(plus.size) >= plus.size // 2
                return (block.min(axis=1) if per_row else block.min()) - late
            return bound

        cases = [
            (capped, state.obj_row_bounds),
            (state.obj_block, state.obj_row_bounds),
            (state.cut_block, None),
            (state.cut_block, state.cut_row_bounds),
            (state.cut_block, late_rows_first(True)),
            (state.cut_block, late_rows_first(False)),
        ]
        for score, bound in cases:
            for floor in (math.inf, 0.0, -1e-10 * max(1.0, state.obj)):
                rows = []

                def counted(P, minus, score=score):
                    rows.append(P.size)
                    return score(P, minus)

                got = state.best(counted, floor, bound)
                assert got == scan_every_pair(state, score, floor)
                # numpy would score a lone row by a matrix-vector product,
                # which rounds differently from the scan's matrix product.
                assert min(rows, default=2) >= 2

    def test_bounds_are_below_every_delta(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(6, 120))
            prob = pruning_instance(n, 0.1, 3, 0.5, 0.5, False, int(rng.integers(2**31)))
            x = random_balanced_design(n, rng).x.copy()
            state = _SwapState(prob, x, resync=64)
            state.best(state.obj_block, math.inf)
            plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
            low = state.obj_row_bounds(plus, minus)
            rows = state.obj_block(plus, minus).min(axis=1)
            assert np.all(low <= rows)
            assert np.allclose(low, rows, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("bound", [None, lambda plus, minus: np.full(plus.size, -1.0)])
    def test_decodes_pairs_across_blocks(self, bound):
        n = 800  # 400 x 400 pairs: several blocks either way
        x = random_balanced_design(n, 0).x.copy()
        state = _SwapState(no_network_problem(generate_pm1_covariates(n, 1, seed=0)), x, 64)
        plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
        targets = [(int(plus[330]), int(minus[17])), (int(plus[331]), int(minus[3]))]

        def score(P, minus):
            block = np.zeros((P.size, minus.size))
            for i, j in targets:
                block[np.ix_(P == i, minus == j)] = -1.0
            return block

        assert state.best(score, -0.5, bound) == (-1.0, targets[0])
        assert state.best(score, -1.0, bound) == (-1.0, None)

    def test_local_search_matches_full_scan(self, monkeypatch):
        # 24 small instances pruned in blocks of 64 pair scores, and 6 above
        # n = 256 pruned with the default block.
        rng = np.random.default_rng(2026)
        cases = [
            (
                pruning_instance(
                    int(rng.integers(*sizes)), float(rng.uniform(0.03, 0.3)),
                    int(rng.integers(1, 5)), float(rng.uniform(0.0, 0.9)),
                    float(rng.choice([0.001, 0.05, 0.5])), False, int(rng.integers(2**31)),
                ),
                int(rng.integers(2**31)),
                block,
            )
            for sizes, block, count in [
                ((17, 121), 64, 24), ((260, 400), optimizer._BLOCK_ENTRIES, 6),
            ]
            for _ in range(count)
        ]

        def solve_all():
            records = []
            for prob, seed, block in cases:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(optimizer, "_BLOCK_ENTRIES", block)
                    records.append(solve_local(prob, restarts=4, seed=seed).to_record())
            return records

        pruned = solve_all()
        scan = _SwapState.best
        monkeypatch.setattr(
            _SwapState, "best",
            lambda self, score, floor, bound=None, r=0: scan(self, score, floor, r=r),
        )
        assert pruned == solve_all()


def one_restart_at_a_time(problem, cap, restarts, seed, deadline=None):
    """Multistart reference: each child seed's start polished alone, the first strict best kept."""
    rng = np.random.default_rng(seed)
    best_x, best_obj, total = None, math.inf, 0
    for _ in range(restarts):
        x = random_balanced_design(problem.n, int(rng.integers(0, 2**63 - 1))).x.copy()
        got, obj, iters = optimizer._polish(problem, cap, x[None, :], deadline)
        total += iters
        if got is not None and obj < best_obj - 1e-15:
            best_x, best_obj = got, obj
    return best_x, best_obj, total


def block_holding(problem, restarts, mode):
    """_BLOCK_ENTRIES for which a block holds no restart's pairs, one, several or all."""
    pairs = (problem.n // 2) * (problem.n - problem.n // 2)
    return {"none": 1, "one": pairs, "several": 3 * pairs, "all": restarts * pairs}[mode]


class TestLockstep:
    """Restarts in lockstep give the report of restarts run one by one."""

    @staticmethod
    def check(prob, restarts, seed, mode):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_BLOCK_ENTRIES", block_holding(prob, restarts, mode))
            lockstep = solve_local(prob, restarts=restarts, seed=seed).to_record()
            mp.setattr(optimizer, "_local_core", one_restart_at_a_time)
            assert lockstep == solve_local(prob, restarts=restarts, seed=seed).to_record()

    @settings(max_examples=40)
    @given(
        n=st.integers(5, 60),
        density=st.floats(0.05, 0.9),
        p=st.integers(1, 4),
        rho0=st.floats(0.0, 0.9),
        alpha=st.sampled_from([0.001, 0.05, 0.5]),
        covariate_only=st.booleans(),
        restarts=st.integers(1, 12),
        mode=st.sampled_from(["none", "one", "several", "all"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_one_restart_at_a_time(
        self, n, density, p, rho0, alpha, covariate_only, restarts, mode, seed
    ):
        net = repair_isolated(
            generate_bernoulli_network(n, density, seed=seed), "connect", seed=seed
        ).network
        cov = generate_pm1_covariates(n, min(p, n - 2), seed=seed + 1)
        prob = no_network_problem(cov) if covariate_only else hybrid_problem(net, cov, rho0, alpha)
        self.check(prob, restarts, seed + 2, mode)

    @pytest.mark.parametrize("mode", ["none", "one", "several", "all"])
    def test_restarts_that_fail_repair(self, mode):
        # Dense graph and a tight cap: some starts cannot be repaired into it.
        net = repair_isolated(
            generate_bernoulli_network(20, 0.87, seed=12), "connect", seed=12
        ).network
        prob = hybrid_problem(net, generate_pm1_covariates(20, 2, seed=13), 0.5, 0.001)
        rng = np.random.default_rng(19)
        starts = [random_balanced_design(20, int(rng.integers(0, 2**63 - 1))).x.copy()
                  for _ in range(8)]
        repaired = [optimizer._polish(prob, prob.cap, x[None, :])[0] is not None for x in starts]
        assert any(repaired) and not all(repaired)
        self.check(prob, 8, 19, mode)


class TestNoNetwork:
    def test_intercept_only_balanced_zero(self):
        cov = CovariateMatrix.from_raw(np.empty((8, 0)))
        report = solve_no_network(cov, method="exact")
        assert report.objective == pytest.approx(0.0, abs=1e-12)
        assert report.constraint_value is None

    def test_matches_enumeration(self):
        cov = generate_pm1_covariates(8, 2, seed=30)
        report = solve_no_network(cov, method="exact")
        obj, x = brute_force_no_network(cov)
        assert report.objective == pytest.approx(obj, abs=1e-10)
        assert np.array_equal(report.design.x, x)

    def test_objective_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(6, 30))
            cov = generate_pm1_covariates(n, 2, seed=int(rng.integers(2**31)))
            prob = no_network_problem(cov)
            x = random_balanced_design(n, rng).x
            assert prob.objective(x) >= -1e-12


class TestBipartiteIllustration:
    def test_exact_split_is_orthogonal(self):
        net, cov = paired_bipartite_instance(10)
        prob = hybrid_problem(net, cov, 0.5, 0.001)
        report = solve_exact(prob, relax=False)
        assert report.feasible and report.optimal
        x = report.design.x
        z = cov.values[:, 1]
        assert report.objective == pytest.approx(0.0, abs=1e-10)
        assert report.constraint_value == pytest.approx(-float(net.m))
        assert float(x @ z) == 0.0
        for level in (-1.0, 1.0):
            assert int(((x > 0) & (z == level)).sum()) == int(
                ((x < 0) & (z == level)).sum()
            )

    def test_alpha_monotone_criterion(self):
        from netdesign.criterion import CriterionEvaluator

        net, cov = paired_bipartite_instance(10)
        rho0 = 0.5
        designs = {}
        for alpha in (0.5, 0.1, 0.01, 0.001):
            prob = hybrid_problem(net, cov, rho0, alpha)
            designs[alpha] = solve_exact(prob, relax=False).design.x
        ev = CriterionEvaluator(net, cov, rho0)
        t_values = {a: ev.breakdown(x).precision for a, x in designs.items()}
        # shrinking alpha shrinks the feasible set; reported criterion
        # never degrades beyond tie tolerance (here: identical designs)
        alphas = [0.5, 0.1, 0.01, 0.001]
        for larger, smaller in zip(alphas, alphas[1:]):
            assert t_values[smaller] >= t_values[larger] - 1e-9
            assert np.array_equal(designs[smaller], designs[larger])


class TestDispatch:
    def test_auto_routes_by_size(self):
        rng = np.random.default_rng(50)
        net, cov, rho0, alpha = random_instance(rng, n_lo=10, n_hi=12)
        prob = hybrid_problem(net, cov, rho0, alpha)
        assert solve(prob).method == "exact"

        net2 = repair_isolated(
            generate_bernoulli_network(40, 0.1, seed=51), "connect", seed=0
        ).network
        cov2 = generate_pm1_covariates(40, 2, seed=52)
        prob2 = hybrid_problem(net2, cov2, 0.5, 0.2)
        assert solve(prob2, restarts=4).method == "local"

    def test_auto_annealing_above_5000(self):
        net = repair_isolated(
            generate_bernoulli_network(5001, 0.002, seed=53), "connect", seed=0
        ).network
        cov = generate_pm1_covariates(5001, 1, seed=54)
        prob = hybrid_problem(net, cov, 0.5, 0.2)
        schedule = AnnealingSchedule(n_temps=3, moves_per_temp=50)
        report = solve(prob, schedule=schedule, seed=0)
        assert report.method == "annealing"

    def test_unknown_method(self):
        cov = generate_pm1_covariates(8, 1, seed=55)
        with pytest.raises(DataError):
            solve(no_network_problem(cov), method="gradient")
