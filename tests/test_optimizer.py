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
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from forks import no_children
from scipy import sparse, stats

from netdesign import _pool, optimizer
from netdesign.designs import Design
from netdesign.errors import DataError, NetdesignError, RankError
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
    HybridProblem,
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


class TestHybridProblem:
    def test_only_the_inputs_are_settable(self):
        # n, psi, m and cap follow from H, W and alpha; none may be set apart from them.
        init = [f.name for f in dataclasses.fields(HybridProblem) if f.init]
        assert init == ["H", "W", "rho0", "alpha"]

    def test_replace_derives_cap_and_psi_again(self):
        net = repair_isolated(generate_bernoulli_network(30, 0.2, seed=3), "connect", seed=3).network
        prob = hybrid_problem(net, generate_pm1_covariates(30, 2, seed=4), 0.5, 0.001)
        assert (prob.n, prob.m, prob.cap) == (30, float(net.m), quantile_cap(net, 0.001))
        for a in (0.1, 0.5):
            assert dataclasses.replace(prob, alpha=a).cap == quantile_cap(net, a)
        doubled = dataclasses.replace(prob, H=2.0 * prob.H)
        assert np.array_equal(doubled.psi, 4.0 * prob.psi)
        plain = no_network_problem(generate_pm1_covariates(30, 2, seed=4))
        assert (plain.n, plain.m, plain.cap) == (30, 0.0, None)

    def test_network_without_alpha_fails(self):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        prob = no_network_problem(CovariateMatrix.from_raw(np.array([1.0, -1.0, 1.0])))
        with pytest.raises(DataError, match="alpha must lie in"):
            HybridProblem(prob.H, net.adjacency)
        with pytest.raises(DataError, match="edgeless"):
            HybridProblem(prob.H, Network.from_edges(3, []).adjacency, alpha=0.1)

    def test_hybrid_problem_without_alpha_fails(self):
        # The missing alpha reaches HybridProblem's check, not float(None).
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        cov = CovariateMatrix.from_raw(np.array([1.0, -1.0, 1.0]))
        with pytest.raises(DataError) as err:
            hybrid_problem(net, cov, 0.5, None)
        assert str(err.value) == "alpha must lie in (0, 1), got None"


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

    @pytest.mark.parametrize("n", [2, 3, 10, 11, 300, 301])
    def test_local_starts_are_random_balanced_designs(self, n):
        # _local_core draws its starts without building a Design each; the
        # bits must be those of random_balanced_design, for odd and even n.
        for seed in (0, 1, 7, 2**62 + 3):
            x = optimizer._balanced_signs(n, seed)
            assert x.flags.writeable
            assert np.array_equal(x, random_balanced_design(n, seed).x)

    def test_design_holds_a_read_only_sign_vector(self):
        d = Design([1, -1, 1])
        assert d.x.dtype == np.float64 and not d.x.flags.writeable
        given = np.array([1.0, -1.0, 1.0])
        owned = Design(given)
        given[0] = 5.0  # a copy: the caller's later writes cannot reach the design
        assert owned.x.tolist() == [1.0, -1.0, 1.0] and not owned.x.flags.writeable
        assert Design.from_lines("# x\n+1\n\n-1\n1\n") == d
        for bad in ([], [1, 0, -1], [0.5, -1.0]):
            with pytest.raises(DataError, match=r"must all be \+1 or -1"):
                Design(bad)

    @pytest.mark.parametrize("text, line", [
        ("+1\n1.0\n", 2),
        ("+1\n0\n-1\n", 2),
        ("# x\n\n2\n", 3),
        ("-1\n+1\n-2\n0\n", 3),
    ])
    def test_from_lines_names_the_first_bad_line(self, text, line):
        with pytest.raises(DataError) as err:
            Design.from_lines(text)
        assert str(err.value) == f"line {line}: design entries must be +1 or -1"


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


class TestExactMidSize:
    """Exact search at n = 17-20 and on K18: the enumeration oracle, the ladder and the budget."""

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
        # scores designs before finding none within the cap, and the relaxed
        # solve counts those of every level it climbed through.
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


def exact_by_enumeration(net, cov, rho0, alpha, relax):
    """(objective, design, alpha used) by the enumeration oracles, up the ladder if relax."""
    levels = [alpha] + ([a for a in RELAXATION_LADDER if a > alpha] if relax else [])
    for level in levels:
        oracle = brute_force_hybrid if net.n <= 12 else chunked_enumeration
        obj, x = oracle(net, cov, rho0, level)
        if x is not None:
            return obj, x, level
    return math.inf, None, None


class TestExactOracle:
    """solve_exact against the enumeration oracles, across the head/tail split."""

    @settings(max_examples=60)
    @given(
        n=st.sampled_from(range(2, 21)),
        density=st.floats(0.1, 0.8),
        p=st.integers(1, 3),
        rho0=st.floats(0.0, 0.9),
        alpha=st.sampled_from([0.001, 0.05, 0.3, 0.5]),
        kind=st.sampled_from(["network", "ties", "covariate_only"]),
        relax=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_enumeration(self, n, density, p, rho0, alpha, kind, relax, seed):
        # "ties": one +/-1 covariate on an unweighted graph and a round rho0,
        # where many designs tie exactly and the first in lexicographic
        # order must win wherever the head/tail split puts it.
        assume(kind != "covariate_only" or n <= 14)
        if kind == "ties":
            p, rho0 = 1, round(rho0) / 2.0
        cov = generate_pm1_covariates(n, min(p, n - 2), seed=seed + 1)
        if kind == "covariate_only":
            report = solve_exact(no_network_problem(cov), relax=relax)
            obj, x = brute_force_no_network(cov)
            used = None
        else:
            net = repair_isolated(
                generate_bernoulli_network(n, density, seed=seed), "connect", seed=seed
            ).network
            report = solve_exact(hybrid_problem(net, cov, rho0, alpha), relax=relax)
            obj, x, used = exact_by_enumeration(net, cov, rho0, alpha, relax)
        assert report.optimal
        if x is None:
            assert not report.feasible and report.design is None
            return
        assert report.feasible and report.alpha == used
        assert report.objective == pytest.approx(obj, abs=1e-8)
        assert np.array_equal(report.design.x, x)

    def test_memory_stays_within_one_block(self):
        # n = 26: 2^12 head and 2^13 tail patterns of 13 nodes; the largest
        # tail group holds C(13, 6) = 1716 patterns.  A block holds at most
        # max(_EXACT_BLOCK, 1716) scores, in two float64 arrays (objective,
        # cut) and two boolean masks: 18 bytes a score.  The patterns and
        # the factors of the two quadratic forms take at most six arrays of
        # 13 + 2 float64 columns over the 12288 head and tail rows.  Scores
        # kept for all 5.2M balanced designs would take 42 MB.
        n, p = 26, 2
        net = repair_isolated(
            generate_bernoulli_network(n, 0.2, seed=3), "connect", seed=3
        ).network
        prob = hybrid_problem(net, generate_pm1_covariates(n, p, seed=4), 0.5, 0.05)
        scores = 18 * max(optimizer._EXACT_BLOCK, 1716)
        tables = 8 * (2**13 + 2**12) * 6 * (13 + 2)
        tracemalloc.start()
        try:
            report = solve_exact(prob, relax=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.optimal and report.iterations == math.comb(25, 12)
        assert peak < scores + tables


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
        assert solve(prob, method="annealing", seed=6).to_record() == a.to_record()

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


def balanced_stack(n, designs, seed):
    """Random balanced designs with equal plus counts, one per row, as a stack needs them."""
    X = np.stack([random_balanced_design(n, seed + k).x for k in range(designs)])
    return np.where((X > 0).sum(axis=1, keepdims=True) == (X[0] > 0).sum(), X, -X)


def synthetic_pairs(state, targets):
    """Stand-ins for state's pairs() and canonical(), scoring -1 on the target pairs and 0 elsewhere."""
    def pairs(rows, arms, capv, minus=None):
        P, M = arms[0], arms[1]
        block = np.zeros(P.shape + M.shape[1:])
        for g in range(P.shape[0]):
            for i, j in targets:
                block[g][np.ix_(P[g] == i, M[g] == j)] = -1.0
        return block, None

    def canonical(A, g, i, j):
        return np.array([-1.0 if pair in targets else 0.0 for pair in zip(i.tolist(), j.tolist())])

    state.pairs, state.canonical = pairs, canonical


def caps(state, cap):
    """cap for every design of state, as pairs() and the searches take it."""
    return np.full(state.objs.shape, cap)


def search_one(state, rows, arms, capv, floor, low):
    """best() on a stack of one, as (value, (i, j) or None, cut delta)."""
    val, i, j, dc = state.best(rows, arms, capv, np.array([floor]), np.reshape(low, (1, -1)))
    return float(val[0]), None if i[0] < 0 else (int(i[0]), int(j[0])), float(dc[0])


class TestSwapDeltas:
    @given(
        n=st.integers(4, 14),
        density=st.floats(0.1, 0.8),
        p=st.integers(1, 3),
        rho0=st.floats(0.0, 0.9),
        weighted=st.booleans(),
        designs=st.integers(2, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_deltas_match_dense_recomputation(self, n, density, p, rho0, weighted, designs, seed):
        prob = pruning_instance(n, density, p, rho0, 0.5, weighted, seed)
        net = repair_isolated(
            generate_bernoulli_network(n, density, seed=seed), "connect", seed=seed
        ).network
        Q = dense_objective_matrix(net, generate_pm1_covariates(n, p, seed=seed + 1), rho0)
        W = prob.W.toarray()
        X = balanced_stack(n, designs, seed + 2)
        state = _SwapState(prob, X, resync=64)
        rows = np.arange(designs)
        P, M, _, _ = arms = state.focus(rows)
        obj, cut = state.pairs(rows, arms, caps(state, math.inf))
        assert obj.shape == cut.shape == (designs, P.shape[1], M.shape[1])
        for r in rows:
            x = X[r].copy()
            # Alone, the design scores through the matmul and the CSR gather.
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(optimizer, "_BLOCK_ENTRIES", 0)
                alone = rows[r : r + 1]
                csr_obj, csr_cut = state.pairs(alone, state.focus(alone), caps(state, math.inf))
            for a, i in enumerate(P[r]):
                for b, j in enumerate(M[r]):
                    y = x.copy()
                    y[i], y[j] = -1.0, 1.0
                    dense_obj = y @ Q @ y - x @ Q @ x
                    dense_cut = y @ W @ y - x @ W @ x
                    assert obj[r, a, b] == pytest.approx(dense_obj, abs=1e-9)
                    assert csr_obj[0, a, b] == pytest.approx(dense_obj, abs=1e-9)
                    assert cut[r, a, b] == pytest.approx(dense_cut, abs=1e-9)
                    assert state.obj_delta(i, j, r=r) == pytest.approx(dense_obj, abs=1e-9)
                    assert state.cut_delta(i, j, r=r) == pytest.approx(dense_cut, abs=1e-9)
            # The table scores are canonical() bit for bit, and both cuts agree bit for bit.
            i, j = np.repeat(P[r], M.shape[1]), np.tile(M[r], P.shape[1])
            assert np.array_equal(obj[r].ravel(), state.canonical(arms[2], np.full(i.size, r), i, j))
            assert np.array_equal(csr_cut[0], cut[r])
        # The maintained products follow the swap.
        a, b = np.unravel_index(int(np.argmin(obj[0])), obj[0].shape)
        i, j = int(P[0, a]), int(M[0, b])
        state.apply(i, j, state.obj_delta(i, j), state.cut_delta(i, j))
        x = state.x[0]
        assert x[i] == -1.0 and x[j] == 1.0
        assert state.objs[0] == pytest.approx(x @ Q @ x, abs=1e-9)
        assert state.cuts[0] == pytest.approx(x @ W @ x, abs=1e-9)
        assert np.allclose(state.wx[0], W @ x, atol=1e-12)

    def test_best_decodes_pairs_across_blocks(self):
        n = 300  # 150 plus rows: three 64-row blocks
        x = random_balanced_design(n, 0).x.copy()
        state = _SwapState(no_network_problem(generate_pm1_covariates(n, 1, seed=0)), x, 64)
        arms = state.focus(np.arange(1))
        (plus,), (minus,) = arms[0], arms[1]
        target = (int(plus[130]), int(minus[17]))
        synthetic_pairs(state, [target])
        every_row = np.full(plus.size, -np.inf)
        assert search_one(state, np.arange(1), arms, None, -0.5, every_row) == (-1.0, target, 0.0)
        assert search_one(state, np.arange(1), arms, None, -1.0, every_row) == (-1.0, None, 0.0)


def scan_repairs(W, X, rows):
    """What best_repairs(rows) returns, from y'Wy - x'Wx of every plus x minus pair of each design."""
    found = []
    for r in rows:
        x, best = X[r], (-1e-12, None)
        for i in np.flatnonzero(x > 0):
            for j in np.flatnonzero(x < 0):
                y = x.copy()
                y[i], y[j] = -1.0, 1.0
                delta = y @ W @ y - x @ W @ x
                if delta < best[0]:  # the first of equal minima below the floor
                    best = (delta, (i, j))
        if best[1] is not None:
            found.append((r, *best[1], best[0]))
    return tuple(np.array([f[k] for f in found], dtype=float if k == 3 else np.int64)
                 for k in range(4))


def dense_repairs(W, X, rows):
    """What best_repairs(rows) returns, from the cut change of every plus x minus pair, W dense.

    Swapping plus i and minus j is y = x - 2 e_i + 2 e_j, so y'Wy - x'Wx is
    4 ((Wx)_j - (Wx)_i) + 4 (W_ii + W_jj) - 8 W_ij, with Wx recomputed.
    """
    found = []
    for r in rows:
        x = X[r]
        P, M, wx = np.flatnonzero(x > 0), np.flatnonzero(x < 0), W @ x
        delta = (4.0 * (wx[M][None, :] - wx[P][:, None])
                 + 4.0 * (np.diag(W)[P][:, None] + np.diag(W)[M][None, :]) - 8.0 * W[np.ix_(P, M)])
        a, b = np.unravel_index(int(np.argmin(delta)), delta.shape)  # first in (plus, minus) order
        if delta[a, b] < -1e-12:
            found.append((r, P[a], M[b], delta[a, b]))
    return tuple(np.array([f[k] for f in found], dtype=float if k == 3 else np.int64)
                 for k in range(4))


def tie_heavy_graph(kind, n, weighted, seed):
    """Sparse W of a cycle, a complete bipartite graph or a near-regular circulant, sorted CSR."""
    rng = np.random.default_rng(seed)
    if kind == "cycle":
        i = np.arange(n)
        j = (i + 1) % n
    elif kind == "bipartite":
        i, j = (a.ravel() for a in np.meshgrid(np.arange(n // 2), np.arange(n // 2, n)))
    else:  # circulant with offsets 1, 2 and 5, less about 5% of its edges
        i = np.repeat(np.arange(n), 3)
        j = (i + np.tile([1, 2, 5], n)) % n
        keep = rng.random(i.size) > 0.05
        i, j = i[keep], j[keep]
    edges = np.unique(np.sort(np.c_[i, j][i != j], axis=1), axis=0)
    w = rng.integers(1, 4, size=len(edges)).astype(float) if weighted else np.ones(len(edges))
    W = sparse.csr_array((np.r_[w, w], (np.r_[edges[:, 0], edges[:, 1]],
                                         np.r_[edges[:, 1], edges[:, 0]])), shape=(n, n))
    W.sum_duplicates()
    W.sort_indices()
    return W


def repair_state(W, X):
    """A swap state over the stack X on W; repair reads nothing of the objective."""
    n = W.shape[0]
    prob = dataclasses.replace(no_network_problem(generate_pm1_covariates(n, 1, seed=n)), W=W,
                               alpha=0.5)
    return _SwapState(prob, X, resync=64)


class TestBestRepairs:
    @settings(max_examples=60)
    @given(
        n=st.integers(4, 31),
        density=st.floats(0.05, 0.8),
        weighted=st.booleans(),
        designs=st.integers(1, 6),
        one_design_chunks=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_scan_of_every_pair(self, n, density, weighted, designs, one_design_chunks,
                                        seed):
        # Odd n mixes arm sizes in a stack; weighted W has integer weights 1-3.
        prob = pruning_instance(n, density, 1, 0.5, 0.5, weighted, seed)
        W = prob.W.toarray()
        # Design 0 stays out of rows, so rows index into the stack.
        X = np.stack([random_balanced_design(n, seed + 2 + d).x for d in range(designs + 1)])
        state = _SwapState(prob, X, resync=64)
        rows = np.arange(1, designs + 1)
        with pytest.MonkeyPatch.context() as mp:
            if one_design_chunks:
                mp.setattr(optimizer, "_BLOCK_ENTRIES", 1)
            for _ in range(3):  # again after the swaps found, on the maintained wx
                got = state.best_repairs(rows)
                want = scan_repairs(W, state.x, rows)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and np.array_equal(a, b)
                r, i, j, dc = got
                state.apply(i, j, None, dc, r=r)

    @settings(max_examples=60)
    @given(
        kind=st.sampled_from(["cycle", "bipartite", "near_regular"]),
        n=st.integers(4, 300),
        weighted=st.booleans(),
        designs=st.integers(1, 6),
        one_design_chunks=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_tie_heavy_graphs_match_scan_of_every_pair(self, kind, n, weighted, designs,
                                                       one_design_chunks, seed):
        # Equal s on many nodes: the top pair and the near-top edges tie often.
        W = tie_heavy_graph(kind, n, weighted, seed)
        assume(W.nnz > 0)
        X = np.stack([random_balanced_design(n, seed + 1 + d).x for d in range(designs)])
        state = repair_state(W, X)
        rows = np.arange(designs)
        with pytest.MonkeyPatch.context() as mp:
            if one_design_chunks:
                mp.setattr(optimizer, "_BLOCK_ENTRIES", 1)
            for _ in range(6):
                got = state.best_repairs(rows)
                want = dense_repairs(W.toarray(), state.x, rows)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and np.array_equal(a, b)
                r, i, j, dc = got
                state.apply(i, j, None, dc, r=r)

    def test_tied_tops_keep_memory_linear(self):
        # On K_{500,500} all plus nodes of a side share their s, so a design
        # reads about half of W's entries.  In one pass the 32 designs peaked
        # at 233 MB; in passes of about one block, at 15 MB.
        W = tie_heavy_graph("bipartite", 1000, False, 0)
        X = np.stack([random_balanced_design(1000, 1 + d).x for d in range(32)])
        state = repair_state(W, X)
        tracemalloc.start()
        try:
            state.best_repairs(np.arange(32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * W.nnz  # eight float64 or int64 arrays the size of W

    @pytest.mark.parametrize("w", [1.0, 3.0])
    @pytest.mark.parametrize("edges, swap", [
        # Plus 0 has s_0 = s_1* - 2w, minus 4 is the top minus node: edge 0-4 ties (1, 4).
        ([(1, 2), (4, 5), (4, 6), (0, 4), (3, 7)], (0, 4)),
        # Minus 4 has s_4 = s_5* - 2w, plus 0 is the top plus node: edge 0-4 ties (0, 5).
        ([(0, 1), (0, 2), (0, 4), (5, 6), (3, 7)], (0, 4)),
    ])
    def test_edge_at_the_reach_ties_the_top_pair(self, edges, swap, w):
        # The tying edge lies exactly 2 w below the top s of its arm and comes
        # first in (plus, minus) order, so it must be taken.
        i, j = np.array(edges).T
        W = sparse.csr_array((np.full(2 * i.size, w), (np.r_[i, j], np.r_[j, i])), shape=(8, 8))
        W.sort_indices()
        X = np.array([[1.0] * 4 + [-1.0] * 4])
        got = repair_state(W, X).best_repairs(np.arange(1))
        assert [int(got[1][0]), int(got[2][0]), float(got[3][0])] == [*swap, -8.0 * w]
        for a, b in zip(got, dense_repairs(W.toarray(), X, np.arange(1))):
            assert np.array_equal(a, b)


def scan_every_pair(state, rows, arms, capv, floor):
    """What best() returns, from canonical() on every pair of the stack of one, within the cap.

    capv holds one cap per design of the state, as pairs() takes it."""
    (plus,), (minus,) = arms[0], arms[1]
    i, j = np.repeat(plus, minus.size), np.tile(minus, plus.size)
    score = state.canonical(arms[2], np.zeros(i.size, dtype=np.int64), i, j)
    cut = None
    if state.W is not None:
        cut = optimizer._cut_delta(arms[3][0, i], arms[3][0, j], state.W.toarray()[i, j])
        score[state.cuts[rows[0]] + cut > capv[rows[0]]] = np.inf
    k = int(np.argmin(score))  # the first of equal minima, in (plus, minus) order
    if not score[k] < floor:
        return floor, None, 0.0
    return float(score[k]), (int(i[k]), int(j[k])), 0.0 if cut is None else float(cut[k])


def scan_each_design(state, rows, arms, capv, floors, low):
    """What best() returns for a stack, from scan_every_pair() on each design alone."""
    found = [
        scan_every_pair(state, rows[g : g + 1], optimizer._pick(arms, slice(g, g + 1)),
                        capv, floors[g])
        for g in range(rows.size)
    ]
    pairs = [(-1, -1) if pair is None else pair for _, pair, _ in found]
    return (np.array([val for val, _, _ in found]), np.array([i for i, _ in pairs]),
            np.array([j for _, j in pairs]), np.array([dc for _, _, dc in found]))


def pruning_instance(n, density, p, rho0, alpha, weighted, seed, cov=None):
    """A hybrid problem on a connected Bernoulli graph, with p +/-1 covariates unless cov is given."""
    net = repair_isolated(
        generate_bernoulli_network(n, density, seed=seed), "connect", seed=seed
    ).network
    cov = generate_pm1_covariates(n, p, seed=seed + 1) if cov is None else cov
    prob = hybrid_problem(net, cov, rho0, alpha)
    if weighted:
        # Small integer weights keep cut ties common.
        W = sparse.triu(net.adjacency, k=1).tocoo()
        w = np.random.default_rng(seed).integers(1, 4, size=W.nnz).astype(float)
        W = sparse.csr_array((np.r_[w, w], (np.r_[W.row, W.col], np.r_[W.col, W.row])),
                             shape=(n, n))
        prob = dataclasses.replace(prob, W=W)
    return prob


def float32_slack(state, arms):
    """E = 1.01 (q + 4) 2^-24 (8 max psi + max_j |c_j|) + 10 (q + 1) (1 + sqrt(max psi)) 2^-126.

    q = rows of H + 1 and c_j = 4 (psi_j + a_j) over each design's minus arm.
    """
    M, A = arms[1:3]
    q, psi_max = state.H.shape[0] + 1, float(state.psi.max())
    c = 4.0 * (state.psi[M] + np.take_along_axis(A, M, axis=1))
    return (1.01 * (q + 4) * 2.0**-24 * (8.0 * psi_max + np.abs(c).max(axis=1))
            + 10.0 * (q + 1) * (1.0 + math.sqrt(psi_max)) * 2.0**-126)


class TestPrunedSearch:
    """best() with row bounds returns what a canonical scan of every pair returns.

    Local search calls best() only for designs whose pairs overflow one
    block (n above about 256), so most tests shrink the block to reach it
    at sizes an oracle scans quickly.
    """

    @settings(max_examples=60)
    @given(
        n=st.integers(6, 1200),
        density=st.floats(0.02, 0.5),
        p=st.integers(1, 4),
        rho0=st.floats(0.0, 0.9),
        alpha=st.sampled_from([0.001, 0.05, 0.5]),
        weighted=st.booleans(),
        covariate_only=st.booleans(),
        block=st.sampled_from([1, 16, 64, 512, optimizer._BLOCK_ENTRIES]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n=1200, density=0.01, p=4, rho0=0.5, alpha=0.05, weighted=True,
             covariate_only=False, block=optimizer._BLOCK_ENTRIES, seed=3)
    @example(n=1200, density=0.01, p=2, rho0=0.5, alpha=0.05, weighted=False,
             covariate_only=True, block=1, seed=4)
    def test_matches_scan_of_every_pair(
        self, n, density, p, rho0, alpha, weighted, covariate_only, block, seed
    ):
        # Bit for bit whatever the block, on either problem; +/-1 covariates
        # make exact ties common, most of all without the network.
        prob = (no_network_problem(generate_pm1_covariates(n, p, seed=seed + 1)) if covariate_only
                else pruning_instance(n, min(density, 40 / n), p, rho0, alpha, weighted, seed))
        x = random_balanced_design(n, seed + 2).x.copy()
        state = _SwapState(prob, x, resync=64)
        one = np.arange(1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_BLOCK_ENTRIES", block)
            arms = state.focus(one)
            low = state.obj_row_bounds(arms)
            for capv in ((None,) if covariate_only
                         else (caps(state, prob.cap + 1e-9), caps(state, math.inf))):
                for floor in (math.inf, 0.0, -1e-10 * max(1.0, state.obj)):
                    got = search_one(state, one, arms, capv, floor, low)
                    assert got == scan_every_pair(state, one, arms, capv, floor)

    @settings(max_examples=40)
    @given(
        half=st.integers(3, 45),
        designs=st.integers(1, 6),
        density=st.floats(0.03, 0.5),
        p=st.integers(1, 4),
        rho0=st.floats(0.0, 0.9),
        alpha=st.sampled_from([0.001, 0.05, 0.5]),
        weighted=st.booleans(),
        block=st.sampled_from([1, 16, 64, 512]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_stack_matches_scan_of_each_design(
        self, half, designs, density, p, rho0, alpha, weighted, block, seed
    ):
        # Odd n: the designs of a stack come in two arm sizes.
        n = 2 * half + 1
        prob = pruning_instance(n, density, p, rho0, alpha, weighted, seed)
        X = np.stack([random_balanced_design(n, seed + 2 + d).x for d in range(designs)])
        state = _SwapState(prob, X, resync=64)
        plus = (X > 0).sum(axis=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_BLOCK_ENTRIES", block)
            for size in np.unique(plus):
                rows = np.flatnonzero(plus == size)
                arms = state.focus(rows)
                low = state.obj_row_bounds(arms)
                for capv in (caps(state, prob.cap + 1e-9), caps(state, math.inf)):
                    for floor in (math.inf, 0.0, None):
                        floors = (np.full(rows.size, floor) if floor is not None
                                  else -1e-10 * np.maximum(1.0, state.objs[rows]))
                        got = state.best(rows, arms, capv, floors, low)
                        want = scan_each_design(state, rows, arms, capv, floors, low)
                        for a, b in zip(got, want):
                            assert np.array_equal(a, b)
            # best_swaps takes the stack by arm size, as local search calls it.
            got = state.best_swaps(np.arange(designs), caps(state, prob.cap + 1e-9))
            mp.setattr(_SwapState, "best", scan_each_design)
            want = state.best_swaps(np.arange(designs), caps(state, prob.cap + 1e-9))
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_bounds_are_below_every_delta(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(6, 120))
            prob = pruning_instance(n, 0.1, 3, 0.5, 0.5, False, int(rng.integers(2**31)))
            x = random_balanced_design(n, rng).x.copy()
            state = _SwapState(prob, x, resync=64)
            arms = state.focus(np.arange(1))
            low = state.obj_row_bounds(arms)
            rows = state.pairs(np.arange(1), arms, caps(state, math.inf))[0][0].min(axis=1)
            assert np.all(low <= rows)
            # The bound is the float32 row minimum less E + w, and that
            # minimum may itself round up to E + w below the float64 one.
            slack = float32_slack(state, arms)[0] + state.window(arms[2])[0]
            assert np.all(rows - low <= 2.0 * slack)

    @settings(max_examples=40)
    @given(
        n=st.integers(6, 1200),
        density=st.floats(0.02, 0.5),
        p=st.integers(1, 4),
        continuous=st.booleans(),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        weighted=st.booleans(),
        designs=st.integers(1, 6),
        block=st.sampled_from([1, 16, 64, 512]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n=1200, density=0.01, p=4, continuous=True, scale=1e-6, weighted=True, designs=6,
             block=64, seed=5)
    @example(n=1199, density=0.01, p=3, continuous=False, scale=1e6, weighted=False, designs=3,
             block=1, seed=6)
    def test_float32_bounds_are_valid(
        self, n, density, p, continuous, scale, weighted, designs, block, seed
    ):
        # Every row bound lies at or below the lowest block score of its row,
        # and within twice the slack of it, along several descent steps.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, p)) if continuous else rng.choice([-1.0, 1.0], (n, p))
        assume(np.linalg.matrix_rank(np.c_[np.ones(n), z]) == p + 1)
        prob = pruning_instance(n, min(density, 40 / n), p, 0.5, 0.5, weighted, seed,
                                CovariateMatrix.from_raw(scale * z))
        state = _SwapState(prob, balanced_stack(n, designs, seed + 2), resync=64)
        rows = np.arange(designs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_BLOCK_ENTRIES", block)
            for _ in range(4):
                arms = state.focus(rows)
                low = state.obj_row_bounds(arms)
                lowest = state.pairs(rows, arms, caps(state, math.inf))[0].min(axis=2)
                assert np.all(low <= lowest)
                slack = float32_slack(state, arms) + state.window(arms[2])
                assert np.all(lowest - low <= 2.0 * slack[:, None])
                r, i, j, val, dc = state.best_swaps(rows, caps(state, prob.cap + 1e-9))
                state.apply(i, j, val, dc, r=r)

    @settings(max_examples=40)
    @given(
        n=st.integers(257, 600),
        designs=st.integers(1, 6),
        p=st.integers(1, 6),
        kind=st.sampled_from(["binary", "weighted", "pm1", "gaussian"]),
        scale=st.sampled_from([1e-3, 1.0, 1e6]),
        skewed=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n=257, designs=6, p=1, kind="pm1", scale=1e6, skewed=True, seed=1)
    @example(n=600, designs=6, p=6, kind="weighted", scale=1e6, skewed=True, seed=2)
    def test_block_scores_lie_within_half_the_window(
        self, n, designs, p, kind, scale, skewed, seed
    ):
        # best() rescores by canonical() the pairs within w of the lowest
        # block score, which takes every pair canonical() can pick only if
        # each block score c_j - 8 h_i.h_j + 4 (psi_i - a_i) lies within w / 2
        # of canonical().  A scaled H, and a design that splits the nodes by
        # their first row of H, make c_j = 4 (psi_j + a_j) large.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, p)) if kind == "gaussian" else rng.choice([-1.0, 1.0], (n, p))
        assume(np.linalg.matrix_rank(np.c_[np.ones(n), z]) == p + 1)
        cov = CovariateMatrix.from_raw(z)
        prob = (no_network_problem(cov) if kind in ("pm1", "gaussian")
                else pruning_instance(n, min(0.3, 20 / n), p, 0.5, 0.5, kind == "weighted", seed, cov))
        H = scale * prob.H
        prob = dataclasses.replace(prob, H=H)
        X = balanced_stack(n, designs, seed + 2)
        if skewed:
            ranks = np.argsort(np.argsort(H[0], kind="stable"))
            X[0] = np.where(ranks >= n - (X[0] > 0).sum(), 1.0, -1.0)
        state = _SwapState(prob, X, resync=64)
        rows = np.arange(designs)
        P, M, A, _ = arms = state.focus(rows)
        score = state.pairs(rows, arms, caps(state, math.inf))[0]
        assert state.table is None  # the block took the matmul branch
        g = np.repeat(rows, P.shape[1] * M.shape[1])
        i = np.repeat(P, M.shape[1], axis=1).ravel()
        j = np.tile(M, P.shape[1]).ravel()
        gap = np.abs(score.ravel() - state.canonical(A, g, i, j)).reshape(score.shape)
        assert np.all(gap <= state.window(A)[:, None, None] / 2)

    @pytest.mark.parametrize("bound", [lambda plus, minus: np.full(plus.size, -1.0)])
    def test_decodes_pairs_across_blocks(self, bound):
        n = 800  # 400 x 400 pairs: several blocks
        x = random_balanced_design(n, 0).x.copy()
        state = _SwapState(no_network_problem(generate_pm1_covariates(n, 1, seed=0)), x, 64)
        arms = state.focus(np.arange(1))
        (plus,), (minus,) = arms[0], arms[1]
        targets = [(int(plus[330]), int(minus[17])), (int(plus[331]), int(minus[3]))]
        synthetic_pairs(state, targets)
        low = bound(plus, minus)
        assert search_one(state, np.arange(1), arms, None, -0.5, low) == (-1.0, targets[0], 0.0)
        assert search_one(state, np.arange(1), arms, None, -1.0, low) == (-1.0, None, 0.0)

    @staticmethod
    def traced_peak(prob, restarts):
        """The traced peak bytes of a solve_local whose designs take the row-bound search.

        Such a solve never builds the n x n table of small designs.
        """
        n = prob.n
        assert optimizer._BLOCK_ENTRIES // (n - n // 2) < n // 2
        states, init = [], _SwapState.__init__

        def kept(state, *args, **kwargs):
            init(state, *args, **kwargs)
            states.append(state)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_SwapState, "__init__", kept)
            tracemalloc.start()
            try:
                report = solve_local(prob, restarts=restarts, seed=3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert report.feasible and report.iterations > 0
        assert states and all(state.table is None and state.Wd is None for state in states)
        return peak

    @staticmethod
    def hybrid_n2000():
        """n = 2000, mean degree 10, p = 10."""
        n = 2000
        net = repair_isolated(
            generate_bernoulli_network(n, 10 / n, seed=1), "connect", seed=1
        ).network
        return hybrid_problem(net, generate_pm1_covariates(n, 10, seed=2), 0.5, 0.001)

    def test_memory_stays_linear(self):
        # At n = 2000 a design's 10^6 pairs overflow the block, so descent
        # runs the row-bound search, and repair runs best_repairs, which
        # needs no row bounds.  Their arrays are O(n p) or one block of pair
        # scores: the peak measured 0.98 MB, against 32 MB for one n x n
        # float64 array.
        n = 2000
        assert self.traced_peak(self.hybrid_n2000(), restarts=1) < 8 * n * n / 8

    def test_stacked_memory_stays_linear(self):
        # Eight restarts share each step's bound products and pair scoring,
        # in stacks of optimizer._STACK_DESIGNS: the peak measured 3.1 MB.
        assert self.traced_peak(self.hybrid_n2000(), restarts=8) < 8 * 2**20

    def test_tied_memory_stays_linear(self, monkeypatch):
        # One +/-1 covariate and no network: every swap of a plus and a minus
        # node with the other's covariate sign scores the same, so thousands
        # of pairs tie exactly.  With the class search off, a round of the
        # row-bound search rescores at most one block of them: the peak
        # measured 1.4 MB.
        n, tied = 2000, []
        canonical = _SwapState.canonical

        def counted(state, A, g, i, j):
            tied.append(g.size)
            return canonical(state, A, g, i, j)

        monkeypatch.setattr(_SwapState, "canonical", counted)
        monkeypatch.setattr(optimizer, "_CLASS_SHARE", 0.0)
        prob = no_network_problem(generate_pm1_covariates(n, 1, seed=4))
        assert self.traced_peak(prob, restarts=1) < 8 * n * n / 8
        assert max(tied) > 1000

    @pytest.mark.parametrize("p", [5, 8])
    def test_class_search_memory_stays_linear(self, p, monkeypatch):
        # The full-size covariate-only solve: 8 restarts at n = 2000 search
        # their swaps per class pair, C^2 up to 256^2 in blocks of
        # _BLOCK_ENTRIES, and never score a node pair: the peak measured 0.6
        # MB at p = 5 and 1.5 MB at p = 8.
        n = 2000
        monkeypatch.setattr(_SwapState, "pairs", None)
        prob = no_network_problem(generate_pm1_covariates(n, p, seed=5))
        assert self.traced_peak(prob, restarts=8) < 8 * 2**20

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
        monkeypatch.setattr(_SwapState, "best", scan_each_design)
        assert pruned == solve_all()


def class_skewed_stack(prob, designs, skew, seed):
    """Balanced designs, each of some with one or two whole classes moved onto one arm."""
    rng = np.random.default_rng(seed)
    labels = prob.classes.label
    X = np.stack([random_balanced_design(prob.n, seed + k).x for k in range(designs)])
    for x in X[: designs if skew else 0]:
        moved = np.isin(labels, rng.choice(labels.max() + 1, size=rng.integers(1, 3)))
        plus, sign = np.count_nonzero(x > 0), rng.choice([-1.0, 1.0])
        y = x.copy()
        y[moved] = sign
        need = plus - np.count_nonzero(y > 0)  # flips outside the moved classes restore the arms
        pool = np.flatnonzero(~moved & ((y < 0) if need > 0 else (y > 0)))
        if pool.size >= abs(need):
            y[rng.choice(pool, abs(need), replace=False)] *= -1.0
            x[:] = y
    return X


class TestClassSearch:
    """best_classes() returns what a canonical() scan of every pair of each design returns."""

    @settings(max_examples=30)
    @given(
        n=st.integers(4, 1200),
        p=st.integers(1, 6),
        designs=st.integers(1, 4),
        skew=st.booleans(),
        block=st.sampled_from([1, 16, 64, 512, optimizer._BLOCK_ENTRIES]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n=1200, p=6, designs=4, skew=True, block=optimizer._BLOCK_ENTRIES, seed=1)
    @example(n=1199, p=1, designs=3, skew=True, block=1, seed=2)
    def test_matches_dense_canonical_scan(self, n, p, designs, skew, block, seed):
        assume(p <= n - 2)
        try:
            prob = no_network_problem(generate_pm1_covariates(n, p, seed=seed))
        except RankError:
            assume(False)
        # Classes hold nodes with bit-identical columns of [H; psi], and no two
        # classes share one; a problem with more class pairs than node pairs has none.
        cols = np.vstack([prob.H, prob.psi]).T.view(np.uint64)
        count = np.unique(cols, axis=0).shape[0]
        assert (prob.classes is None) == (count**2 > (n // 2) * (n - n // 2))
        assume(prob.classes is not None)
        labels, order, starts, first = prob.classes
        assert np.array_equal(cols[first][labels], cols)
        assert first.size == count <= 2**p
        assert np.array_equal(first, [order[s] for s in starts])
        assert np.array_equal(labels[order], np.sort(labels))
        state = _SwapState(prob, class_skewed_stack(prob, designs, skew, seed + 1), resync=64)
        rows = np.arange(designs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_BLOCK_ENTRIES", block)
            val, i, j = state.best_classes(rows)
        for g in rows:
            (plus,), (minus,), A, _ = state.focus(rows[g : g + 1])
            pi, mj = np.repeat(plus, minus.size), np.tile(minus, plus.size)
            score = state.canonical(A, np.zeros(pi.size, dtype=np.int64), pi, mj)
            k = int(np.argmin(score))  # the first of equal minima, in (plus, minus) order
            assert (val[g], i[g], j[g]) == (score[k], pi[k], mj[k])


class TestOneTieRule:
    """Every search takes the first lowest canonical() score, so the block constants set speed alone."""

    @settings(max_examples=40)
    @given(
        half=st.integers(2, 128),
        odd=st.booleans(),
        designs=st.integers(1, 6),
        p=st.integers(1, 4),
        kind=st.sampled_from(["weighted", "pm1", "gaussian"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(half=128, odd=False, designs=6, p=4, kind="weighted", seed=1)
    @example(half=127, odd=True, designs=2, p=3, kind="gaussian", seed=2)
    def test_table_scores_are_canonical(self, half, odd, designs, p, kind, seed):
        # Hybrid with weighted W, or covariate-only with +/-1 or Gaussian covariates.
        n = min(2 * half + odd, 256)
        p = min(p, n - 2)
        if kind == "weighted":
            prob = pruning_instance(n, min(0.3, 20 / n), p, 0.5, 0.5, True, seed)
        else:
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((n, p)) if kind == "gaussian" else rng.choice([-1.0, 1.0], (n, p))
            assume(np.linalg.matrix_rank(np.c_[np.ones(n), z]) == p + 1)
            prob = no_network_problem(CovariateMatrix.from_raw(z))
        state = _SwapState(prob, balanced_stack(n, designs, seed + 2), resync=64)
        rows = np.arange(designs)
        P, M, A, _ = arms = state.focus(rows)
        score, cut = state.pairs(rows, arms, caps(state, math.inf))
        assert state.table is not None
        g = np.repeat(rows, P.shape[1] * M.shape[1])
        i = np.repeat(P, M.shape[1], axis=1).ravel()
        j = np.tile(M, P.shape[1]).ravel()
        assert np.array_equal(score.ravel(), state.canonical(A, g, i, j))
        if cut is not None:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(optimizer, "_BLOCK_ENTRIES", 0)
                again = state.pairs(rows, state.focus(rows), caps(state, math.inf))
                assert np.array_equal(again[1], cut)

    @staticmethod
    def instances():
        """48 seeded problems: 40 at n 5-400, hybrid with 0/1 or weighted W and +/-1
        covariate-only, then 8 covariate-only at n 5-300 with 1-6 +/-1 covariates."""
        rng = np.random.default_rng(2323)
        for k in range(40):
            n = int(rng.integers(5, 401))
            p = min(int(rng.integers(1, 5)), n - 2)
            seed = int(rng.integers(2**31))
            if k % 3 == 2:
                prob = no_network_problem(generate_pm1_covariates(n, p, seed=seed))
            else:
                prob = pruning_instance(n, min(0.3, 10 / n), p, float(rng.uniform(0.0, 0.9)),
                                        float(rng.choice([0.05, 0.5])), k % 3 == 1, seed)
            yield prob, seed + 1
        for _ in range(8):
            n = int(rng.integers(5, 301))
            p, seed = min(int(rng.integers(1, 7)), n - 2), int(rng.integers(2**31))
            yield no_network_problem(generate_pm1_covariates(n, p, seed=seed)), seed + 1

    def test_search_path_changes_no_design(self):
        # The search a design takes follows _BLOCK_ENTRIES, _STACK_DESIGNS and,
        # without the network, _CLASS_SHARE; the swaps, and so the records,
        # must not.  The class search is turned on and off at each block size
        # of TestPrunedSearch.
        knobs = [{"_BLOCK_ENTRIES": v} for v in (1, 64, 1 << 14, 1 << 17)]
        knobs += [{"_STACK_DESIGNS": v} for v in (1, 6, 32)]
        classes = [{"_BLOCK_ENTRIES": block, "_CLASS_SHARE": share}
                   for block in (1, 16, 64, 512, 1 << 14) for share in (0.0, math.inf)]
        for prob, seed in self.instances():
            records = set()
            for knob in knobs + (classes if prob.W is None else []):
                with pytest.MonkeyPatch.context() as mp:
                    for name, value in knob.items():
                        mp.setattr(optimizer, name, value)
                    records.add(repr(solve_local(prob, restarts=4, seed=seed).to_record()))
            assert len(records) == 1, (prob.n, prob.W is None)


def polish_one(problem, cap, x, deadline=None):
    """One start repaired and descended alone: (design or None, objective, swaps)."""
    rows, feasible, swaps = optimizer._polish_rows(problem, [cap], x[None, :], deadline)
    return (*optimizer._first_best(problem, rows, feasible), int(swaps[0]))


def one_restart_at_a_time(problem, groups, restarts, deadline=None, workers=1):
    """Multistart reference: for each (cap, seed) of groups, each child seed's
    start polished alone, the first strict best kept; (design, swaps) a group."""
    out = []
    for cap, seed in groups:
        rng = np.random.default_rng(seed)
        best_x, best_obj, total = None, math.inf, 0
        for _ in range(restarts):
            x = random_balanced_design(problem.n, int(rng.integers(0, 2**63 - 1))).x.copy()
            got, obj, iters = polish_one(problem, cap, x, deadline)
            total += iters
            if got is not None and obj < best_obj - 1e-15:
                best_x, best_obj = got, obj
        out.append((best_x, total))
    return out


def torus(k):
    """The k x k torus grid, node i k + j joined to its four neighbours."""
    edges = [(i * k + j, i * k + (j + 1) % k) for i in range(k) for j in range(k)]
    edges += [(i * k + j, (i + 1) % k * k + j) for i in range(k) for j in range(k)]
    return Network.from_edges(k * k, edges)


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
        repaired = [polish_one(prob, prob.cap, x)[0] is not None for x in starts]
        assert any(repaired) and not all(repaired)
        self.check(prob, 8, 19, mode)

    def test_long_repair_resyncs_designs_of_the_stack(self, monkeypatch):
        # On a 30 x 30 torus the cap at alpha 1e-300 takes each start more
        # than 64 repair swaps, so apply() resyncs designs of a stack in place.
        prob = hybrid_problem(torus(30), generate_pm1_covariates(900, 2, seed=3), 0.5, 1e-300)
        stacked, resynced = [], []
        apply, sync = optimizer._SwapState.apply, optimizer._SwapState.sync

        def spy_apply(self, *args, r=0, **kwargs):
            stacked.append(isinstance(r, np.ndarray))
            try:
                apply(self, *args, r=r, **kwargs)
            finally:
                stacked.pop()

        def spy_sync(self, rows=0):
            if stacked and stacked[-1]:
                resynced.extend((int(r), int(self.swaps[r])) for r in np.atleast_1d(rows))
            sync(self, rows)

        monkeypatch.setattr(optimizer._SwapState, "apply", spy_apply)
        monkeypatch.setattr(optimizer._SwapState, "sync", spy_sync)
        self.check(prob, 3, 5, "one")
        assert resynced and all(swaps % 64 == 0 for _, swaps in resynced)
        assert len({r for r, _ in resynced}) > 1  # more than one design of the stack


def clique_instance(n=300, size=30, p=4, seed=5):
    """n / size disjoint cliques.  A balanced design's x'Wx is at least -n,
    so the cap at alpha 1e-4 cannot be met and the ladder climbs to 0.001."""
    edges = [(c + i, c + j) for c in range(0, n, size)
             for i, j in itertools.combinations(range(size), 2)]
    return Network(n, edges), generate_pm1_covariates(n, p, seed=seed)


class TestWorkers:
    """Restarts split across forked workers give the report of one process."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        # Every worker count asked for below forks, whatever this machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker count of each fork_map call the solves make."""
        counts, real = [], _pool.fork_map

        def spy(fn, items, workers):
            counts.append(workers)
            return real(fn, items, workers)

        monkeypatch.setattr(_pool, "fork_map", spy)
        return counts

    @staticmethod
    def records(prob, restarts=5, **kwargs):
        """solve_local's record at 1, 2, 3 and more workers than restarts."""
        out = [solve_local(prob, restarts=restarts, seed=3, workers=k, **kwargs).to_record()
               for k in (1, 2, 3, restarts + 2)]
        assert no_children()
        return out

    def test_above_the_crossover(self, pools):
        net = repair_isolated(generate_bernoulli_network(300, 0.03, seed=1), "connect",
                              seed=2).network
        cov = generate_pm1_covariates(300, 10, seed=3)
        for prob in (hybrid_problem(net, cov, 0.5, 0.001), no_network_problem(cov)):
            assert prob.classes is None  # above one block of pairs: the row-bound search
            pools.clear()
            one, *split = self.records(prob)
            assert one["iterations"] > 0 and all(r == one for r in split)
            assert pools == [1, 2, 3, 4]  # restarts + 2 workers: capped at the 4 CPUs

    def test_below_the_crossover(self, pools):
        # Small designs fork too, and the stacked table search of each
        # worker's chunk takes the same swaps.
        rng = np.random.default_rng(4)
        net = repair_isolated(generate_bernoulli_network(60, 0.1, seed=5), "connect",
                              seed=6).network
        cov = CovariateMatrix.from_raw(rng.normal(size=(60, 3)))
        for prob in (hybrid_problem(net, cov, 0.5, 0.01), no_network_problem(cov)):
            pools.clear()
            one, *split = self.records(prob)
            assert all(r == one for r in split)
            assert pools == [1, 2, 3, 4]

    def test_class_search_forks_as_asked(self, pools):
        prob = no_network_problem(generate_pm1_covariates(400, 3, seed=7))
        assert prob.classes is not None
        one, *split = self.records(prob)
        assert all(r == one for r in split) and pools == [1, 2, 3, 4]

    def test_ladder_climb(self, pools):
        prob = hybrid_problem(*clique_instance(), 0.5, 1e-4)
        one, *split = self.records(prob)
        assert one["relaxations_applied"] == [0.001] and one["feasible"]
        assert all(r == one for r in split)
        assert pools == [1, 1, 2, 2, 3, 3, 4, 4]  # a pool for each level tried

    def test_spent_time_budget(self):
        # Descent never starts, in any worker; the repaired designs are compared.
        net = repair_isolated(generate_bernoulli_network(300, 0.03, seed=8), "connect",
                              seed=9).network
        prob = hybrid_problem(net, generate_pm1_covariates(300, 4, seed=10), 0.5, 0.001)
        one, *split = self.records(prob, time_budget=1e-9)
        assert all(r == one for r in split)

    def test_matches_one_restart_at_a_time(self, monkeypatch):
        net = repair_isolated(generate_bernoulli_network(300, 0.03, seed=11), "connect",
                              seed=12).network
        prob = hybrid_problem(net, generate_pm1_covariates(300, 4, seed=13), 0.5, 0.001)
        split = solve_local(prob, restarts=6, seed=14, workers=3).to_record()
        monkeypatch.setattr(optimizer, "_local_core", one_restart_at_a_time)
        assert split == solve_local(prob, restarts=6, seed=14).to_record()

    @pytest.mark.parametrize("workers", [0, -1, 2.5, None, True])
    def test_count_that_is_not_an_integer_of_at_least_one(self, pools, workers):
        prob = no_network_problem(generate_pm1_covariates(40, 2, seed=15))
        for call in (solve_local, solve):
            with pytest.raises(DataError) as err:
                call(prob, restarts=2, workers=workers)
            assert str(err.value) == f"workers must be an integer of at least 1, got {workers!r}"
        assert pools == []

    def test_a_worker_that_dies(self, monkeypatch):
        parent, real = os.getpid(), optimizer._polish_rows

        def dies_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_polish_rows", dies_in_a_worker)
        net = repair_isolated(generate_bernoulli_network(300, 0.03, seed=16), "connect",
                              seed=17).network
        prob = hybrid_problem(net, generate_pm1_covariates(300, 4, seed=18), 0.5, 0.001)
        with pytest.raises(NetdesignError, match="^a worker process stopped unexpectedly"):
            solve_local(prob, restarts=4, workers=2)
        assert no_children()


def same_report(got, want):
    """Two SolveReports agree field by field, the design byte for byte; wall_time aside."""
    assert (got.design is None) == (want.design is None)
    if got.design is not None:
        assert got.design.x.tobytes() == want.design.x.tobytes()
    for name in ("objective", "constraint_value", "feasible", "optimal", "method", "iterations",
                 "restarts", "seed", "alpha", "alpha_requested", "relaxations_applied",
                 "rho0", "n"):
        assert getattr(got, name) == getattr(want, name), name


class TestSolveLevels:
    """_solve_levels gives, alpha for alpha, the report of solve on that alpha alone."""

    @pytest.fixture
    def cores(self, monkeypatch):
        """The groups of each _local_core call."""
        calls, real = [], optimizer._local_core

        def spy(problem, groups, *args, **kwargs):
            calls.append(len(groups))
            return real(problem, groups, *args, **kwargs)

        monkeypatch.setattr(optimizer, "_local_core", spy)
        return calls

    @staticmethod
    def check(prob, alphas, restarts, cores, method="auto"):
        """The grouped reports, checked against solve on each alpha, and the
        group count of each _local_core call they took."""
        seeds = [41 + 7 * k for k in range(len(alphas))]
        grouped = optimizer._solve_levels(prob, alphas, seeds, restarts, method)
        stacks = list(cores)
        assert len(grouped) == len(alphas)
        for got, alpha, seed in zip(grouped, alphas, seeds):
            want = solve(dataclasses.replace(prob, alpha=alpha), method=method, seed=seed,
                         restarts=restarts)
            same_report(got, want)
        return grouped, stacks

    def test_table_path(self, cores):
        # n = 50: every design's pairs fit one block, scored from the tables.
        net = repair_isolated(generate_bernoulli_network(50, 0.08, seed=1), "connect",
                              seed=2).network
        prob = hybrid_problem(net, generate_pm1_covariates(50, 10, seed=3), 0.5, 0.1)
        assert 25 * 25 <= optimizer._BLOCK_ENTRIES
        reports, stacks = self.check(prob, (0.1, 0.01, 0.001, 0.0001), 16, cores)
        assert all(r.method == "local" and r.feasible for r in reports)
        assert stacks == [4]  # the four alphas polished as one stack

    def test_row_bound_path(self, cores):
        net = repair_isolated(generate_bernoulli_network(300, 0.03, seed=4), "connect",
                              seed=5).network
        prob = hybrid_problem(net, generate_pm1_covariates(300, 4, seed=6), 0.5, 0.1)
        assert 150 * 150 > optimizer._BLOCK_ENTRIES
        assert self.check(prob, (0.1, 0.001, 0.5), 4, cores)[1] == [3]

    def test_an_alpha_out_of_reach_climbs_alone(self, cores):
        # On the disjoint cliques no start meets the cap at alpha 1e-4; the
        # other alphas are met in the same stack.
        prob = hybrid_problem(*clique_instance(), 0.5, 0.1)
        reports, stacks = self.check(prob, (0.1, 1e-4, 0.01), 3, cores)
        assert [r.relaxations_applied for r in reports] == [(), (0.001,), ()]
        assert all(r.feasible for r in reports)
        assert stacks == [3, 1]  # the stack, then the climb's one level

    def test_long_repair_next_to_short(self, cores):
        # On the 30 x 30 torus each start takes more than 64 repair swaps to
        # meet the cap at alpha 1e-300, resyncing in a stack with a loose cap.
        prob = hybrid_problem(torus(30), generate_pm1_covariates(900, 2, seed=3), 0.5, 0.1)
        reports, stacks = self.check(prob, (0.1, 1e-300), 3, cores)
        assert reports[1].iterations > 3 * 64 and stacks == [2]

    @pytest.mark.parametrize("method,n", [("auto", 20), ("exact", 20), ("annealing", 40)])
    def test_other_methods_solve_each_alpha(self, cores, method, n):
        net = repair_isolated(generate_bernoulli_network(n, 0.2, seed=7), "connect",
                              seed=8).network
        prob = hybrid_problem(net, generate_pm1_covariates(n, 2, seed=9), 0.5, 0.1)
        reports, stacks = self.check(prob, (0.1, 0.001), 4, cores, method)
        assert {r.method for r in reports} == {"exact" if method == "auto" else method}
        assert stacks == []

    def test_workers(self, monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        pools, real = [], _pool.fork_map

        def spy(fn, items, workers):
            pools.append(workers)
            return real(fn, items, workers)

        monkeypatch.setattr(_pool, "fork_map", spy)
        net = repair_isolated(generate_bernoulli_network(60, 0.1, seed=10), "connect",
                              seed=11).network
        prob = hybrid_problem(net, generate_pm1_covariates(60, 3, seed=12), 0.5, 0.1)
        alphas, seeds = (0.1, 0.001), [5, 6]
        one = optimizer._solve_levels(prob, alphas, seeds, 5)
        two = optimizer._solve_levels(prob, alphas, seeds, 5, workers=2)
        assert no_children()
        assert pools == [1, 2]
        for got, want in zip(two, one):
            same_report(got, want)

    def test_bad_arguments_raise_as_solve_does(self):
        prob = hybrid_problem(torus(6), generate_pm1_covariates(36, 2, seed=13), 0.5, 0.1)
        with pytest.raises(DataError, match="need at least 1 restart"):
            optimizer._solve_levels(prob, (0.1,), [1], 0)
        with pytest.raises(DataError, match="workers must be an integer"):
            optimizer._solve_levels(prob, (0.1,), [1], 4, workers=0)
        with pytest.raises(DataError, match="alpha must lie in"):
            optimizer._solve_levels(prob, (0.1, 1.0), [1, 2], 4)


class TestMixedCaps:
    """_polish_rows on rows with different caps: each group as if polished alone."""

    @pytest.mark.parametrize("n,density,alphas", [
        (50, 0.08, (0.1, 0.01, 0.0001)),  # scored from the tables
        (20, 0.87, (0.5, 0.001)),  # some starts cannot be repaired into the cap at 0.001
        (300, 0.03, (0.5, 0.001)),  # the row-bound search
    ])
    def test_matches_each_group_alone(self, n, density, alphas):
        net = repair_isolated(generate_bernoulli_network(n, density, seed=n), "connect",
                              seed=n).network
        prob = hybrid_problem(net, generate_pm1_covariates(n, 2, seed=n + 1), 0.5, alphas[0])
        caps = [quantile_cap(net, a) for a in alphas]
        per = 5
        starts = np.stack([optimizer._balanced_signs(n, 100 + k) for k in range(per * len(caps))])
        x, feasible, swaps = optimizer._polish_rows(prob, np.repeat(caps, per), starts.copy())
        for g, cap in enumerate(caps):
            at = slice(g * per, (g + 1) * per)
            alone = optimizer._polish_rows(prob, np.full(per, cap), starts[at].copy())
            assert x[at].tobytes() == alone[0].tobytes()
            assert np.array_equal(feasible[at], alone[1])
            assert np.array_equal(swaps[at], alone[2])
        if density > 0.5:
            assert feasible[:per].all() and not feasible[per:].all()


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

        # Up to n = 30, the exact search's own limit.
        net, cov, rho0, alpha = random_instance(rng, n_lo=22, n_hi=30)
        report = solve(hybrid_problem(net, cov, rho0, alpha))
        assert report.method == "exact" and report.optimal

        net2 = repair_isolated(
            generate_bernoulli_network(40, 0.1, seed=51), "connect", seed=0
        ).network
        cov2 = generate_pm1_covariates(40, 2, seed=52)
        prob2 = hybrid_problem(net2, cov2, 0.5, 0.2)
        assert solve(prob2, restarts=4).method == "local"

    def test_auto_local_above_5000(self):
        # Local search at every n above 30; a spent budget stops it after repair.
        net = repair_isolated(
            generate_bernoulli_network(5001, 0.002, seed=53), "connect", seed=0
        ).network
        cov = generate_pm1_covariates(5001, 1, seed=54)
        prob = hybrid_problem(net, cov, 0.5, 0.2)
        report = solve(prob, seed=0, restarts=1, time_budget=0.0)
        assert report.method == "local"

    def test_unknown_method(self):
        cov = generate_pm1_covariates(8, 1, seed=55)
        with pytest.raises(DataError):
            solve(no_network_problem(cov), method="gradient")
