import itertools

import numpy as np
import pytest
from scipy.special import ndtri

from netdesign import criterion
from netdesign.car import CarParams, fit_gls, sample_outcomes
from netdesign.criterion import (
    _DENSE_EIGEN,
    _EXP_M2,
    CriterionEvaluator,
    _adjacency_spectrum,
    _eig_extremes,
    _ndtri,
    _precision_curve,
    balanced_moment_c,
    concavity_probe,
    evaluate,
    expected_breakdown,
    expected_precision,
    expected_precision_matrix,
    k_matrix,
    pip,
    quadform_correlation,
    robustness_correlation,
    robustness_scatter,
    robustness_scatters,
    surrogate_gap_diagnostics,
)
from netdesign.errors import DataError, DegenerateDesignError
from netdesign.graph import (
    CovariateMatrix,
    Network,
    generate_bernoulli_network,
    generate_pm1_covariates,
    repair_isolated,
)


def connected_net(n, density, seed):
    net = generate_bernoulli_network(n, density, seed=seed)
    return repair_isolated(net, "connect", seed=seed).network


def dense_kernel(net, rho):
    R = np.zeros((net.n, net.n))
    for a, b in net.edges:
        R[a, b] -= rho
        R[b, a] -= rho
        R[a, a] += 1.0
        R[b, b] += 1.0
    return R


def dense_k_oracle(net, cov, rho):
    # Independent route: explicit inverse, no shared factorizations.
    R = dense_kernel(net, rho)
    F = cov.values
    A = F.T @ R @ F
    return R - R @ F @ np.linalg.inv(A) @ F.T @ R


def balanced_designs(n):
    # Exhaustive enumeration of balanced +/-1 vectors.
    out = []
    for k_plus in ({n // 2} if n % 2 == 0 else {n // 2, n // 2 + 1}):
        for pos in itertools.combinations(range(n), k_plus):
            x = -np.ones(n)
            x[list(pos)] = 1.0
            out.append(x)
    return out


def alternating(n):
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


class TestKMatrix:
    def test_matches_inverse_oracle(self):
        net = connected_net(30, 0.15, 1)
        cov = generate_pm1_covariates(30, 3, seed=1)
        for rho in (0.0, 0.5, 0.9):
            K = k_matrix(net, cov, rho)
            K0 = dense_k_oracle(net, cov, rho)
            assert np.max(np.abs(K - K0)) <= 1e-8 * max(1.0, net.m)

    def test_exactly_symmetric(self):
        net = connected_net(40, 0.1, 2)
        cov = generate_pm1_covariates(40, 4, seed=2)
        K = k_matrix(net, cov, 0.7)
        assert np.max(np.abs(K - K.T)) <= 1e-10

    def test_positive_semidefinite_and_annihilates_covariates(self):
        net = connected_net(25, 0.2, 3)
        cov = generate_pm1_covariates(25, 2, seed=3)
        K = k_matrix(net, cov, 0.6)
        assert np.min(np.linalg.eigvalsh(K)) >= -1e-8
        # K F = 0, so in particular K 1 = 0 through the intercept.
        assert np.max(np.abs(K @ cov.values)) <= 1e-8
        assert np.max(np.abs(K @ np.ones(25))) <= 1e-8


class TestEvaluate:
    def test_decomposition_matches_dense(self):
        net = connected_net(30, 0.15, 4)
        cov = generate_pm1_covariates(30, 3, seed=4)
        rho = 0.55
        rng = np.random.default_rng(5)
        K = dense_k_oracle(net, cov, rho)
        R = dense_kernel(net, rho)
        F = cov.values
        W = net.adjacency.toarray()
        grid = np.arange(0.0, 0.991, 0.03)
        K_grid = [dense_k_oracle(net, cov, r) for r in grid]
        for _ in range(10):
            x = rng.integers(0, 2, size=30) * 2.0 - 1.0
            # Grid route: the rho-affine Gram kernel behind the gap and
            # concavity diagnostics, every rho elementwise in the pencil basis.
            curve = _precision_curve(net, cov, x, grid)[1]
            for t, Kr in zip(curve, K_grid):
                assert t == pytest.approx(x @ Kr @ x, rel=1e-10)
            br = evaluate(net, cov, x, rho)
            assert abs(br.precision - x @ K @ x) <= 1e-8 * max(1.0, net.m)
            assert abs(br.network_term - rho * x @ W @ x) <= 1e-10 * max(1.0, net.m)
            t2 = x @ R @ F @ np.linalg.inv(F.T @ R @ F) @ F.T @ R @ x
            assert abs(br.imbalance_term - t2) <= 1e-8 * max(1.0, net.m)
            assert br.total_degree == net.m
            # The three pieces always recompose exactly.
            assert (
                abs(br.precision - (br.total_degree - br.network_term - br.imbalance_term))
                <= 1e-12 * max(1.0, net.m)
            )

    def test_zero_rho_kills_network_term(self):
        net = connected_net(20, 0.2, 6)
        cov = generate_pm1_covariates(20, 2, seed=6)
        br = evaluate(net, cov, alternating(20), 0.0)
        assert br.network_term == 0.0

    def test_variance_is_sigma2_over_precision(self):
        net = connected_net(20, 0.2, 7)
        cov = generate_pm1_covariates(20, 2, seed=7)
        br = evaluate(net, cov, alternating(20), 0.4, sigma2=2.0)
        assert br.variance == pytest.approx(2.0 / br.precision, rel=1e-12)

    def test_gls_variance_route_equivalence(self):
        # sigma2 (X'RX)^{-1}_00 from the fit equals sigma2 / (x'Kx).
        net = connected_net(35, 0.12, 8)
        cov = generate_pm1_covariates(35, 3, seed=8)
        x = alternating(35)
        y = sample_outcomes(net, cov, x, CarParams(rho=0.6, theta=1.0), seed=9)
        res = fit_gls(net, cov, x, y, 0.6)
        br = evaluate(net, cov, x, 0.6, sigma2=res.sigma2_hat)
        assert abs(res.var_theta - br.variance) <= 1e-8 * max(abs(res.var_theta), 1e-12)

    def test_evaluator_caching_consistent(self):
        net = connected_net(25, 0.2, 10)
        cov = generate_pm1_covariates(25, 2, seed=10)
        ev = CriterionEvaluator(net, cov, 0.5)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.integers(0, 2, size=25) * 2.0 - 1.0
            a = ev.breakdown(x)
            b = evaluate(net, cov, x, 0.5)
            assert a.precision == pytest.approx(b.precision, rel=1e-14)

    def test_length_mismatch(self):
        net = connected_net(10, 0.3, 12)
        cov = generate_pm1_covariates(10, 1, seed=12)
        with pytest.raises(DataError, match="length"):
            evaluate(net, cov, alternating(9), 0.5)


class TestBalancedMoments:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_offdiagonal_moment_exhaustive(self, n):
        # Oracle: enumerate every balanced design and average x_i x_j.
        designs = np.stack(balanced_designs(n))
        second = designs.T @ designs / len(designs)
        offdiag = second[~np.eye(n, dtype=bool)]
        assert np.allclose(offdiag, balanced_moment_c(n), atol=1e-12)
        assert np.allclose(np.diag(second), 1.0)

    def test_constants_exact(self):
        assert balanced_moment_c(6) == -1.0 / 5
        assert balanced_moment_c(7) == -1.0 / 7
        assert balanced_moment_c(100) == -1.0 / 99
        assert balanced_moment_c(101) == -1.0 / 101

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_expected_precision_vs_enumeration(self, n):
        net = connected_net(n, 0.5, n)
        cov = generate_pm1_covariates(n, 1, seed=n)
        rho = 0.6
        K = dense_k_oracle(net, cov, rho)
        vals = [x @ K @ x for x in balanced_designs(n)]
        expect = float(np.mean(vals))
        got = expected_precision(net, cov, rho)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))

    def test_trace_identity_against_dense(self):
        net = connected_net(30, 0.15, 13)
        cov = generate_pm1_covariates(30, 3, seed=13)
        rho = 0.45
        K = dense_k_oracle(net, cov, rho)
        C = expected_precision_matrix(30)
        assert expected_precision(net, cov, rho) == pytest.approx(
            float(np.trace(K @ C)), rel=1e-10
        )

    def test_expected_breakdown_recomposes(self):
        net = connected_net(24, 0.2, 14)
        cov = generate_pm1_covariates(24, 2, seed=14)
        eb = expected_breakdown(net, cov, 0.7)
        assert eb.precision == pytest.approx(
            eb.total_degree - eb.network_term - eb.imbalance_term, rel=1e-12
        )
        assert eb.precision == pytest.approx(expected_precision(net, cov, 0.7), rel=1e-12)
        # Balanced moments put the expected network term at rho*c*m.
        c = balanced_moment_c(24)
        assert eb.network_term == pytest.approx(0.7 * c * net.m, rel=1e-12)
        assert eb.variance == 1.0 / eb.precision


class TestPip:
    def test_matches_dense_oracle(self):
        net = connected_net(30, 0.15, 15)
        cov = generate_pm1_covariates(30, 2, seed=15)
        rho_t = 0.8
        x0 = alternating(30)
        K = dense_k_oracle(net, cov, rho_t)
        C = expected_precision_matrix(30)
        want = 1.0 - np.trace(K @ C) / (x0 @ K @ x0)
        assert pip(net, cov, x0, rho_t) == pytest.approx(want, rel=1e-9)

    def test_degenerate_design_rejected(self):
        net = connected_net(20, 0.2, 16)
        cov = generate_pm1_covariates(20, 1, seed=16)
        with pytest.raises(DegenerateDesignError):
            pip(net, cov, np.ones(20), 0.5)


class TestQuadformCorrelation:
    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(17)
        n = 30
        A = rng.normal(size=(n, n))
        A = A + A.T
        B = 0.6 * A + 0.8 * rng.normal(size=(n, n))
        B = (B + B.T) / 2
        exact = quadform_correlation(A, B)
        xs = rng.integers(0, 2, size=(20_000, n)) * 2.0 - 1.0
        qa = np.einsum("ki,ij,kj->k", xs, A, xs)
        qb = np.einsum("ki,ij,kj->k", xs, B, xs)
        assert abs(exact - np.corrcoef(qa, qb)[0, 1]) < 0.02

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(18)
        A = rng.normal(size=(10, 10))
        A = A + A.T
        assert quadform_correlation(A, A) == pytest.approx(1.0, abs=1e-12)
        assert quadform_correlation(A, -A) == pytest.approx(-1.0, abs=1e-12)

    def test_diagonal_matrix_rejected(self):
        with pytest.raises(DataError, match="off-diagonal"):
            quadform_correlation(np.diag([1.0, 2.0]), np.ones((2, 2)))

    def test_asymmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DataError, match="symmetric"):
            quadform_correlation(bad, bad)

    def test_sparse_input_accepted(self):
        net = connected_net(15, 0.3, 19)
        dense = net.adjacency.toarray()
        assert quadform_correlation(net.adjacency, dense) == pytest.approx(1.0)


class TestRobustnessCorrelation:
    @pytest.mark.parametrize("n, density, p, seed", [
        (12, 0.4, 1, 50), (40, 0.15, 1, 51), (60, 0.1, 3, 52), (150, 0.04, 5, 53),
    ])
    @pytest.mark.parametrize("rho0, rho", [
        (0.5, 0.9), (0.5, 0.1), (0.0, 0.7), (0.9, 0.0), (0.0, 0.0), (0.3, 0.3),
    ])
    def test_matches_dense_route(self, n, density, p, seed, rho0, rho):
        net = connected_net(n, density, seed)
        cov = generate_pm1_covariates(n, p, seed=seed)
        want = quadform_correlation(k_matrix(net, cov, rho0), k_matrix(net, cov, rho))
        assert robustness_correlation(net, cov, rho0, rho) == pytest.approx(want, rel=1e-10)

    def test_rho_outside_unit_interval_rejected(self):
        net = connected_net(10, 0.3, 54)
        cov = generate_pm1_covariates(10, 1, seed=54)
        with pytest.raises(DataError, match=r"must lie in \[0, 1\)"):
            robustness_correlation(net, cov, 0.5, 1.0)


class TestRobustnessScatter:
    # n=8 has 256 designs, so 100 draws redraw many duplicates.
    @pytest.mark.parametrize("n, n_designs", [(8, 100), (60, 300)])
    def test_matches_per_design_breakdown(self, n, n_designs):
        net = connected_net(n, 0.3 if n < 20 else 0.1, 27)
        cov = generate_pm1_covariates(n, 2, seed=27)
        sc = robustness_scatter(net, cov, 0.4, 0.85, n_designs, seed=28)
        rng = np.random.default_rng(28)
        seen, designs = set(), []
        while len(designs) < n_designs:
            x = rng.integers(0, 2, size=n) * 2.0 - 1.0
            if x.tobytes() not in seen:
                seen.add(x.tobytes())
                designs.append(x)
        for rho, got in ((0.4, sc.precision_at_rho0), (0.85, sc.precision_at_rho)):
            ev = CriterionEvaluator(net, cov, rho)
            want = np.array([ev.breakdown(x).precision for x in designs])
            # x'Kx is m minus two terms up to about m in size, so rounding
            # scales with m: a design of precision near zero, such as all
            # +1 on n=8, has no relative accuracy on either route.
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * net.m)

    def test_deterministic_and_correlated(self):
        net = connected_net(40, 0.1, 20)
        cov = generate_pm1_covariates(40, 2, seed=20)
        a = robustness_scatter(net, cov, 0.5, 0.8, 200, seed=21)
        b = robustness_scatter(net, cov, 0.5, 0.8, 200, seed=21)
        assert np.array_equal(a.precision_at_rho0, b.precision_at_rho0)
        assert a.sample_correlation == b.sample_correlation
        assert -1.0 <= a.sample_correlation <= 1.0

    def test_scatters_share_one_draw(self):
        # diagnose asks for every grid rho from one draw of the designs.
        net = connected_net(40, 0.1, 20)
        cov = generate_pm1_covariates(40, 2, seed=20)
        rhos = (0.1, 0.3, 0.9)
        got = list(robustness_scatters(net, cov, 0.5, rhos, 200, seed=21))
        assert [sc.rho for sc in got] == list(rhos)
        for rho, sc in zip(rhos, got):
            alone = robustness_scatter(net, cov, 0.5, rho, 200, seed=21)
            assert np.array_equal(sc.precision_at_rho0, alone.precision_at_rho0)
            assert np.array_equal(sc.precision_at_rho, alone.precision_at_rho)
            assert sc.sample_correlation == alone.sample_correlation

    def test_sample_tracks_exact_formula(self):
        net = connected_net(40, 0.1, 22)
        cov = generate_pm1_covariates(40, 2, seed=22)
        exact = quadform_correlation(k_matrix(net, cov, 0.5), k_matrix(net, cov, 0.9))
        sc = robustness_scatter(net, cov, 0.5, 0.9, 4000, seed=23)
        assert abs(sc.sample_correlation - exact) < 0.05

    def test_two_designs_distinct(self):
        net = connected_net(4, 0.9, 24)
        cov = generate_pm1_covariates(4, 1, seed=24)
        sc = robustness_scatter(net, cov, 0.3, 0.6, 2, seed=25)
        assert not np.array_equal(sc.precision_at_rho0[0], sc.precision_at_rho0[1]) or (
            sc.precision_at_rho0[0] != sc.precision_at_rho0[1]
        )

    def test_needs_two_designs(self):
        net = connected_net(10, 0.3, 26)
        cov = generate_pm1_covariates(10, 1, seed=26)
        with pytest.raises(DataError):
            robustness_scatter(net, cov, 0.3, 0.6, 1, seed=0)


class TestNdtri:
    """criterion._ndtri against scipy.special.ndtri, bit for bit.  A single
    differing point means a wrong coefficient or a changed operation order."""

    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(20260)
        cut = _EXP_M2
        edges = [cut, 1.0 - cut, np.exp(-32.0), 1e-16, 5e-324, np.nextafter(1.0, 0.0), 0.5]
        edges += [np.nextafter(e, d) for e in edges[:3] for d in (0.0, 1.0)]
        alphas = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5]
        y = np.concatenate([
            rng.random(40_000),                              # central and both near tails
            10.0 ** rng.uniform(-300.0, 0.0, 30_000),        # far lower tail, both x < 8 and x >= 8
            1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 30_000),  # upper tail
            edges, alphas, [1.0 - a for a in alphas],
        ])
        mine = np.array([_ndtri(v) for v in y.tolist()])
        np.testing.assert_array_equal(mine.view(np.int64), ndtri(y).view(np.int64))

    def test_ends_and_outside(self):
        assert _ndtri(0.0) == -np.inf and _ndtri(1.0) == np.inf
        for y in (-0.1, 1.1, -np.inf, np.inf, np.nan):
            assert np.isnan(_ndtri(y)) and np.isnan(ndtri(y))
        value = _ndtri(np.float64(0.025))
        assert type(value) is float and value == ndtri(0.025)


class TestGapDiagnostics:
    def test_point_prior_gives_zero_everything(self):
        net = connected_net(25, 0.2, 27)
        cov = generate_pm1_covariates(25, 2, seed=27)
        d = surrogate_gap_diagnostics(net, cov, alternating(25), 0.5, np.full(50, 0.5))
        assert d.gap_estimate == pytest.approx(0.0, abs=1e-10)
        assert d.second_derivative_term == 0.0
        assert d.bound_a == 0.0
        assert d.bound_b == 0.0

    def test_second_derivative_matches_finite_differences(self):
        net = connected_net(30, 0.15, 28)
        cov = generate_pm1_covariates(30, 2, seed=28)
        x = alternating(30)
        rho0, h = 0.5, 1e-3
        samples = np.random.default_rng(29).uniform(0, 1, size=100)
        d = surrogate_gap_diagnostics(net, cov, x, rho0, samples)
        t2 = lambda r: evaluate(net, cov, x, r).imbalance_term
        fd = (t2(rho0 + h) - 2 * t2(rho0) + t2(rho0 - h)) / h**2
        half_fd = 0.5 * fd * np.var(samples)
        assert d.second_derivative_term == pytest.approx(half_fd, rel=1e-3)
        assert d.second_derivative_term >= 0.0

    @pytest.mark.parametrize("rho0", [0.0, 0.3, 0.95])
    def test_second_derivative_matches_dense_oracle(self, rho0):
        # s' W F (F'RF)^{-1} F' W s var_rho for the residual
        # s = x - F (F'RF)^{-1} F'R x, with dense solves at rho0.
        net = connected_net(30, 0.15, 28)
        cov = generate_pm1_covariates(30, 2, seed=28)
        x = alternating(30)
        samples = np.random.default_rng(29).uniform(0, 1, size=100)
        d = surrogate_gap_diagnostics(net, cov, x, rho0, samples)
        R = dense_kernel(net, rho0)
        W = dense_kernel(net, 0.0) - dense_kernel(net, 1.0)
        F = cov.values
        s = x - F @ np.linalg.solve(F.T @ R @ F, F.T @ R @ x)
        u = F.T @ W @ s
        want = float(u @ np.linalg.solve(F.T @ R @ F, u)) * np.var(samples)
        assert abs(d.second_derivative_term - want) <= 1e-10 * want
        # bound_a = min(n lam_max(R), (1 + rho0) m) lam_W^2 var(rho) / lam_min(R)^2.
        lam = np.linalg.eigvalsh(R)
        lam_w = np.max(np.abs(np.linalg.eigvalsh(W)))
        want_a = (min(net.n * lam[-1], (1 + rho0) * net.m) * lam_w**2 * np.var(samples)
                  / lam[0] ** 2)
        assert d.bound_a == pytest.approx(want_a, rel=1e-10)

    def test_jensen_gap_nonnegative_and_bounded(self):
        net = connected_net(30, 0.2, 30)
        cov = generate_pm1_covariates(30, 1, seed=30)
        rng = np.random.default_rng(31)
        for _ in range(10):
            x = rng.integers(0, 2, size=30) * 2.0 - 1.0
            samples = rng.uniform(0, 1, size=200)
            d = surrogate_gap_diagnostics(net, cov, x, float(samples.mean()), samples)
            assert d.gap_estimate >= -1e-8
            assert d.gap_estimate <= d.bound_a + 1e-8
            assert d.gap_estimate <= d.bound_b + 1e-8

    def test_bound_b_alpha_monotone(self):
        net = connected_net(25, 0.2, 32)
        cov = generate_pm1_covariates(25, 1, seed=32)
        samples = np.random.default_rng(33).uniform(0, 1, size=100)
        d = surrogate_gap_diagnostics(net, cov, alternating(25), 0.5, samples, alpha=0.05)
        assert d.bound_b == pytest.approx(d.bound_b_at(0.05), rel=1e-12)
        assert d.bound_b_at(0.01) > d.bound_b_at(0.05) > d.bound_b_at(0.2)

    def test_prior_validation(self):
        net = connected_net(10, 0.3, 34)
        cov = generate_pm1_covariates(10, 1, seed=34)
        x = alternating(10)
        with pytest.raises(DataError):
            surrogate_gap_diagnostics(net, cov, x, 0.5, [])
        with pytest.raises(DataError):
            surrogate_gap_diagnostics(net, cov, x, 0.5, [0.5, 1.0])

    @pytest.mark.parametrize("rho0", [1.0, -0.1, float("nan")])
    def test_rho0_outside_unit_interval_rejected(self, rho0):
        net = connected_net(10, 0.3, 34)
        cov = generate_pm1_covariates(10, 1, seed=34)
        with pytest.raises(DataError, match=r"must lie in \[0, 1\)"):
            surrogate_gap_diagnostics(net, cov, alternating(10), rho0, [0.5, 0.6])

    # Up to _DENSE_EIGEN nodes one dense eigvalsh serves; above it Lanczos
    # runs at both ends.
    @pytest.mark.parametrize("n, density", [
        (12, 0.3), (60, 0.1), (_DENSE_EIGEN, 0.05), (_DENSE_EIGEN + 1, 0.05), (400, 0.02),
    ])
    def test_eigenvalue_extremes_match_dense(self, n, density):
        net = connected_net(n, density, 35)
        lam_max, lam_min, lam_w = _eig_extremes(net, 0.5)
        R = dense_kernel(net, 0.5)
        vals = np.linalg.eigvalsh(R)
        wvals = np.linalg.eigvalsh(net.adjacency.toarray())
        assert lam_max == pytest.approx(vals[-1], rel=1e-5)
        assert lam_min == pytest.approx(vals[0], rel=1e-5)
        assert lam_w == pytest.approx(np.max(np.abs(wvals)), rel=1e-5)

    def test_dense_and_lanczos_routes_agree(self, monkeypatch):
        net = connected_net(120, 0.08, 36)
        try:
            _adjacency_spectrum.cache_clear()
            dense = _eig_extremes(net, 0.4)
            monkeypatch.setattr(criterion, "_DENSE_EIGEN", 0)
            _adjacency_spectrum.cache_clear()
            lanczos = _eig_extremes(net, 0.4)
            assert _adjacency_spectrum(net)[0] is None
        finally:
            _adjacency_spectrum.cache_clear()
        for want, got in zip(dense, lanczos):
            assert got == pytest.approx(want, rel=1e-6)


class TestConcavity:
    def test_second_differences_nonpositive(self):
        rng = np.random.default_rng(36)
        grid = np.arange(0.02, 0.99, 0.01)
        for seed in range(5):
            net = connected_net(25, 0.2, 40 + seed)
            cov = generate_pm1_covariates(25, 2, seed=40 + seed)
            for _ in range(4):
                x = rng.integers(0, 2, size=25) * 2.0 - 1.0
                d2 = concavity_probe(net, cov, x, grid)
                assert np.max(d2) <= 1e-6

    def test_grid_validation(self):
        net = connected_net(10, 0.3, 41)
        cov = generate_pm1_covariates(10, 1, seed=41)
        x = alternating(10)
        with pytest.raises(DataError, match="uniform"):
            concavity_probe(net, cov, x, [0.1, 0.2, 0.4])
        with pytest.raises(DataError, match="step"):
            concavity_probe(net, cov, x, [0.1, 0.2, 0.3])
        with pytest.raises(DataError, match="inside"):
            concavity_probe(net, cov, x, [0.0, 0.01, 0.02])
        with pytest.raises(DataError, match="3 grid"):
            concavity_probe(net, cov, x, [0.1, 0.11])
