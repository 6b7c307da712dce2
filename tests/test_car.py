import numpy as np
import pytest

from netdesign import car
from netdesign.car import (
    CarParams,
    _AffineGram,
    _profile_loglik,
    HeteroCarParams,
    factor_precision,
    fit_gls,
    fit_profile_ml,
    network_spectrum,
    precision_matrix,
    sample_noise,
    sample_outcomes,
)
from netdesign.criterion import k_matrix
from netdesign.errors import DataError, NotPositiveDefiniteError, RankError
from netdesign.graph import CovariateMatrix, Network, generate_bernoulli_network, generate_pm1_covariates


def dense_kernel(net, rho):
    # Independent oracle: assemble D - rho*W entry by entry from the edges.
    R = np.zeros((net.n, net.n))
    for a, b in net.edges:
        R[a, b] -= rho
        R[b, a] -= rho
        R[a, a] += 1.0
        R[b, b] += 1.0
    return R


def dense_hetero_kernel(net, rho_vec):
    R = np.zeros((net.n, net.n))
    s = np.sqrt(rho_vec)
    for a, b in net.edges:
        R[a, b] -= s[a] * s[b]
        R[b, a] -= s[a] * s[b]
        R[a, a] += 1.0
        R[b, b] += 1.0
    return R


def connected_net(n, density, seed):
    net = generate_bernoulli_network(n, density, seed=seed)
    from netdesign.graph import repair_isolated

    return repair_isolated(net, "connect", seed=seed).network


class TestPrecisionMatrix:
    def test_matches_dense_oracle(self):
        net = connected_net(25, 0.15, 3)
        R = precision_matrix(net, 0.6).toarray()
        assert np.allclose(R, dense_kernel(net, 0.6), atol=1e-14)

    def test_hetero_matches_dense_oracle(self):
        net = connected_net(25, 0.15, 4)
        rho = np.random.default_rng(0).uniform(0, 1, size=25)
        R = precision_matrix(net, HeteroCarParams(rho=rho)).toarray()
        assert np.allclose(R, dense_hetero_kernel(net, rho), atol=1e-14)

    def test_rho_range_enforced(self):
        with pytest.raises(DataError, match=r"\[0, 1\)"):
            CarParams(rho=1.0)
        with pytest.raises(DataError):
            CarParams(rho=-0.1)
        with pytest.raises(DataError):
            HeteroCarParams(rho=np.array([0.5, 1.0]))


class TestPrecisionFactor:
    def test_solve_matches_dense(self):
        net = connected_net(40, 0.1, 5)
        fac = factor_precision(net, 0.8)
        R = dense_kernel(net, 0.8)
        rng = np.random.default_rng(1)
        for _ in range(5):
            b = rng.normal(size=40)
            v = fac.solve(b)
            assert np.max(np.abs(R @ v - b)) <= 1e-8 * max(1.0, np.max(np.abs(b)))
            assert np.allclose(v, np.linalg.solve(R, b), atol=1e-10)

    def test_logdet_matches_slogdet(self):
        for rho in (0.0, 0.3, 0.95):
            net = connected_net(30, 0.2, 6)
            fac = factor_precision(net, rho)
            sign, ld = np.linalg.slogdet(dense_kernel(net, rho))
            assert sign == 1.0
            assert abs(fac.logdet() - ld) <= 1e-9 * max(1.0, abs(ld))

    def test_isolated_node_rejected(self):
        net = Network.from_edges(4, [(0, 1)])
        with pytest.raises(NotPositiveDefiniteError, match="isolated"):
            factor_precision(net, 0.5)

    def test_near_unit_rho_still_positive_definite(self):
        net = Network.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        fac = factor_precision(net, 0.999999)
        assert np.isfinite(fac.logdet())

    def test_sample_covariance_matches_inverse_kernel(self):
        # MC oracle: sample covariance vs sigma2 * R^{-1}, within 5 MC
        # standard errors per entry.
        net = connected_net(10, 0.3, 7)
        sigma2 = 2.5
        fac = factor_precision(net, 0.7)
        cov_true = sigma2 * np.linalg.inv(dense_kernel(net, 0.7))
        rng = np.random.default_rng(42)
        n_draws = 10_000
        draws = np.stack([fac.sample(rng, sigma2) for _ in range(n_draws)])
        cov_hat = draws.T @ draws / n_draws
        se = np.sqrt(
            (np.outer(np.diag(cov_true), np.diag(cov_true)) + cov_true**2) / n_draws
        )
        assert np.all(np.abs(cov_hat - cov_true) <= 5 * se)


class TestSampling:
    def test_hetero_equals_homogeneous_at_common_rho(self):
        net = connected_net(20, 0.2, 8)
        cov = generate_pm1_covariates(20, 2, seed=8)
        x = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
        hom = CarParams(rho=0.6, sigma2=1.3, theta=2.0, beta=np.array([0.5, 1.0, -1.0]))
        het = HeteroCarParams(
            rho=np.full(20, 0.6), sigma2=1.3, theta=2.0, beta=np.array([0.5, 1.0, -1.0])
        )
        y1 = sample_outcomes(net, cov, x, hom, seed=99)
        y2 = sample_outcomes(net, cov, x, het, seed=99)
        assert np.allclose(y1, y2, atol=1e-12)

    def test_mean_structure(self):
        # CLT oracle on the mean: ybar approx x*theta + F beta.
        net = connected_net(15, 0.3, 9)
        cov = generate_pm1_covariates(15, 1, seed=9)
        x = np.where(np.arange(15) % 2 == 0, 1.0, -1.0)
        params = CarParams(rho=0.4, sigma2=1.0, theta=3.0, beta=np.array([1.0, 2.0]))
        fac = factor_precision(net, params)
        rng = np.random.default_rng(10)
        draws = np.stack(
            [sample_outcomes(net, cov, x, params, rng, factor=fac) for _ in range(4000)]
        )
        expect = 3.0 * x + cov.values @ np.array([1.0, 2.0])
        sd = np.sqrt(np.diag(np.linalg.inv(dense_kernel(net, 0.4))))
        assert np.all(np.abs(draws.mean(axis=0) - expect) <= 5 * sd / np.sqrt(4000))

    def test_seed_reproducibility(self):
        net = connected_net(12, 0.3, 11)
        cov = generate_pm1_covariates(12, 1, seed=11)
        x = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
        params = CarParams(rho=0.5)
        assert np.array_equal(
            sample_outcomes(net, cov, x, params, seed=5),
            sample_outcomes(net, cov, x, params, seed=5),
        )

    def test_beta_length_checked(self):
        net = connected_net(12, 0.3, 12)
        cov = generate_pm1_covariates(12, 2, seed=12)
        x = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
        with pytest.raises(DataError, match="beta"):
            sample_outcomes(net, cov, x, CarParams(rho=0.2, beta=np.ones(2)), seed=0)

    def test_sample_noise_reuses_factor(self):
        net = connected_net(12, 0.3, 13)
        fac = factor_precision(net, 0.5)
        a = sample_noise(fac, 1.0, seed=3)
        b = sample_noise(fac, 1.0, seed=3)
        assert np.array_equal(a, b)


class TestFitGls:
    @pytest.mark.parametrize("graph", ["random", "torus"])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.99])
    def test_matches_dense_gls_oracle(self, rho, graph):
        # The intercept gives the pencil (X'WX, X'DX) an eigenvalue mu = 1,
        # so rho 0.99 leaves a pivot 1 - rho mu of 0.01.  On the bipartite
        # torus, x is its two-colouring and adds mu = -1, the other end.
        if graph == "random":
            net = connected_net(30, 0.15, 14)
            x = np.where(np.arange(30) % 2 == 0, 1.0, -1.0)
        else:
            net = torus(6)
            x = np.array([(-1.0) ** (i + j) for i in range(6) for j in range(6)])
        cov = generate_pm1_covariates(net.n, 3, seed=14)
        y = sample_outcomes(net, cov, x, CarParams(rho=0.5, theta=1.5), seed=20)
        res = fit_gls(net, cov, x, y, rho)
        R = dense_kernel(net, rho)
        X = np.column_stack([x, cov.values])
        gamma = np.linalg.inv(X.T @ R @ X) @ (X.T @ R @ y)
        assert abs(res.theta_hat - gamma[0]) <= 1e-10 * max(1.0, abs(gamma[0]))
        assert np.allclose(res.beta_hat, gamma[1:], rtol=1e-10, atol=1e-12)
        resid = y - X @ gamma
        sigma2 = resid @ R @ resid / net.n
        assert abs(res.sigma2_hat - sigma2) <= 1e-10 * sigma2
        var00 = sigma2 * np.linalg.inv(X.T @ R @ X)[0, 0]
        assert abs(res.var_theta - var00) <= 1e-10 * var00

    def test_unbiased_for_theta(self):
        # Simulation oracle: GLS at the true rho is unbiased for theta.
        net = connected_net(40, 0.12, 15)
        cov = generate_pm1_covariates(40, 2, seed=15)
        x = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
        params = CarParams(rho=0.6, theta=2.0, beta=np.array([0.0, 1.0, -0.5]))
        fac = factor_precision(net, params)
        rng = np.random.default_rng(16)
        ests = [
            fit_gls(net, cov, x, sample_outcomes(net, cov, x, params, rng, factor=fac), 0.6).theta_hat
            for _ in range(300)
        ]
        se = np.std(ests, ddof=1) / np.sqrt(300)
        assert abs(np.mean(ests) - 2.0) <= 5 * se

    def test_collinear_design_rejected(self):
        net = connected_net(20, 0.2, 17)
        z = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
        cov = CovariateMatrix.from_raw(z)
        y = np.random.default_rng(0).normal(size=20)
        with pytest.raises(RankError):
            fit_gls(net, cov, z, y, 0.5)


class TestProfileML:
    def loglik_oracle(self, net, cov, x, y, rho):
        # Dense profile log likelihood, assembled independently.
        R = dense_kernel(net, rho)
        X = np.column_stack([x, cov.values])
        gamma = np.linalg.solve(X.T @ R @ X, X.T @ R @ y)
        resid = y - X @ gamma
        sigma2 = resid @ R @ resid / net.n
        _, ld = np.linalg.slogdet(R)
        return 0.5 * ld - 0.5 * net.n * np.log(sigma2)

    def test_spectrum_logdet_identity(self):
        net = connected_net(35, 0.12, 18)
        spec = network_spectrum(net)
        for rho in (0.0, 0.25, 0.5, 0.9, 0.99):
            _, ld = np.linalg.slogdet(dense_kernel(net, rho))
            assert abs(spec.logdet(rho) - ld) <= 1e-9 * max(1.0, abs(ld))

    def test_grid_dominance(self):
        net = connected_net(50, 0.1, 19)
        cov = generate_pm1_covariates(50, 2, seed=19)
        x = np.where(np.arange(50) % 2 == 0, 1.0, -1.0)
        y = sample_outcomes(net, cov, x, CarParams(rho=0.7), seed=21)
        res = fit_profile_ml(net, cov, x, y)
        at_hat = self.loglik_oracle(net, cov, x, y, res.rho_hat)
        grid = np.arange(0.0, 0.991, 0.01)
        # The batched grid scan scores every point as the dense oracle does.
        gram = _AffineGram(net, np.column_stack([x, cov.values]), y)
        scan = _profile_loglik(gram, network_spectrum(net), grid)
        for rho, score in zip(grid, scan):
            oracle = self.loglik_oracle(net, cov, x, y, rho)
            assert abs(score - oracle) <= 1e-10 * max(1.0, abs(oracle))
            assert at_hat >= oracle - 1e-6

    def test_recovers_rho_and_theta(self):
        # Consistency band at moderate n, replicated draws.
        net = connected_net(300, 0.04, 22)
        cov = generate_pm1_covariates(300, 2, seed=22)
        x = np.where(np.arange(300) % 2 == 0, 1.0, -1.0)
        params = CarParams(rho=0.7, theta=1.0, beta=np.array([0.5, 1.0, -1.0]))
        fac = factor_precision(net, params)
        spec = network_spectrum(net)
        rng = np.random.default_rng(23)
        rhos, thetas = [], []
        for _ in range(20):
            y = sample_outcomes(net, cov, x, params, rng, factor=fac)
            res = fit_profile_ml(net, cov, x, y, spectrum=spec)
            rhos.append(res.rho_hat)
            thetas.append(res.theta_hat)
        assert abs(np.mean(rhos) - 0.7) < 0.15
        assert abs(np.mean(thetas) - 1.0) < 0.1

    def test_spectrum_argument_is_pure_caching(self):
        net = connected_net(25, 0.2, 24)
        cov = generate_pm1_covariates(25, 1, seed=24)
        x = np.where(np.arange(25) % 2 == 0, 1.0, -1.0)
        y = sample_outcomes(net, cov, x, CarParams(rho=0.3), seed=25)
        a = fit_profile_ml(net, cov, x, y)
        b = fit_profile_ml(net, cov, x, y, spectrum=network_spectrum(net))
        assert a.rho_hat == b.rho_hat
        assert a.theta_hat == b.theta_hat

    def test_refinement_tolerance(self):
        net = connected_net(40, 0.15, 26)
        cov = generate_pm1_covariates(40, 1, seed=26)
        x = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
        y = sample_outcomes(net, cov, x, CarParams(rho=0.55), seed=27)
        res = fit_profile_ml(net, cov, x, y, tol=1e-5)
        # The maximizer is pinned down to the refinement width against a
        # fine independent scan around it.
        fine = np.arange(max(0.0, res.rho_hat - 0.01), min(0.99, res.rho_hat + 0.01), 1e-4)
        scores = [self.loglik_oracle(net, cov, x, y, r) for r in fine]
        assert abs(fine[int(np.argmax(scores))] - res.rho_hat) <= 2e-4

    @pytest.mark.parametrize("rho_true, seed, at", [(0.0, 40, 0), (0.995, 49, -1)])
    def test_boundary_maximizer(self, rho_true, seed, at):
        # Outcomes drawn at rho 0, or just above rho_max, put the grid
        # maximizer on an end of [0, rho_max], where the refinement passes
        # are clipped.  A 14 x 14 torus keeps rho well identified.
        k = 14
        net = Network.from_edges(k * k, [
            (i * k + j, nb) for i in range(k) for j in range(k)
            for nb in (i * k + (j + 1) % k, ((i + 1) % k) * k + j)
        ])
        cov = generate_pm1_covariates(net.n, 2, seed=seed)
        x = np.where(np.arange(net.n) % 2 == 0, 1.0, -1.0)
        y = sample_outcomes(net, cov, x, CarParams(rho=rho_true), seed=seed + 1)
        res = fit_profile_ml(net, cov, x, y, rho_max=0.99)
        grid = np.linspace(0.0, 0.99, 100)
        oracle = np.array([self.loglik_oracle(net, cov, x, y, r) for r in grid])
        assert int(np.argmax(oracle)) == np.arange(grid.size)[at]
        assert 0.0 <= res.rho_hat <= 0.99
        at_hat = self.loglik_oracle(net, cov, x, y, res.rho_hat)
        assert np.all(at_hat >= oracle - 1e-10 * np.maximum(1.0, np.abs(oracle)))

    @pytest.mark.parametrize("tol", [0.01, 0.05])
    def test_tolerance_at_grid_step_returns_a_grid_point(self, tol):
        net = connected_net(40, 0.15, 26)
        cov = generate_pm1_covariates(40, 1, seed=26)
        x = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
        y = sample_outcomes(net, cov, x, CarParams(rho=0.55), seed=27)
        res = fit_profile_ml(net, cov, x, y, grid_step=0.01, tol=tol)
        grid = np.arange(0.0, 0.99 + 1e-12, 0.01)
        grid[-1] = min(grid[-1], 0.99)
        assert res.rho_hat in grid.tolist()

    @pytest.mark.parametrize("grid_step, tol", [(0.0, 1e-5), (-0.01, 1e-5), (0.01, 0.0), (0.01, -1.0)])
    def test_step_and_tolerance_must_be_positive(self, grid_step, tol):
        # A negative tol used to loop forever: the step underflows to zero
        # and never reaches it.
        net = connected_net(20, 0.2, 28)
        cov = generate_pm1_covariates(20, 1, seed=28)
        x = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
        with pytest.raises(DataError, match="grid_step and tol must be positive"):
            fit_profile_ml(net, cov, x, np.arange(20.0), grid_step=grid_step, tol=tol)

    def test_refinement_is_batched(self, monkeypatch):
        # One grid call plus three passes of 21 points each at the defaults.
        sizes = []
        batched = car._profile_loglik

        def spy(gram, spectrum, rhos):
            sizes.append(np.size(rhos))
            return batched(gram, spectrum, rhos)

        monkeypatch.setattr(car, "_profile_loglik", spy)
        net = connected_net(40, 0.15, 26)
        cov = generate_pm1_covariates(40, 1, seed=26)
        x = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
        y = sample_outcomes(net, cov, x, CarParams(rho=0.55), seed=27)
        fit_profile_ml(net, cov, x, y)
        assert sizes == [100, 21, 21, 21]

    @pytest.mark.parametrize("other", ["size", "degrees"])
    def test_spectrum_of_another_network_rejected(self, other):
        # A 40-node spectrum, or one of 60 nodes with another degree
        # sequence, would price log|R| for the wrong network.
        net = connected_net(60, 0.08, 60)
        cov = generate_pm1_covariates(60, 2, seed=60)
        x = np.where(np.arange(60) % 2 == 0, 1.0, -1.0)
        y = sample_outcomes(net, cov, x, CarParams(rho=0.4), seed=61)
        wrong = network_spectrum(connected_net(40, 0.1, 62) if other == "size"
                                 else connected_net(60, 0.08, 63))
        own = network_spectrum(net)
        assert (wrong.eigenvalues.size == own.eigenvalues.size) == (other == "degrees")
        assert wrong.logdet_degrees != own.logdet_degrees
        with pytest.raises(DataError, match="spectrum"):
            fit_profile_ml(net, cov, x, y, spectrum=wrong)
        with pytest.raises(DataError, match="spectrum"):
            fit_profile_ml(net, cov, x, y[:, None], spectrum=wrong)

    def test_rank_deficient_rejected(self):
        net = connected_net(20, 0.2, 28)
        z = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
        cov = CovariateMatrix.from_raw(z)
        with pytest.raises(RankError):
            fit_profile_ml(net, cov, z, np.ones(20), spectrum=None)
        with pytest.raises(RankError):
            fit_profile_ml(net, cov, z, np.ones((20, 3)), spectrum=None)


def torus(k):
    # k x k torus: every node has degree 4, and rho is well identified.
    return Network.from_edges(k * k, [
        (i * k + j, nb) for i in range(k) for j in range(k)
        for nb in (i * k + (j + 1) % k, ((i + 1) % k) * k + j)
    ])


class TestProfileMLColumns:
    """An (n, s) outcome matrix fits each column as a vector fit would."""

    def outcomes(self, case):
        if case.startswith("boundary"):
            # The outcome draws of TestProfileML.test_boundary_maximizer, whose
            # maximizers sit on the ends of [0, rho_max], with interior draws.
            rho_true, seed = (0.0, 40) if case == "boundary-0" else (0.995, 49)
            net = torus(14)
            cov = generate_pm1_covariates(net.n, 2, seed=seed)
            rhos, seeds = (rho_true, 0.3, 0.8), (seed + 1, seed + 2, seed + 3)
            beta = None
        else:
            seed = int(case.split("-")[1])
            net = connected_net(60, 0.08, seed)
            cov = generate_pm1_covariates(60, 3, seed=seed)
            rhos, seeds = (0.0, 0.2, 0.5, 0.7, 0.9, 0.97), range(seed, seed + 6)
            beta = np.arange(cov.p + 1.0)
        x = np.where(np.arange(net.n) % 2 == 0, 1.0, -1.0)
        Y = np.column_stack([
            sample_outcomes(net, cov, x, CarParams(rho=r, beta=beta), seed=t)
            for r, t in zip(rhos, seeds)
        ])
        return net, cov, x, Y

    @pytest.mark.parametrize("case", ["random-60", "random-61", "boundary-0", "boundary-max"])
    def test_columns_match_vector_fits(self, case):
        net, cov, x, Y = self.outcomes(case)
        spec = network_spectrum(net)
        fits = fit_profile_ml(net, cov, x, Y, rho_max=0.99, spectrum=spec)
        assert len(fits) == Y.shape[1]
        for j, fit in enumerate(fits):
            one = fit_profile_ml(net, cov, x, Y[:, j], rho_max=0.99, spectrum=spec)
            assert fit.rho_hat == one.rho_hat
            assert fit.method == one.method == "profile_ml"
            for name in ("theta_hat", "sigma2_hat", "var_theta", "loglik"):
                a, b = getattr(fit, name), getattr(one, name)
                assert abs(a - b) <= 1e-12 * abs(b), name
            np.testing.assert_allclose(fit.beta_hat, one.beta_hat, rtol=1e-12, atol=0.0)
        if case.startswith("boundary"):
            assert fits[0].rho_hat == (0.0 if case == "boundary-0" else 0.99)

    def test_refinement_is_batched_over_columns(self, monkeypatch):
        # One shared 100-point grid call, then three passes of 21 points for
        # every column at once.
        shapes = []
        batched = car._profile_loglik

        def spy(gram, spectrum, rhos):
            shapes.append(np.shape(rhos))
            return batched(gram, spectrum, rhos)

        monkeypatch.setattr(car, "_profile_loglik", spy)
        net, cov, x, Y = self.outcomes("random-60")
        fit_profile_ml(net, cov, x, Y)
        assert shapes == [(100,), (6, 21), (6, 21), (6, 21)]

    def test_singular_column_is_none(self, monkeypatch):
        # X'RX cannot lose positive definiteness on [0, rho_max] in exact
        # arithmetic, so the final residual forms, one per column at rho_hat,
        # are set to nan for chosen columns, as schur marks such an X'RX.
        real = car._AffineGram.schur

        def schur(self, rho):
            out = real(self, rho)
            if np.shape(rho) == (6, 1):  # one residual form per column at rho_hat
                out[[1, 4]] = np.nan
            return out

        net, cov, x, Y = self.outcomes("random-61")
        good = fit_profile_ml(net, cov, x, Y)
        monkeypatch.setattr(car._AffineGram, "schur", schur)
        fits = fit_profile_ml(net, cov, x, Y)
        assert [f is None for f in fits] == [False, True, False, False, True, False]
        for j in (0, 2, 3, 5):
            assert fits[j].theta_hat == good[j].theta_hat
            assert fits[j].var_theta == good[j].var_theta
        # A vector fit whose X'RX is singular at rho_hat raises, as before.
        monkeypatch.setattr(car._AffineGram, "schur", lambda self, rho: real(self, rho) * (
            np.nan if np.shape(rho) == (1, 1) else 1.0))
        with pytest.raises(RankError, match="numerically singular"):
            fit_profile_ml(net, cov, x, Y[:, 0])


class TestDiagonalizedScore:
    """The residual form of the profile likelihood, scored elementwise in the
    basis that diagonalizes X'DX and X'WX, against a dense solve of
    X'R(rho)X at each rho."""

    def oracle(self, net, X, y, rho):
        R = dense_kernel(net, rho)
        b = X.T @ R @ y
        return y @ R @ y - b @ np.linalg.solve(X.T @ R @ X, b)

    def assert_close(self, got, want):
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    @pytest.mark.parametrize("case", ["random-60", "random-61", "boundary-0", "boundary-max"])
    def test_matches_dense_solve(self, case):
        net, cov, x, Y = TestProfileMLColumns().outcomes(case)
        X = np.column_stack([x, cov.values])
        s = Y.shape[1]
        grid = np.linspace(0.0, 0.99, 12)
        own = np.random.default_rng(s).uniform(0.0, 0.99, size=(s, 4))
        own[:, 0], own[:, -1] = 0.0, 0.99

        def want(rho, j):
            return self.oracle(net, X, Y[:, j], rho)

        gram = _AffineGram(net, X, Y)
        shared = gram.schur(grid)
        assert shared.shape == (s, grid.size)
        for j in range(s):
            self.assert_close(shared[j], [want(r, j) for r in grid])
        per_column = gram.schur(own)
        assert per_column.shape == own.shape
        for j in range(s):
            self.assert_close(per_column[j], [want(r, j) for r in own[j]])
        for rho in (0.0, 0.5, 0.99):
            one = gram.schur(rho)
            assert one.shape == (s,)
            self.assert_close(one, [want(rho, j) for j in range(s)])
        vector = _AffineGram(net, X, Y[:, 0])
        assert vector.schur(grid).shape == grid.shape
        self.assert_close(vector.schur(grid), [want(r, 0) for r in grid])
        assert np.ndim(vector.schur(0.99)) == 0
        self.assert_close(vector.schur(0.99), want(0.99, 0))

    def test_matrix_not_positive_definite_scores_minus_inf(self):
        net, cov, x, Y = TestProfileMLColumns().outcomes("random-60")
        X = np.column_stack([x, cov.values])
        spectrum = network_spectrum(net)
        grid = np.arange(0.0, 0.991, 0.01)
        clean = _profile_loglik(_AffineGram(net, X, Y), spectrum, grid)
        # The largest generalized eigenvalue is forced to 1.3, so that
        # X'RX is not positive definite for rho above 1/1.3.  The residual
        # form stays positive there (its last term changes sign), so only
        # the pivot check can score those points -inf.
        gram = _AffineGram(net, X, Y)
        mu, B, cD, cW = gram._pencil
        mu = mu.copy()
        mu[-1] = 1.3
        gram.__dict__["_pencil"] = (mu, B, cD, cW)
        scores = _profile_loglik(gram, spectrum, grid)
        high = grid > 1.0 / 1.3
        assert np.all(scores[:, high] == -np.inf)
        rho = grid[high]
        form = gram.uDu[:, None] - rho * gram.uWu[:, None] - sum(
            (d[:, None] - rho * w[:, None]) ** 2 / (1.0 - rho * m) for m, d, w in zip(mu, cD, cW))
        assert np.all(form > 0.0)
        np.testing.assert_array_equal(scores[:, 0], clean[:, 0])  # mu plays no part at rho 0
        # Without a Cholesky factor of X'DX, no rho scores.
        gram = _AffineGram(net, X, Y)
        gram.ZDZ = -gram.ZDZ
        assert np.all(_profile_loglik(gram, spectrum, grid) == -np.inf)


class TestDenseSizeGuard:
    # The limit is lowered for the test, so a guard that fails to fire costs
    # a small allocation, not 1.8 GB; a path graph of limit+1 nodes trips it.
    @pytest.mark.parametrize("what", ["factor_precision", "network_spectrum", "k_matrix"])
    def test_refuses_above_limit(self, monkeypatch, what):
        monkeypatch.setattr(car, "_DENSE_LIMIT", 64)
        n = 65
        net = Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        cov = CovariateMatrix.from_raw(np.empty((n, 0)))
        calls = {
            "factor_precision": lambda: factor_precision(net, 0.5),
            "network_spectrum": lambda: network_spectrum(net),
            "k_matrix": lambda: k_matrix(net, cov, 0.5),
        }
        with pytest.raises(DataError, match=rf"{what}: n={n} exceeds the limit of 64"):
            calls[what]()
        monkeypatch.setattr(car, "_DENSE_LIMIT", n)
        calls[what]()  # at the limit the dense path runs
