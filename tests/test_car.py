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
from netdesign.criterion import (
    _precision_curve,
    expected_precision_matrix,
    k_matrix,
    quadform_correlation,
)
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
        # The Gaussian log-likelihood at (gamma, sigma2), precision R / sigma2.
        loglik = (-0.5 * net.n * np.log(2 * np.pi) + 0.5 * np.linalg.slogdet(R)[1]
                  - 0.5 * net.n * np.log(sigma2) - 0.5 * net.n)
        assert abs(res.loglik - loglik) <= 1e-10 * abs(loglik)

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

    def test_spectrum_logdet_bits_do_not_depend_on_the_call(self):
        # Each rho's sum is its own row reduction, so pricing an array, its
        # distinct values or each value alone gives the same bits.  At n=300
        # a block holds 109 rho, so the 630 values span several blocks.
        net = connected_net(300, 0.03, 18)
        spec = network_spectrum(net)
        rho = np.random.default_rng(5).choice(np.linspace(0.0, 0.99, 400), size=(7, 90))
        whole = spec.logdet(rho)
        distinct, inverse = np.unique(rho, return_inverse=True)
        assert distinct.size < rho.size
        np.testing.assert_array_equal(spec.logdet(distinct)[inverse].reshape(rho.shape), whole)
        np.testing.assert_array_equal(spec.logdet(distinct[::-1])[::-1], spec.logdet(distinct))
        np.testing.assert_array_equal(whole.ravel(), [spec.logdet(r) for r in rho.ravel()])

    @pytest.mark.parametrize("order", [1, -1])
    def test_spectrum_logdet_names_the_first_bad_rho(self, order):
        # The error names the first input rho at which some 1 - rho lam_i
        # is not positive, not the whole array.
        spec = network_spectrum(connected_net(35, 0.12, 18))
        rho = np.linspace(0.0, 1.2, 40)[::order]
        first = rho[np.flatnonzero(rho * spec.eigenvalues.max() >= 1.0)[0]]
        assert (first == 1.2) == (order == -1)
        with pytest.raises(NotPositiveDefiniteError) as info:
            spec.logdet(rho)
        assert str(info.value) == (f"kernel loses positive definiteness at rho={first!r}"
                                   f" (largest eigenvalue {spec.eigenvalues.max()!r})")

    def test_spectrum_logdet_names_the_smallest_eigenvalue_below_zero(self):
        # On the 4-cycle (eigenvalues -1..1) the failing term at rho = -1.5
        # is 1 - rho lam_min, so the message names lam_min.
        spec = network_spectrum(Network.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        with pytest.raises(NotPositiveDefiniteError) as info:
            spec.logdet(-1.5)
        assert str(info.value) == ("kernel loses positive definiteness at rho=np.float64(-1.5)"
                                   f" (smallest eigenvalue {spec.eigenvalues.min()!r})")

    def test_spectrum_logdet_checks_what_every_term_checks(self):
        # The check reads one term per rho; a scan of every term 1 - rho lam_i,
        # computed the same way, must reject the same rho, near both ends of
        # the spectrum, for rho of either sign.
        spec = network_spectrum(connected_net(35, 0.12, 18))
        lam = spec.eigenvalues
        rho = np.array([1.0 / lam.max(), 1.0 / lam.min(), 0.0, -0.0, 1.0, -1.0])
        for _ in range(2):  # each value, and 1 and 2 ulps either side
            rho = np.unique(np.concatenate([rho, np.nextafter(rho, np.inf),
                                            np.nextafter(rho, -np.inf)]))
        rho = np.random.default_rng(3).permutation(rho)
        lost = [bool(np.any(np.multiply.outer(r, -lam) + 1.0 <= 0.0)) for r in rho]
        assert 0 < sum(lost) < rho.size
        for r, bad in zip(rho, lost):
            if bad:
                with pytest.raises(NotPositiveDefiniteError):
                    spec.logdet(r)
            else:
                assert np.isfinite(spec.logdet(r))
        with pytest.raises(NotPositiveDefiniteError) as info:
            spec.logdet(rho)
        assert f"at rho={rho[lost.index(True)]!r} " in str(info.value)

    def test_grid_dominance(self):
        net = connected_net(50, 0.1, 19)
        cov = generate_pm1_covariates(50, 2, seed=19)
        x = np.where(np.arange(50) % 2 == 0, 1.0, -1.0)
        y = sample_outcomes(net, cov, x, CarParams(rho=0.7), seed=21)
        res = fit_profile_ml(net, cov, x, y)
        at_hat = self.loglik_oracle(net, cov, x, y, res.rho_hat)
        grid = np.arange(0.0, 0.991, 0.01)
        # The batched grid scan scores every point as the dense oracle does.
        gram = _AffineGram(net, np.column_stack([x, cov.values]), y[:, None])
        scan = _profile_loglik(gram.schur, network_spectrum(net), grid)[0]
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
        rng = np.random.default_rng(23)
        rhos, thetas = [], []
        for _ in range(20):
            y = sample_outcomes(net, cov, x, params, rng, factor=fac)
            res = fit_profile_ml(net, cov, x, y)
            rhos.append(res.rho_hat)
            thetas.append(res.theta_hat)
        assert abs(np.mean(rhos) - 0.7) < 0.15
        assert abs(np.mean(thetas) - 1.0) < 0.1

    def test_one_eigendecomposition_per_network(self, monkeypatch):
        # Fits of several designs and outcomes on one network decompose it
        # once; a fit on another network decomposes that one.
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        car.network_spectrum.cache_clear()
        net, other = connected_net(25, 0.2, 24), connected_net(30, 0.2, 25)
        cov = generate_pm1_covariates(25, 1, seed=24)
        for seed in range(3):
            x = np.roll(np.where(np.arange(25) % 2 == 0, 1.0, -1.0), seed)
            y = sample_outcomes(net, cov, x, CarParams(rho=0.3), seed=25 + seed)
            fit = fit_profile_ml(net, cov, x, y)
            assert fit.rho_hat == fit_profile_ml(net, cov, x, y[:, None])[0].rho_hat
            assert fit.rho_hat == fit_profile_ml(net, cov, np.stack([x, -x]), [y, y])[0][0].rho_hat
        assert calls == [25]
        x = np.where(np.arange(30) % 2 == 0, 1.0, -1.0)
        fit_profile_ml(other, generate_pm1_covariates(30, 1, seed=26), x, np.arange(30.0))
        assert calls == [25, 30]

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
        for rho_max in (0.0, 1.0):  # the ends of (0, 1) are refused too
            with pytest.raises(DataError, match=r"rho_max must lie in \(0, 1\)"):
                fit_profile_ml(net, cov, x, np.arange(20.0), rho_max=rho_max)

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

    def test_rank_deficient_rejected(self):
        net = connected_net(20, 0.2, 28)
        z = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
        cov = CovariateMatrix.from_raw(z)
        with pytest.raises(RankError):
            fit_profile_ml(net, cov, z, np.ones(20))
        with pytest.raises(RankError):
            fit_profile_ml(net, cov, z, np.ones((20, 3)))


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
        fits = fit_profile_ml(net, cov, x, Y, rho_max=0.99)
        assert len(fits) == Y.shape[1]
        for j, fit in enumerate(fits):
            one = fit_profile_ml(net, cov, x, Y[:, j], rho_max=0.99)
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
        # every column of every design at once: a single design is a stack
        # of one.
        shapes = []
        batched = car._profile_loglik

        def spy(schur, spectrum, rhos):
            shapes.append(np.shape(rhos))
            return batched(schur, spectrum, rhos)

        monkeypatch.setattr(car, "_profile_loglik", spy)
        net, cov, x, Y = self.outcomes("random-60")
        fit_profile_ml(net, cov, x, Y)
        assert shapes == [(100,), (1, 6, 21), (1, 6, 21), (1, 6, 21)]
        shapes.clear()
        fit_profile_ml(net, cov, np.stack([x, -x, np.roll(x, 1)]), [Y, Y[:, ::-1], Y])
        assert shapes == [(100,), (3, 6, 21), (3, 6, 21), (3, 6, 21)]

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


class TestProfileMLStack:
    """A (d, n) stack of designs fits each design, bit for bit, as a call
    for that design alone does, in one search."""

    KW = {"rho_max": 0.95, "grid_step": 0.02, "tol": 1e-4}

    def stack(self, case, d, s=4):
        # d random designs with s outcome columns each; in a stack of more
        # than one, design d // 2 is a covariate column, so its [x F] is
        # rank deficient.
        net = torus(8) if case == "torus" else connected_net(*case)
        cov = generate_pm1_covariates(net.n, 2, seed=net.n)
        rng = np.random.default_rng(net.n + d)
        xs = np.where(rng.random((d, net.n)) < 0.5, 1.0, -1.0)
        if d > 1:
            xs[d // 2] = cov.values[:, 1]
        Ys = [np.column_stack([
            sample_outcomes(net, cov, x, CarParams(rho=r, beta=np.ones(3)), seed=rng)
            for r in rng.uniform(0.0, 0.97, s)]) for x in xs]
        return net, cov, xs, Ys

    def assert_same(self, got, want):
        assert [f is None for f in got] == [f is None for f in want]
        for a, b in zip(got, want):
            if b is not None:
                for name in ("rho_hat", "theta_hat", "sigma2_hat", "var_theta", "loglik", "method"):
                    assert getattr(a, name) == getattr(b, name), name
                assert np.array_equal(a.beta_hat, b.beta_hat)

    @pytest.mark.parametrize("d", [1, 3, 12])
    @pytest.mark.parametrize("case", [(40, 0.15, 70), (60, 0.08, 71), (35, 0.12, 72), "torus"],
                             ids=["n40", "n60", "n35", "torus"])
    def test_stack_matches_one_design_fits(self, monkeypatch, case, d):
        net, cov, xs, Ys = self.stack(case, d)
        # Column 1 of design 0 is made singular at its rho_hat, in the stack
        # and alone: schur marks such an X'RX nan.
        real, target = car._AffineGram.schur, xs[0] * net.degrees

        def schur(self, rho):
            out = real(self, rho)
            if np.shape(rho) == (4, 1) and np.array_equal(self.DZ[:, 0], target):
                out[1] = np.nan
            return out

        # Every pass's points and scores are kept, to score each design's
        # points again on its own Grams: the same bits, pass by pass.
        passes, loglik = [], car._profile_loglik

        def kept(schur, spectrum, rhos):
            passes.append((rhos, loglik(schur, spectrum, rhos)))
            return passes[-1][1]

        monkeypatch.setattr(car, "_profile_loglik", kept)
        monkeypatch.setattr(car._AffineGram, "schur", schur)
        fits = fit_profile_ml(net, cov, xs, iter(Ys), **self.KW)
        monkeypatch.setattr(car, "_profile_loglik", loglik)
        assert len(fits) == d and len(passes) == 4
        assert [f is None for f in fits[0]] == [False, True, False, False]
        for j, (x, Y) in enumerate(zip(xs, Ys)):
            if d > 1 and j == d // 2:
                assert fits[j] == [None] * 4
                with pytest.raises(RankError):
                    fit_profile_ml(net, cov, x, Y, **self.KW)
                continue
            self.assert_same(fits[j], fit_profile_ml(net, cov, x, Y, **self.KW))
            live, gram = j - (d > 1 and j > d // 2), _AffineGram(net, np.column_stack([x, cov.values]), Y)
            for rhos, scores in passes:
                alone = loglik(gram.schur, network_spectrum(net), rhos if rhos.ndim == 1 else rhos[live])
                np.testing.assert_array_equal(scores[live], alone)
        # A vector in a stack of one is the vector fit.
        vector = fit_profile_ml(net, cov, xs[0], Ys[0][:, 0], **self.KW)
        self.assert_same(fit_profile_ml(net, cov, xs[:1], [Ys[0][:, 0]], **self.KW)[0], [vector])

    def test_each_logdet_call_prices_distinct_rho(self, monkeypatch):
        # The grid, three refinement passes and the estimates each price
        # log|R| once per distinct rho, though a repeated design repeats
        # every refinement point.
        calls = []
        real = car.NetworkSpectrum.logdet

        def logdet(self, rho):
            calls.append(np.asarray(rho))
            return real(self, rho)

        monkeypatch.setattr(car.NetworkSpectrum, "logdet", logdet)
        net, cov, xs, Ys = self.stack((40, 0.15, 70), 5)
        xs[3], Ys[3] = xs[0], Ys[0]
        fits = fit_profile_ml(net, cov, xs, Ys)
        assert [f.rho_hat for f in fits[3]] == [f.rho_hat for f in fits[0]]
        assert len(calls) == 5 and calls[0].size == 100
        for rho in calls:
            assert rho.ndim == 1 and np.unique(rho).size == rho.size
        assert all(rho.size <= 3 * 4 * 21 for rho in calls[1:4])  # 4 of 5 designs fit, one repeated

    def test_mismatched_stacks_are_refused(self):
        net, cov, xs, Ys = self.stack((40, 0.15, 70), 3)
        with pytest.raises(DataError, match="as many outcome columns"):
            fit_profile_ml(net, cov, xs, [Ys[0], Ys[1][:, :2], Ys[2]])
        with pytest.raises(ValueError):
            fit_profile_ml(net, cov, xs, Ys[:2])


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

    @pytest.mark.parametrize("case", ["random-60", "boundary-0"])
    def test_one_design_is_a_column_of_a_block(self, case):
        # The precision curve passes its design as a block of one column; it
        # keeps its bits as column 0 of a wider block.
        net, cov, _, _ = TestProfileMLColumns().outcomes(case)
        grid = np.linspace(0.0, 0.99, 12)
        rng = np.random.default_rng(net.n)
        for _ in range(5):
            x = rng.choice([-1.0, 1.0], net.n)
            block = _AffineGram(net, cov.values, np.column_stack([x, -x])).schur(grid)
            assert np.array_equal(_precision_curve(net, cov, x, grid)[1], block[0])

    def test_matrix_not_positive_definite_scores_minus_inf(self):
        net, cov, x, Y = TestProfileMLColumns().outcomes("random-60")
        X = np.column_stack([x, cov.values])
        spectrum = network_spectrum(net)
        grid = np.arange(0.0, 0.991, 0.01)
        clean = _profile_loglik(_AffineGram(net, X, Y).schur, spectrum, grid)
        # The largest generalized eigenvalue is forced to 1.3, so that
        # X'RX is not positive definite for rho above 1/1.3.  The residual
        # form stays positive there (its last term changes sign), so only
        # the pivot check can score those points -inf.
        gram = _AffineGram(net, X, Y)
        mu, B, cD, cW = gram._pencil
        mu = mu.copy()
        mu[-1] = 1.3
        gram.__dict__["_pencil"] = (mu, B, cD, cW)
        scores = _profile_loglik(gram.schur, spectrum, grid)
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
        assert np.all(_profile_loglik(gram.schur, spectrum, grid) == -np.inf)


class TestDenseSizeGuard:
    # The limit is lowered for the test, so a guard that fails to fire costs
    # a small allocation, not 1.8 GB; a path graph of limit+1 nodes trips it.
    @pytest.mark.parametrize("what", ["factor_precision", "network_spectrum", "k_matrix",
                                      "expected_precision_matrix", "quadform_correlation"])
    def test_refuses_above_limit(self, monkeypatch, what):
        monkeypatch.setattr(car, "_DENSE_LIMIT", 64)
        n = 65
        net = Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        cov = CovariateMatrix.from_raw(np.empty((n, 0)))
        calls = {
            "factor_precision": lambda: factor_precision(net, 0.5),
            "network_spectrum": lambda: network_spectrum(net),
            "k_matrix": lambda: k_matrix(net, cov, 0.5),
            "expected_precision_matrix": lambda: expected_precision_matrix(n),
            "quadform_correlation": lambda: quadform_correlation(net.adjacency, net.adjacency),
        }
        with pytest.raises(DataError, match=rf"{what}: n={n} exceeds the limit of 64"):
            calls[what]()
        monkeypatch.setattr(car, "_DENSE_LIMIT", n)
        calls[what]()  # at the limit the dense path runs
