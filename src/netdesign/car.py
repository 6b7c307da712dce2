"""Conditional autoregressive (CAR) outcome model on a network.

The response splits into a treatment effect, covariate effects and a
correlated disturbance:

    y_i = x_i * theta + f_i' beta + delta_i,      f_i = (1, z_i')'

with delta ~ MVN(0, sigma2 * R^{ -1}) and precision kernel

    R(rho) = D - rho * W

for degree diagonal D and adjacency W.  R is positive definite whenever
every degree is at least one and 0 <= rho < 1.  The heterogeneous variant
uses R = D - P W P with P = diag(sqrt(rho_i)).

Note the rho = 0 corner: the model then has independent disturbances with
variances sigma2 / m_i, not a common sigma2.  The code follows R(0) = D
literally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Optional, Union

import numpy as np
from scipy import linalg, sparse

from .designs import as_sign_vector
from .errors import DataError, NotPositiveDefiniteError, RankError
from .graph import CovariateMatrix, Network

__all__ = [
    "CarParams",
    "HeteroCarParams",
    "PrecisionFactor",
    "FitResult",
    "NetworkSpectrum",
    "precision_matrix",
    "factor_precision",
    "sample_noise",
    "sample_outcomes",
    "fit_gls",
    "network_spectrum",
    "fit_profile_ml",
]

RHO_MAX_DEFAULT = 0.99
_DENSE_LIMIT = 15_000  # one n-by-n float64 matrix at this n takes 1.8 GB


@dataclass(frozen=True)
class CarParams:
    """Homogeneous CAR parameters.

    rho is the common neighbor-correlation coefficient in [0, 1); sigma2
    the disturbance scale; theta the treatment effect; beta the covariate
    coefficients including the intercept (None means all zero).
    """

    rho: float
    sigma2: float = 1.0
    theta: float = 1.0
    beta: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise DataError(f"rho must lie in [0, 1), got {self.rho}")
        if self.sigma2 <= 0.0:
            raise DataError(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class HeteroCarParams:
    """Node-specific correlation coefficients rho_i in [0, 1)."""

    rho: np.ndarray
    sigma2: float = 1.0
    theta: float = 1.0
    beta: Optional[np.ndarray] = None

    def __post_init__(self):
        arr = np.asarray(self.rho, dtype=np.float64).ravel()
        if arr.size == 0 or arr.min() < 0.0 or arr.max() >= 1.0:
            raise DataError("every rho_i must lie in [0, 1)")
        if self.sigma2 <= 0.0:
            raise DataError(f"sigma2 must be positive, got {self.sigma2}")
        object.__setattr__(self, "rho", arr)


def precision_matrix(net: Network, params: Union[CarParams, HeteroCarParams, float]) -> sparse.csr_array:
    """Sparse precision kernel: D - rho W, or D - P W P for node-specific rho."""
    if isinstance(params, (int, float)):
        params = CarParams(rho=float(params))
    D = sparse.diags_array(net.degrees.astype(np.float64), format="csr")
    if isinstance(params, HeteroCarParams):
        if params.rho.size != net.n:
            raise DataError(
                f"rho vector length {params.rho.size} does not match n={net.n}"
            )
        P = sparse.diags_array(np.sqrt(params.rho), format="csr")
        return (D - P @ net.adjacency @ P).tocsr()
    return (D - params.rho * net.adjacency).tocsr()


class _AffineGram:
    """Grams of the kernel family R(rho) = D - rho W against fixed Z and outcome columns U.

    DZ, WZ, Z'DZ, Z'WZ and, given the (n, s) block U, Z'DU and Z'WU, (q, s),
    and u'Du and u'Wu of each column u, (s,), are formed once; every Gram is
    then affine in rho, so no rho needs a sparse rebuild, and the s columns
    share every Z'R(rho)Z.  _pencil diagonalizes Z'DZ and Z'WZ together
    once; every Schur complement (schur) and GLS estimate at any rho is
    then elementwise.
    """

    def __init__(self, net: Network, Z: np.ndarray, U: Optional[np.ndarray] = None):
        d = net.degrees.astype(np.float64)
        W = net.adjacency
        self.DZ = Z * d[:, None]
        self.WZ = W @ Z
        self.ZDZ = Z.T @ self.DZ
        self.ZWZ = Z.T @ self.WZ
        if U is not None:
            self.ZDu = self.DZ.T @ U
            self.ZWu = self.WZ.T @ U
            self.uDu = np.einsum("ij,ij->j", U, d[:, None] * U)
            self.uWu = np.einsum("ij,ij->j", U, W @ U)

    @cached_property
    def _pencil(self) -> Optional[tuple]:
        """(mu, B, cD, cW) of the pencil (Z'WZ, Z'DZ), or None where Z'DZ
        has no Cholesky factor.

        B solves the generalized symmetric eigenproblem Z'WZ B = Z'DZ B
        diag(mu) with B'(Z'DZ)B = I, so B'(Z'R(rho)Z)B = I - rho diag(mu)
        and (Z'R(rho)Z)^{-1} = B diag(1 / (1 - rho mu)) B' at every rho;
        cD = B'Z'Du and cW = B'Z'Wu.  The Cholesky factor L of Z'DZ reduces
        it to a standard one: B = L^{-T} V for the eigenvectors V of
        L^{-1} Z'WZ L^{-T}.
        """
        # numpy's LAPACK, which the fit already uses: scipy's generalized
        # eigh loads other routines, 0.7 MB more peak memory per study.
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(self.ZDZ))
        except np.linalg.LinAlgError:
            return None
        mu, V = np.linalg.eigh(L_inv @ self.ZWZ @ L_inv.T)
        B = L_inv.T @ V
        # Summed row by row, so that a column's coefficients do not depend
        # on how many columns share the Grams.
        cD = sum(np.multiply.outer(b, z) for b, z in zip(B, self.ZDu))
        cW = sum(np.multiply.outer(b, z) for b, z in zip(B, self.ZWu))
        return mu, B, cD, cW

    def schur(self, rho):
        """u'Ru - (Z'Ru)'(Z'RZ)^{-1} Z'Ru of each outcome column u at each rho,
        without a solve; nan where Z'RZ is not positive definite.

        In the basis of _pencil the quadratic form splits into q terms
        (cD_j - rho cW_j)^2 / (1 - rho mu_j), so one diagonalization per
        Gram scores every rho elementwise.  rho is a (k,) grid shared by
        every column, or an (s, k) array of each column's own values; the
        result is (s, k).
        """
        rho = np.asarray(rho, dtype=np.float64)
        uDu, uWu = self.uDu[:, None], self.uWu[:, None]
        if self._pencil is None:
            return np.full(np.shape(uDu - rho * uWu), np.nan)
        mu, _, cD, cW = self._pencil
        return _schur(uDu, uWu, mu, cD[..., None], cW[..., None], rho)


def _schur(uDu, uWu, mu, cD, cW, rho):
    """uDu - rho uWu - sum_j (cD_j - rho cW_j)^2 / (1 - rho mu_j), nan where a
    pivot 1 - rho mu_j is not positive; mu, cD and cW hold the q terms on
    their first axis, and all broadcast against rho.  Each score is its own
    elementwise sequence, so its bits do not depend on what it is stacked with."""
    out = uDu - rho * uWu
    singular = np.zeros(np.shape(out), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for m, d, w in zip(mu, cD, cW):
            pivot = 1.0 - rho * m
            singular |= pivot <= 0.0
            out = out - (d - rho * w) ** 2 / pivot
    return np.where(singular, np.nan, out)


@dataclass(frozen=True, eq=False)
class PrecisionFactor:
    """Cholesky factorization R = L L' of a precision kernel.

    Solves and log-determinants go through the triangular factor; no
    explicit inverse is ever formed.
    """

    lower: np.ndarray

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve R v = b."""
        y = linalg.solve_triangular(self.lower, b, lower=True)
        return linalg.solve_triangular(self.lower, y, lower=True, trans="T")

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def sample(self, rng: np.random.Generator, sigma2: float = 1.0) -> np.ndarray:
        """One MVN(0, sigma2 R^{-1}) draw: solve L' v = eps for standard normal eps."""
        eps = rng.standard_normal(self.n)
        v = linalg.solve_triangular(self.lower, eps, lower=True, trans="T")
        return math.sqrt(sigma2) * v


def _check_degrees(net: Network, what: str) -> None:
    """Every kernel in the family is singular once a node has degree zero."""
    iso = net.isolated_nodes
    if iso.size:
        raise NotPositiveDefiniteError(
            f"{what}: isolated nodes {iso[:5].tolist()}"
            f"{'...' if iso.size > 5 else ''} have zero degree"
        )


def _check_dense(n: int, what: str) -> None:
    """Refuse an n-by-n dense path above _DENSE_LIMIT nodes before it allocates."""
    if n > _DENSE_LIMIT:
        raise DataError(
            f"{what}: n={n} exceeds the limit of {_DENSE_LIMIT} nodes for dense n-by-n work"
        )


def factor_precision(net: Network, params: Union[CarParams, HeteroCarParams, float]) -> PrecisionFactor:
    """Factor the precision kernel for the given correlation parameters."""
    _check_dense(net.n, "factor_precision")
    _check_degrees(net, "precision kernel is singular")
    R = precision_matrix(net, params).toarray()
    try:
        L = linalg.cholesky(R, lower=True)
    except linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"precision kernel is not positive definite: {exc}") from None
    return PrecisionFactor(lower=L)


def sample_noise(factor: PrecisionFactor, sigma2: float, seed) -> np.ndarray:
    """One correlated disturbance draw from a prebuilt factor."""
    return factor.sample(np.random.default_rng(seed), sigma2)


def sample_outcomes(
    net: Network,
    cov: CovariateMatrix,
    x,
    params: Union[CarParams, HeteroCarParams],
    seed,
    factor: Optional[PrecisionFactor] = None,
) -> np.ndarray:
    """Draw y = x theta + F beta + delta under the CAR model.

    Args:
        x: +/-1 assignment vector.
        seed: int seed or numpy Generator; one standard-normal vector is
            consumed per call, so equal seeds give equal draws regardless
            of the parameter variant.
        factor: optional prebuilt factorization of the matching precision
            kernel, for repeated draws on one network.
    """
    xv = as_sign_vector(x)
    if cov.n != net.n or xv.size != net.n:
        raise DataError("network, covariates and design must agree on n")
    beta = params.beta
    if beta is None:
        beta = np.zeros(cov.p + 1)
    beta = np.asarray(beta, dtype=np.float64).ravel()
    if beta.size != cov.p + 1:
        raise DataError(f"beta must have length p+1={cov.p + 1}, got {beta.size}")
    if factor is None:
        factor = factor_precision(net, params)
    delta = factor.sample(np.random.default_rng(seed), params.sigma2)
    return params.theta * xv + cov.values @ beta + delta


@dataclass(frozen=True, eq=False)
class FitResult:
    """Estimates from a CAR model fit.

    beta_hat includes the intercept coefficient in position 0.  rho_hat is
    the value used by the fit: the caller-supplied one for fixed-rho GLS,
    the maximizer for profile likelihood.  var_theta is the model-based
    variance of theta_hat; loglik the Gaussian log likelihood at the
    reported parameters.
    """

    theta_hat: float
    beta_hat: np.ndarray
    rho_hat: float
    sigma2_hat: float
    var_theta: float
    loglik: float
    method: str

    def __repr__(self) -> str:
        return (
            f"FitResult(method={self.method!r}, theta_hat={self.theta_hat:.6g}, "
            f"rho_hat={self.rho_hat:.6g}, sigma2_hat={self.sigma2_hat:.6g})"
        )


def _regression_gram(net: Network, cov: CovariateMatrix, x, Y: np.ndarray) -> _AffineGram:
    """Grams of the checked design matrix X = [x F] and the outcome columns of Y."""
    xv = as_sign_vector(x)
    if Y.shape[0] != net.n or cov.n != net.n or xv.size != net.n:
        raise DataError("network, covariates, design and outcomes must agree on n")
    X = np.column_stack([xv, cov.values])
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankError(
            "design matrix [x F] is rank deficient; the assignment lies in the covariate span"
        )
    return _AffineGram(net, X, Y)


def fit_gls(net: Network, cov: CovariateMatrix, x, y: np.ndarray, rho: float) -> FitResult:
    """Generalized least squares at a fixed correlation coefficient.

    Estimates (theta, beta) jointly; sigma2 by the ML divisor n.
    """
    gram = _regression_gram(net, cov, x, np.asarray(y, dtype=np.float64).reshape(-1, 1))
    rho = float(rho)
    logdet = factor_precision(net, rho).logdet()
    return _only(_gls_fits(gram, np.array([rho]), np.array([logdet]), "gls"))


def _gls_fits(gram: _AffineGram, rho: np.ndarray, logdet: np.ndarray, method: str) -> list:
    """GLS estimates of each outcome column at its own rho, elementwise in the
    pencil basis of [x F]: gamma = B (cD - rho cW) / (1 - rho mu), var_theta
    = sigma2 sum_j B_0j^2 / (1 - rho mu_j), and the RSS is schur(rho), with
    sigma2 = RSS / n.  None for a column whose schur is nan."""
    n = gram.DZ.shape[0]
    rss = gram.schur(rho[:, None])[:, 0]
    fits = [None] * rho.size
    if gram._pencil is None:  # X'DX has no Cholesky factor: rss is nan throughout
        return fits
    mu, B, cD, cW = gram._pencil
    with np.errstate(divide="ignore", invalid="ignore"):  # the pivots of the nan columns
        pivot = 1.0 - np.multiply.outer(mu, rho)
        coef = (cD - rho * cW) / pivot
        gamma = sum(np.multiply.outer(b, c) for b, c in zip(B.T, coef))
        var = np.sum(B[0, :, None] ** 2 / pivot, axis=0)
    sigma2 = np.maximum(rss / n, np.finfo(float).tiny)
    loglik = (-0.5 * n * math.log(2.0 * math.pi) + 0.5 * logdet
              - 0.5 * n * np.log(sigma2) - 0.5 * n)
    for j in np.flatnonzero(~np.isnan(rss)):
        fits[j] = FitResult(
            theta_hat=float(gamma[0, j]),
            beta_hat=gamma[1:, j].copy(),
            rho_hat=float(rho[j]),
            sigma2_hat=float(sigma2[j]),
            var_theta=float(sigma2[j] * var[j]),
            loglik=float(loglik[j]),
            method=method,
        )
    return fits


def _only(fits: list) -> FitResult:
    """The fit of a single outcome vector, where singular X'RX is an error."""
    if fits[0] is None:
        raise RankError("X' R X is numerically singular")
    return fits[0]


@dataclass(frozen=True, eq=False)
class NetworkSpectrum:
    """Eigenvalues of the degree-normalized adjacency, for fast log determinants.

    With S = D^{-1/2} W D^{-1/2} = U diag(lam) U', every kernel in the
    family satisfies log|D - rho W| = sum log m_i + sum log(1 - rho lam_i),
    so a single symmetric eigendecomposition prices the whole rho grid.
    """

    eigenvalues: np.ndarray
    logdet_degrees: float

    def logdet(self, rho):
        """log|D - rho W| at one rho, or at each entry of an array of rho."""
        rho = np.asarray(rho, dtype=np.float64)
        flat = rho.ravel()
        # Rounding is monotone, so each rho's lowest term 1 - rho lam_i, computed
        # as below, is at the largest eigenvalue for rho >= 0, the smallest below.
        lam = self.eigenvalues
        lowest = np.multiply(flat, -np.where(flat >= 0.0, lam.max(), lam.min()))
        lowest += 1.0
        lost = lowest <= 0.0
        if lost.any():
            raise NotPositiveDefiniteError(
                f"kernel loses positive definiteness at rho={flat[np.argmax(lost)]!r}"
                f" (largest eigenvalue {lam[-1]!r})")
        terms = np.empty(flat.size)
        # The terms log(1 - rho lam_i) in blocks of about 2^15 (256 KB), so
        # that many rho values at once cost neither memory nor cache misses.
        block = max(1, 2**15 // lam.size)
        for i in range(0, flat.size, block):
            vals = np.multiply.outer(flat[i:i + block], -lam)
            vals += 1.0
            terms[i:i + block] = np.sum(np.log(vals, out=vals), axis=-1)
        out = self.logdet_degrees + terms.reshape(rho.shape)
        return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=1)
def network_spectrum(net: Network) -> NetworkSpectrum:
    """The spectrum of net, kept for the last network, so repeated fits on one decompose it once."""
    _check_dense(net.n, "network_spectrum")
    _check_degrees(net, "spectrum undefined")
    d = net.degrees.astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(d)
    S = net.adjacency.toarray() * inv_sqrt[:, None] * inv_sqrt[None, :]
    lam = np.linalg.eigvalsh(S)
    return NetworkSpectrum(eigenvalues=lam, logdet_degrees=float(np.sum(np.log(d))))


def _distinct_logdet(spectrum: NetworkSpectrum, rhos: np.ndarray) -> np.ndarray:
    """spectrum.logdet at each entry of rhos, priced once per distinct value."""
    distinct, inverse = np.unique(rhos, return_inverse=True)
    return spectrum.logdet(distinct)[inverse].reshape(rhos.shape)


def _profile_loglik(schur, spectrum: NetworkSpectrum, rhos) -> np.ndarray:
    """0.5 log|R| - 0.5 n log(sigma2_hat) at each rho, from the residual forms
    schur(rhos) of [x F] and y, whose shape the scores take.  An X'RX that
    is not positive definite and a residual variance that cancels to zero
    (y in the span of [x F]) both score -inf: such points are unusable.
    """
    rhos = np.asarray(rhos, dtype=np.float64)
    n = spectrum.eigenvalues.size
    sigma2 = schur(rhos) / n
    logdet = np.broadcast_to(_distinct_logdet(spectrum, rhos), sigma2.shape)
    out = np.full(sigma2.shape, -np.inf)
    ok = sigma2 > 0.0  # False at nan, the mark of an X'RX that is not positive definite
    out[ok] = 0.5 * logdet[ok] - 0.5 * n * np.log(sigma2[ok])
    return out


def fit_profile_ml(
    net: Network,
    cov: CovariateMatrix,
    x,
    y,
    rho_max: float = RHO_MAX_DEFAULT,
    grid_step: float = 0.01,
    tol: float = 1e-5,
) -> Union[FitResult, list]:
    """Maximize the profile likelihood over rho in [0, rho_max].

    A grid scan with the given step locates the maximizer's neighborhood.
    Each refinement pass then scores 21 points at a tenth of the previous
    step across [best - step, best + step], clipped to [0, rho_max], until
    the step is at most tol.  Every pass is one batched kernel call, and
    the returned rho is the best point of all passes, so it never scores
    below any grid point.  The fit diagonalizes X'DX and X'WX together
    once per design; every score, and the estimates at rho_hat, are then
    elementwise in that basis, so no linear solve is made at any rho.
    log|D - rho W| comes from network_spectrum(net), which keeps the last
    network's; each pass prices it once per distinct rho.

    y is one outcome vector, or an (n, s) matrix of s outcome vectors for
    the same design.  x may also be a (d, n) stack of designs, with y d
    such matrices (a generator forms each only for its Grams).  One search
    serves every column of every design, whose fits keep their bits: a
    (d, s, k) grid scan, then (d, s, 21) refinement passes.

    Returns:
        A FitResult for a vector y; for a matrix, a list of s entries, None
        where X'RX is not positive definite at that column's rho_hat (a
        vector y raises RankError there).  A rank-deficient [x F] raises
        RankError either way.  For a stack, a list of d such lists, where
        a rank-deficient design's list is s entries of None.
    """
    if not 0.0 < rho_max < 1.0:
        raise DataError(f"rho_max must lie in (0, 1), got {rho_max}")
    if not (grid_step > 0.0 and tol > 0.0):
        # a step of zero or less builds no grid; a tol of zero or less stops late or never
        raise DataError(f"grid_step and tol must be positive, got {grid_step} and {tol}")
    stack = np.ndim(x) == 2
    grams, widths = [], set()
    for xd, yd in zip(x, y, strict=True) if stack else [(x, y)]:
        Y = np.asarray(yd, dtype=np.float64)
        Y = Y if Y.ndim == 2 else Y.reshape(-1, 1)
        widths.add(Y.shape[1])
        try:
            grams.append(_regression_gram(net, cov, xd, Y))
        except RankError:
            if not stack:
                raise
            grams.append(None)
    if len(widths) > 1:
        raise DataError(f"every design needs as many outcome columns, got {sorted(widths)}")
    spectrum = network_spectrum(net)
    live = [g for g in grams if g is not None and g._pencil is not None]
    best_rho = np.zeros((len(live), *widths))
    if live:
        # The terms of every design on a (d, s, k) rho, q first: (q, d, s, 1) and (q, d, 1, 1).
        mu, _, cD, cW = (np.stack(a, axis=1) for a in zip(*(g._pencil for g in live)))
        uDu, uWu = (np.stack([getattr(g, a) for g in live])[..., None] for a in ("uDu", "uWu"))
        schur = partial(_schur, uDu, uWu, mu[..., None, None], cD[..., None], cW[..., None])
        rhos = np.arange(0.0, rho_max + 1e-12, grid_step)
        rhos[-1] = min(rhos[-1], rho_max)
        best_score, step = np.full(best_rho.shape, -np.inf), grid_step
        while True:
            scores = _profile_loglik(schur, spectrum, rhos)
            k = np.argmax(scores, axis=-1)[..., None]
            top = np.take_along_axis(scores, k, -1)[..., 0]
            better = top > best_score
            best_rho = np.where(better, np.take_along_axis(
                np.broadcast_to(rhos, scores.shape), k, -1)[..., 0], best_rho)
            best_score = np.where(better, top, best_score)
            if step <= tol:
                break
            step /= 10.0
            rhos = np.clip(best_rho[..., None] + step * np.arange(-10, 11), 0.0, rho_max)

    # Where [x F] is rank deficient or X'DX has no Cholesky factor, every fit is None.
    hats = zip(best_rho, _distinct_logdet(spectrum, best_rho))
    fits = [_gls_fits(g, *next(hats), "profile_ml") if g in live else [None] * best_rho.shape[1]
            for g in grams]
    return fits if stack else fits[0] if np.ndim(y) == 2 else _only(fits[0])
