"""Design criterion for the treatment-effect precision under the CAR model.

For a kernel R = D - rho W and covariates F (intercept included), the
precision of the GLS treatment-effect estimate at unit noise scale is the
quadratic form x' K x with

    K = R - R F (F' R F)^{-1} F' R.

It splits into three interpretable pieces,

    x' K x = m - rho * x' W x - x' R F (F' R F)^{-1} F' R x
           = total_degree - network_term - imbalance_term,

so maximizing precision means sending the network term negative (cutting
edges between arms) while keeping the kernel-weighted covariate imbalance
small.  The criterion at one rho works off a thin factored form (B = R F
and the Cholesky factor of F' R F).  Curves over many rho (the gap and
concavity diagnostics) diagonalize F'DF and F'WF together once and then
score every rho elementwise, since F'R(rho)F is affine in rho.  The dense
n-by-n K is only materialized by k_matrix, which the tests and users who
call it use; `diagnose` takes the robustness correlation from the
factored robustness_correlation instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .car import _AffineGram, _check_degrees, _check_dense, precision_matrix
from .designs import as_sign_vector
from .errors import (
    DataError,
    DegenerateDesignError,
    EigenSolverError,
    RankError,
)
from .graph import CovariateMatrix, Network, check_covariate_rows

__all__ = [
    "CriterionBreakdown",
    "CriterionEvaluator",
    "evaluate",
    "k_matrix",
    "balanced_moment_c",
    "expected_precision_matrix",
    "expected_precision",
    "expected_breakdown",
    "pip",
    "quadform_correlation",
    "robustness_correlation",
    "RobustnessScatter",
    "robustness_scatter",
    "robustness_scatters",
    "GapDiagnostics",
    "surrogate_gap_diagnostics",
    "concavity_probe",
]


def check_design_length(net: Network, x) -> np.ndarray:
    """x as a +/-1 vector; DataError unless it has one entry per node of net."""
    xv = as_sign_vector(x)
    if xv.size != net.n:
        raise DataError(f"design length {xv.size} does not match n={net.n}")
    return xv


@dataclass(frozen=True)
class CriterionBreakdown:
    """Decomposition of the precision x' K x at one rho.

    precision = total_degree - network_term - imbalance_term; variance is
    sigma2 / precision (inf when the design is degenerate).
    """

    precision: float
    network_term: float
    imbalance_term: float
    total_degree: float
    variance: float
    rho: float
    sigma2: float = 1.0

    def to_dict(self) -> dict:
        return asdict(self)


class CriterionEvaluator:
    """Factored criterion forms for repeated designs on one (net, F, rho).

    Attributes (read-only by convention):
        net, cov, rho: the instance.
        W: the network's adjacency as its numpy CSR (graph._Csr), whose
            W @ x gives scipy's bits; m: total degree.
        B: R F (n-by-(p+1)); H: La^{-1} B' for the Cholesky factor La of
            F' R F, so imbalance_term(x) = ||H x||^2.  La is numpy's
            Cholesky factor and H its forward substitution, row by row.
    """

    def __init__(self, net: Network, cov: CovariateMatrix, rho: float):
        if not 0.0 <= rho < 1.0:
            raise DataError(f"rho must lie in [0, 1), got {rho}")
        check_covariate_rows(net, cov)
        _check_degrees(net, "criterion undefined")
        self.net = net
        self.cov = cov
        self.rho = float(rho)
        self.W = net._csr
        self.m = float(net.m)
        gram = _AffineGram(net, cov.values)
        self.B = gram.DZ - self.rho * gram.WZ
        try:
            La = np.linalg.cholesky(gram.ZDZ - self.rho * gram.ZWZ)
        except np.linalg.LinAlgError:
            raise RankError("F' R F is not positive definite; check covariate rank") from None
        self.H = _forward_solve(La, self.B.T)

    def network_term(self, x) -> float:
        xv = as_sign_vector(x)
        return self.rho * float(xv @ (self.W @ xv))

    def imbalance_term(self, x) -> float:
        xv = as_sign_vector(x)
        v = self.H @ xv
        return float(v @ v)

    def breakdown(self, x, sigma2: float = 1.0) -> CriterionBreakdown:
        xv = check_design_length(self.net, x)
        t1 = self.network_term(xv)
        t2 = self.imbalance_term(xv)
        t = self.m - t1 - t2
        var = sigma2 / t if t > 0 else math.inf
        return CriterionBreakdown(
            precision=t,
            network_term=t1,
            imbalance_term=t2,
            total_degree=self.m,
            variance=var,
            rho=self.rho,
            sigma2=sigma2,
        )

    def precision(self, x) -> float:
        return self.breakdown(x).precision

    # Moments over uniformly random balanced designs: E[x x'] has unit
    # diagonal and constant off-diagonal c, so E[x' M x] needs only tr(M)
    # and 1' M 1.  H never changes, so they are computed once.
    def expected_terms(self) -> tuple:
        return self._expected_terms

    @functools.cached_property
    def _expected_terms(self) -> tuple:
        c = balanced_moment_c(self.net.n)
        e_t1 = self.rho * c * self.m  # tr(W) = 0
        h_frob = float(np.sum(self.H * self.H))
        h_ones = self.H @ np.ones(self.net.n)
        e_t2 = h_frob + c * (float(h_ones @ h_ones) - h_frob)
        return e_t1, e_t2

    def expected_breakdown(self) -> CriterionBreakdown:
        """Expected decomposition over uniformly random balanced designs."""
        e_t1, e_t2 = self.expected_terms()
        t = self.m - e_t1 - e_t2
        return CriterionBreakdown(
            precision=t,
            network_term=e_t1,
            imbalance_term=e_t2,
            total_degree=self.m,
            variance=1.0 / t if t > 0 else math.inf,
            rho=self.rho,
        )

    def pip(self, x0) -> float:
        """Percentage increase in precision of x0; see the module-level pip."""
        return self._pip_from_precision(self.precision(x0))

    def _pip_from_precision(self, t0: float) -> float:
        """pip of a design whose precision x0' K x0 is t0, as breakdown() gives it."""
        if t0 < 1e-10 * max(1.0, self.m):
            raise DegenerateDesignError(
                f"design precision {t0:.3e} is degenerate; PIP undefined"
            )
        return 1.0 - self.expected_breakdown().precision / t0


def _forward_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^{-1} B for a lower-triangular L, by forward substitution, one row of
    the result at a time: row k is (B_k - L[k, :k] X[:k]) / L_kk."""
    X = np.empty(B.shape)
    for k in range(L.shape[0]):
        X[k] = (B[k] - L[k, :k] @ X[:k]) / L[k, k]
    return X


def _precision_curve(net: Network, cov: CovariateMatrix, x, rhos) -> tuple:
    """T(x, rho) = x'Rx - x'RF (F'RF)^{-1} F'Rx at each rho, which
    _AffineGram.schur scores elementwise after one joint diagonalization of
    F'DF and F'WF.  Returns (gram, t): the Grams of (F, x) with that pencil
    cached, and the precisions.
    """
    check_covariate_rows(net, cov)
    _check_degrees(net, "criterion undefined")
    xv = check_design_length(net, x)
    gram = _AffineGram(net, cov.values, xv[:, None])
    t = gram.schur(rhos)[0]
    if np.any(np.isnan(t)):
        raise RankError("F' R F is not positive definite; check covariate rank")
    return gram, t


def evaluate(net: Network, cov: CovariateMatrix, x, rho: float, sigma2: float = 1.0) -> CriterionBreakdown:
    """One-shot criterion breakdown; build a CriterionEvaluator for sweeps."""
    return CriterionEvaluator(net, cov, rho).breakdown(x, sigma2=sigma2)


def k_matrix(net: Network, cov: CovariateMatrix, rho: float) -> np.ndarray:
    """Dense precision kernel K = R - R F (F' R F)^{-1} F' R.

    Symmetric by construction (the correction is assembled as H' H).
    Intended for diagnostics and small-n work; quadratic memory.
    """
    _check_dense(net.n, "k_matrix")
    ev = CriterionEvaluator(net, cov, rho)
    R = precision_matrix(net, rho).toarray()
    return R - ev.H.T @ ev.H


def balanced_moment_c(n: int) -> float:
    """Off-diagonal second moment E[x_i x_j] of a uniform balanced design.

    Equals -1/(n-1) for even n (arm sums exactly zero) and -1/n for odd n.
    """
    if n < 2:
        raise DataError(f"need n >= 2, got {n}")
    return -1.0 / (n - 1) if n % 2 == 0 else -1.0 / n


def expected_precision_matrix(n: int) -> np.ndarray:
    """Dense E[x x'] over uniform balanced designs: unit diagonal, constant c off it."""
    c = balanced_moment_c(n)
    _check_dense(n, "expected_precision_matrix")
    C = np.full((n, n), c)
    np.fill_diagonal(C, 1.0)
    return C


def expected_precision(net: Network, cov: CovariateMatrix, rho: float) -> float:
    """E[x' K x] over uniform balanced designs, via tr(K C) = tr K + c(1'K1 - tr K).

    Computed from the factored forms; the dense K and C never appear.
    """
    return expected_breakdown(net, cov, rho).precision


def expected_breakdown(net: Network, cov: CovariateMatrix, rho: float) -> CriterionBreakdown:
    """Expected decomposition under uniform balanced designs (same identity)."""
    return CriterionEvaluator(net, cov, rho).expected_breakdown()


def pip(net: Network, cov: CovariateMatrix, x0, rho_t: float) -> float:
    """Percentage increase in precision of x0 over a random balanced design.

    1 - E[x' K x] / (x0' K x0), both sides at the true correlation rho_t.
    Raises DegenerateDesignError when x0 carries (numerically) no precision.
    """
    return CriterionEvaluator(net, cov, rho_t).pip(x0)


def _as_dense_symmetric(mat, name: str) -> np.ndarray:
    """mat, an array or a sparse matrix (anything with toarray()), as a dense symmetric array."""
    sparse = hasattr(mat, "toarray")
    shape = mat.shape if sparse else np.shape(mat)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DataError(f"{name} must be a square matrix")
    _check_dense(shape[0], "quadform_correlation")
    arr = mat.toarray() if sparse else np.asarray(mat, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(arr))))
    if np.max(np.abs(arr - arr.T)) > 1e-8 * scale:
        raise DataError(f"{name} must be symmetric")
    return arr


def quadform_correlation(a, b) -> float:
    """Exact correlation of x'Ax and x'Bx over iid +/-1 assignment vectors.

    Only off-diagonal entries matter: the correlation is the cosine of the
    strict upper triangles,
        sum_{i<j} a_ij b_ij / sqrt(sum a_ij^2) / sqrt(sum b_ij^2).

    Sparse input is densified, so matrices above the dense-size limit are
    refused before any n-by-n array is built.
    """
    A = _as_dense_symmetric(a, "a")
    B = _as_dense_symmetric(b, "b")
    if A.shape != B.shape:
        raise DataError(f"shape mismatch: {A.shape} vs {B.shape}")
    iu = np.triu_indices(A.shape[0], k=1)
    ua, ub = A[iu], B[iu]
    na, nb = float(ua @ ua), float(ub @ ub)
    if na == 0.0 or nb == 0.0:
        raise DataError("quadratic form has no off-diagonal mass; correlation undefined")
    return float(ua @ ub) / math.sqrt(na * nb)


def robustness_correlation(net: Network, cov: CovariateMatrix, rho0: float, rho: float) -> float:
    """quadform_correlation(k_matrix(net, cov, rho0), k_matrix(net, cov, rho)), factored.

    Off the diagonal, K = R - H'H equals -rho W - H'H, so the inner
    product of the off-diagonal parts of Ka and Kb is

        rho_a rho_b <W, W> + rho_a <W, Hb'Hb> + rho_b <W, Ha'Ha>
            + ||Ha Hb'||_F^2 - sum_i ||ha_i||^2 ||hb_i||^2,

    the same as tr(Ka Kb) - sum_i Ka_ii Kb_ii with the degree diagonal
    cancelled before it is summed.  Every term is an O(m p) sparse
    product or a thin O(n p^2) one, so no n-by-n array is built and no
    dense-size limit applies.
    """
    W = net._csr
    ww = float(W.data @ W.data)
    H = [CriterionEvaluator(net, cov, r).H for r in (rho0, rho)]
    g = [np.einsum("ki,ki->i", h, h) for h in H]
    wh = [float(np.sum(h * (W @ h.T).T)) for h in H]

    def inner(a: int, b: int, ra: float, rb: float) -> float:
        hh = H[a] @ H[b].T
        return ra * rb * ww + ra * wh[b] + rb * wh[a] + float(np.sum(hh * hh)) - float(g[a] @ g[b])

    na, nb = inner(0, 0, rho0, rho0), inner(1, 1, rho, rho)
    if na <= 0.0 or nb <= 0.0:
        raise DataError("quadratic form has no off-diagonal mass; correlation undefined")
    return inner(0, 1, rho0, rho) / math.sqrt(na * nb)


@dataclass(frozen=True, eq=False)
class RobustnessScatter:
    """Paired criterion values of iid designs at a working and a true rho."""

    rho0: float
    rho: float
    precision_at_rho0: np.ndarray
    precision_at_rho: np.ndarray
    sample_correlation: float


def robustness_scatter(
    net: Network,
    cov: CovariateMatrix,
    rho0: float,
    rho: float,
    n_designs: int,
    seed: int,
) -> RobustnessScatter:
    """Scatter of x'K(rho0)x against x'K(rho)x over random iid designs.

    Duplicate designs are redrawn so the sample always has variation.
    The precisions of all designs at one rho come from one H X and the
    shared x'Wx from one W X, X holding the designs as columns.
    """
    return next(robustness_scatters(net, cov, rho0, (rho,), n_designs, seed))


def robustness_scatters(
    net: Network,
    cov: CovariateMatrix,
    rho0: float,
    rhos,
    n_designs: int,
    seed: int,
) -> Iterator[RobustnessScatter]:
    """robustness_scatter at each rho of rhos in turn, all on one draw of designs.

    A generator: the designs, W X and the precisions at rho0 are computed
    once, when the first scatter is asked for, and each rho adds one H X.
    Each scatter equals robustness_scatter(net, cov, rho0, rho, n_designs, seed).
    """
    if n_designs < 2:
        raise DataError(f"need at least 2 designs, got {n_designs}")
    rng = np.random.default_rng(seed)
    seen = set()
    X = np.empty((net.n, n_designs))
    count = attempts = 0
    while count < n_designs:
        x = rng.integers(0, 2, size=net.n) * 2.0 - 1.0
        key = np.packbits(x > 0).tobytes()
        attempts += 1
        if key in seen:
            if attempts > 1000 * n_designs:
                raise DataError("could not draw enough distinct designs")
            continue
        seen.add(key)
        X[:, count] = x
        count += 1
    xwx = np.einsum("ij,ij->j", X, net._csr @ X)

    def precisions(r):
        return float(net.m) - r * xwx - np.sum((CriterionEvaluator(net, cov, r).H @ X) ** 2, axis=0)

    t0 = precisions(rho0)
    for rho in rhos:
        t1 = precisions(rho)
        if t0.std() == 0.0 or t1.std() == 0.0:
            raise DataError("criterion values show no variation; correlation undefined")
        yield RobustnessScatter(
            rho0=rho0,
            rho=rho,
            precision_at_rho0=t0,
            precision_at_rho=t1,
            sample_correlation=float(np.corrcoef(t0, t1)[0, 1]),
        )


# Both ends of the spectrum of R(rho0) cost two Lanczos runs on the sparse
# kernel, or one dense build and eigvalsh.  Dense against Lanczos, in ms,
# median of 15 on one BLAS thread of a 2-core Xeon, Bernoulli graphs of
# mean degree 4 / 12 / 40: n=50 0.14/0.19/0.16 against 2.7/2.7/1.7;
# n=200 2.3/2.5/1.9 against 4.9/3.8/3.2; n=300 6.2/5.0/5.3 against
# 6.5/5.1/4.0; n=400 12/10/9.4 against 10/4.1/3.5.
_DENSE_EIGEN = 200


def _eig_extremes(net: Network, rho0: float) -> tuple:
    """(lam_max, lam_min) of D - rho0 W and max |lam| of W.

    Up to _DENSE_EIGEN = 200 nodes, where it was measured faster, from one
    dense eigvalsh of D - rho0 W built from the cached dense W.  Above
    it, plain Lanczos on the sparse kernel at each end, to 1e-6 relative.
    Shift-invert around zero gives the same lam_min but needs a sparse LU
    of R(rho0), which made it slower at every size measured and two
    orders of magnitude slower at n=2000.
    """
    W, radius = _adjacency_spectrum(net)
    if W is None:
        R = precision_matrix(net, rho0)
        return _lanczos_extreme(R, "LA"), _lanczos_extreme(R, "SA"), radius
    R = -rho0 * W
    R[np.diag_indices_from(R)] = net.degrees
    vals = np.linalg.eigvalsh(R)
    return float(vals[-1]), float(vals[0]), radius


@functools.lru_cache(maxsize=1)
def _adjacency_spectrum(net: Network) -> tuple:
    """(dense W, or None above _DENSE_EIGEN nodes; max |lam(W)|).

    Neither depends on rho, so a gap study that scores every design on
    one network computes them once.
    """
    if net.n > _DENSE_EIGEN:
        return None, abs(_lanczos_extreme(net.adjacency, "LM"))
    W = net._csr.toarray()
    vals = np.linalg.eigvalsh(W)
    return W, float(max(-vals[0], vals[-1]))


def _lanczos_extreme(A, which: str) -> float:
    """The largest ("LA"), smallest ("SA") or largest-magnitude ("LM")
    eigenvalue of a sparse symmetric operator, to 1e-6 relative.

    Only for operators above _DENSE_EIGEN = 200 rows: up to that size one
    dense eigvalsh was measured cheaper, and _eig_extremes takes it."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh  # loaded only where used
    # Fixed start vector: ARPACK otherwise seeds from global numpy state,
    # which would make repeated runs differ in the last few bits.  Drawn
    # from a frozen generator so it is generic for structured graphs too.
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    try:
        return float(eigsh(A, k=1, which=which, tol=1e-6, v0=v0, return_eigenvectors=False)[0])
    except ArpackNoConvergence as exc:
        raise EigenSolverError(f"eigenvalue iteration did not converge: {exc}") from None


# Cephes ndtri (S. L. Moshier, 1989), the routine behind scipy.special.ndtri:
# the same coefficients, branches and operation order give the same bits,
# without importing scipy.special (about 60 ms of start-up on a 2-vCPU VM).
# Each Q table carries the leading 1 that Cephes' p1evl leaves implicit
# (1 * x is exact, so the sums are unchanged).
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coef) -> float:
    """Cephes polevl: the polynomial with coefficients coef (highest first), by Horner."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0) -> float:
    """The standard normal quantile Phi^{-1}(y0), bit for bit scipy.special.ndtri.

    -inf at 0, inf at 1, nan outside [0, 1] and at nan."""
    y = float(y0)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    lower = y <= 1.0 - _EXP_M2
    if not lower:
        y = 1.0 - y
    if y > _EXP_M2:
        # Central branch: a rational function of (y - 1/2)^2.
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242e0  # sqrt(2 pi)
    # Tails: x = sqrt(-2 log y), corrected by a rational function of 1/x
    # fitted separately above and below x = 8 (y = exp(-32)).
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if lower else x


@dataclass(frozen=True, eq=False)
class GapDiagnostics:
    """How much the fixed-rho surrogate criterion overstates the prior mean.

    gap_estimate: T(x, rho0) minus the mean of T(x, rho) over the prior
        draws; t_at_rho0 is T(x, rho0) itself.  second_derivative_term is
        the leading-order expansion of that gap and is always nonnegative;
        bound_a and bound_b are closed upper bounds (bound_b at the stored
        alpha).
    """

    gap_estimate: float
    second_derivative_term: float
    bound_a: float
    alpha: float
    rho0: float
    var_rho: float
    t_at_rho0: float = math.nan
    _prefactor: float = 0.0
    _total_degree: float = 0.0

    @property
    def bound_b(self) -> float:
        return self.bound_b_at(self.alpha)

    def bound_b_at(self, alpha: float) -> float:
        """bound_b at tail level alpha: (m + z_{1-alpha} sqrt(m)) * prefactor, no refactoring."""
        if not 0.0 < alpha < 1.0:
            raise DataError(f"alpha must lie in (0, 1), got {alpha}")
        m = self._total_degree
        return (m + _ndtri(1.0 - alpha) * math.sqrt(m)) * self._prefactor


def surrogate_gap_diagnostics(
    net: Network,
    cov: CovariateMatrix,
    x,
    rho0: float,
    prior_samples,
    alpha: float = 0.05,
) -> GapDiagnostics:
    """Estimate and bound the surrogate gap T(x, rho0) - E_rho T(x, rho).

    The second-derivative term uses the residual vector
    s = [I - F (F'RF)^{-1} F' R] x at rho0:
        0.5 * d^2/drho^2 imbalance_term = s' W F (F'RF)^{-1} F' W s,
    scaled by the prior variance.  In the pencil basis of (F'WF, F'DF),
    with eigenvalues mu, cD = B'F'Dx and cW = B'F'Wx, that form is
        sum_j (cW_j - mu_j cD_j)^2 / (1 - rho0 mu_j)^3,
    so neither it nor T(x, rho) at the prior draws needs a solve.  bound_a
    scales with min(n * lam_max(R), (1 + rho0) m); bound_b replaces that
    factor with m + z_{1-alpha} sqrt(m), valid for designs respecting the
    connection cap at level alpha.
    """
    samples = np.asarray(prior_samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise DataError("prior_samples must be non-empty")
    if samples.min() < 0.0 or samples.max() >= 1.0:
        raise DataError("prior samples must lie in [0, 1)")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 <= rho0 < 1.0:
        raise DataError(f"rho0 must lie in [0, 1), got {rho0}")
    gram, t = _precision_curve(net, cov, x, np.concatenate(([rho0], samples)))
    var_rho = float(np.var(samples))

    # The imbalance term is sum_j (cD_j - rho cW_j)^2 / (1 - rho mu_j) in
    # the pencil basis; half its second derivative is elementwise too.
    mu, _, cD, cW = gram._pencil
    second = var_rho * float(np.sum((cW[:, 0] - mu * cD[:, 0]) ** 2 / (1.0 - rho0 * mu) ** 3))

    lam_max, lam_min, lam_w = _eig_extremes(net, rho0)
    m = float(net.m)
    pref = (lam_w**2) * var_rho / (lam_min**2)
    return GapDiagnostics(
        gap_estimate=float(t[0] - np.mean(t[1:])),
        second_derivative_term=second,
        bound_a=min(net.n * lam_max, (1.0 + rho0) * m) * pref,
        alpha=alpha,
        rho0=rho0,
        var_rho=var_rho,
        t_at_rho0=float(t[0]),
        _prefactor=pref,
        _total_degree=m,
    )


def concavity_probe(net: Network, cov: CovariateMatrix, x, rho_grid) -> np.ndarray:
    """Second central differences of rho -> T(x, rho) on a uniform grid.

    The precision is concave in rho on (0, 1), so every entry should be
    nonpositive up to roundoff.  The grid must be strictly inside (0, 1),
    uniform, with step at most 0.01.
    """
    grid = np.asarray(rho_grid, dtype=np.float64).ravel()
    if grid.size < 3:
        raise DataError("need at least 3 grid points for second differences")
    if grid.min() <= 0.0 or grid.max() >= 1.0:
        raise DataError("rho grid must lie strictly inside (0, 1)")
    steps = np.diff(grid)
    if steps.min() <= 0.0 or np.max(np.abs(steps - steps[0])) > 1e-12:
        raise DataError("rho grid must be strictly increasing and uniform")
    if steps[0] > 0.01 + 1e-12:
        raise DataError(f"grid step must be at most 0.01, got {steps[0]}")
    t = _precision_curve(net, cov, x, grid)[1]
    return t[2:] - 2.0 * t[1:-1] + t[:-2]
