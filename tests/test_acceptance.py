"""Acceptance gate: thirteen checks, one printed verdict line each.

Verdicts go to the unbuffered real stdout so they stay visible under
pytest's capture.  Each check recomputes its oracle from scratch here
(dense linear algebra, exhaustive enumeration, Monte Carlo) rather than
trusting package internals; the package only supplies the values under
test.  Tolerances are part of the check and are not tuned per run.
"""

import itertools
import sys

import numpy as np
from scipy import stats

from netdesign.car import (
    factor_precision,
    fit_gls,
    precision_matrix,
    sample_noise,
)
from netdesign.cli import main as cli_main
from netdesign.criterion import (
    CriterionEvaluator,
    balanced_moment_c,
    expected_precision,
    k_matrix,
    quadform_correlation,
)
from netdesign.errors import RankError
from netdesign.experiments import run_study, study_spec_from_dict
from netdesign.graph import (
    CovariateMatrix,
    generate_bernoulli_network,
    generate_pm1_covariates,
    paired_bipartite_instance,
    repair_isolated,
    write_covariates,
    write_edge_list,
)
from netdesign.optimizer import (
    hybrid_problem,
    quantile_cap,
    solve_annealing,
    solve_exact,
    solve_local,
)


VERDICTS = []


def verdict(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    # Into the capture buffer for failure reports, and into the registry
    # for the end-of-run summary section (see conftest), which is the
    # copy that survives pytest's fd-level capture.
    print(line, file=sys.__stdout__, flush=True)
    VERDICTS.append(line)
    return bool(ok)


def random_connected(rng, n, density, p):
    net = generate_bernoulli_network(n, density, seed=int(rng.integers(2**31)))
    net = repair_isolated(net, "connect", seed=int(rng.integers(2**31))).network
    while True:
        z = rng.integers(0, 2, size=(n, p)) * 2.0 - 1.0
        try:
            return net, CovariateMatrix.from_raw(z)
        except RankError:
            continue


def dense_objective(net, cov, rho0):
    """Imbalance quadratic form, built independently with dense inverses."""
    R = precision_matrix(net, rho0).toarray()
    F = cov.values
    B = R @ F
    return B @ np.linalg.inv(F.T @ B) @ B.T


def enumerate_balanced(n):
    """All +/-1 vectors with |sum| <= 1 as rows, first entry free."""
    codes = np.arange(2**n, dtype=np.uint64)[:, None]
    bits = (codes >> np.arange(n, dtype=np.uint64)[None, ::-1]) & 1
    X = bits.astype(np.float64) * 2.0 - 1.0
    return X[np.abs(X.sum(axis=1)) <= 1.0]


def test_criterion_01_solver_oracles():
    rng = np.random.default_rng(20240801)
    exact_ok = local_ok = anneal_ok = total = 0
    while total < 100:
        n = int(rng.integers(6, 13))
        density = (0.2, 0.5)[total % 2]
        p = (1, 2)[(total // 2) % 2]
        alpha = (0.5, 0.1)[(total // 4) % 2]
        net, cov = random_connected(rng, n, density, p)
        try:
            prob = hybrid_problem(net, cov, 0.5, alpha)
        except Exception:
            continue
        total += 1
        M = dense_objective(net, cov, 0.5)
        W = net.adjacency.toarray()
        cap = quantile_cap(net, alpha)
        best = np.inf
        for x in enumerate_balanced(n):
            if x[0] < 0 or x @ W @ x > cap + 1e-9:
                continue
            best = min(best, float(x @ M @ x))
        seed = int(rng.integers(2**31))
        rex = solve_exact(prob, relax=False)
        rloc = solve_local(prob, restarts=16, seed=seed, relax=False)
        rann = solve_annealing(prob, seed=seed, relax=False)
        if np.isinf(best):
            exact_ok += not rex.feasible
            local_ok += not rloc.feasible
            anneal_ok += not rann.feasible
            continue
        tol = 1e-10 * max(1.0, abs(best))
        exact_ok += rex.feasible and abs(rex.objective - best) <= tol
        local_ok += rloc.feasible and rloc.objective - best <= tol
        anneal_ok += rann.feasible and rann.objective - best <= tol
    ok = exact_ok == 100 and local_ok >= 90 and anneal_ok >= 85
    assert verdict(1, "solver matches exhaustive enumeration", ok,
                   f"exact {exact_ok}/100, local {local_ok}/100, annealing {anneal_ok}/100")


def test_criterion_02_route_equivalence():
    rng = np.random.default_rng(20240802)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(5, 51))
        net, cov = random_connected(rng, n, 0.3, int(rng.integers(1, 4)))
        rho = float(rng.uniform(0.0, 0.95))
        x = rng.integers(0, 2, size=n) * 2.0 - 1.0
        ev = CriterionEvaluator(net, cov, rho)
        br = ev.breakdown(x)
        route_terms = net.m - br.network_term - br.imbalance_term
        R = precision_matrix(net, rho).toarray()
        F = cov.values
        K = R - R @ F @ np.linalg.inv(F.T @ R @ F) @ F.T @ R
        gap = abs(float(x @ K @ x) - route_terms) / max(1.0, net.m)
        worst = max(worst, gap)
    ok = worst <= 1e-8
    assert verdict(2, "quadratic-form and term-sum routes agree", ok,
                   f"worst relative gap {worst:.2e}")


def test_criterion_03_concavity():
    rng = np.random.default_rng(20240803)
    grid = np.round(np.arange(0.30, 0.7001, 0.05), 10)
    worst = -np.inf
    probes = 0
    for _ in range(100):
        n = int(rng.integers(8, 21))
        net, cov = random_connected(rng, n, 0.4, int(rng.integers(1, 3)))
        evs = [CriterionEvaluator(net, cov, float(r)) for r in grid]
        for _ in range(50):
            x = rng.integers(0, 2, size=n) * 2.0 - 1.0
            t = np.array([ev.breakdown(x).precision for ev in evs])
            second = t[:-2] - 2.0 * t[1:-1] + t[2:]
            worst = max(worst, float(second.max()))
            probes += 1
    ok = probes == 5000 and worst <= 1e-6
    assert verdict(3, "precision concave in the correlation", ok,
                   f"{probes} probes, max second difference {worst:.2e}")


def test_criterion_04_quadform_normality():
    # As stated this check scales x'Wx by sqrt(m).  The exact variance of
    # x'Wx under iid signs is 2m on every graph (each unordered edge
    # contributes 4 via pairwise-independent products), so the scaled
    # statistic has variance 2 and the KS comparison against N(0, 1) is
    # expected to reject.  Kept verbatim; see the companion unit test for
    # the sqrt(2m) scaling that does converge.
    rng = np.random.default_rng(20240804)
    net = generate_bernoulli_network(500, 0.02, seed=42)
    W = net.adjacency
    vals = np.empty(2000)
    for i in range(2000):
        x = rng.integers(0, 2, size=500) * 2.0 - 1.0
        vals[i] = x @ (W @ x)
    stat = stats.kstest(vals / np.sqrt(net.m), "norm")
    ok = stat.pvalue >= 0.01
    assert verdict(4, "x'Wx / sqrt(m) passes KS against N(0,1)", ok,
                   f"KS {stat.statistic:.4f}, p {stat.pvalue:.2e}")


def test_criterion_05_balanced_average():
    rng = np.random.default_rng(20240805)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(5, 11))
        net, cov = random_connected(rng, n, 0.5, trial % 3)
        rho = float(rng.uniform(0.0, 0.9))
        K = k_matrix(net, cov, rho)
        X = enumerate_balanced(n)
        avg = float(np.einsum("ij,jk,ik->i", X, K, X).mean())
        pred = expected_precision(net, cov, rho)
        worst = max(worst, abs(pred - avg) / max(1.0, abs(avg)))
    c_exact = all(
        balanced_moment_c(n) == (-1.0 / (n - 1) if n % 2 == 0 else -1.0 / n)
        for n in range(2, 40)
    )
    ok = worst <= 1e-9 and c_exact
    assert verdict(5, "trace identity equals balanced-design average", ok,
                   f"worst relative error {worst:.2e}, moment constants exact: {c_exact}")


def test_criterion_06_correlation_formula():
    rng = np.random.default_rng(20240806)
    worst_mc = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 15))
        A = rng.standard_normal((n, n))
        A = A + A.T
        B = rng.standard_normal((n, n))
        B = B + B.T
        X = rng.integers(0, 2, size=(20000, n)) * 2.0 - 1.0
        qa = np.einsum("ij,jk,ik->i", X, A, X)
        qb = np.einsum("ij,jk,ik->i", X, B, X)
        mc = float(np.corrcoef(qa, qb)[0, 1])
        worst_mc = max(worst_mc, abs(quadform_correlation(A, B) - mc))
    grid = np.round(np.arange(0.1, 0.91, 0.1), 10)
    low = 1.0
    low_half = 1.0
    for s in range(10):
        srng = np.random.default_rng((20240806, s))
        net, cov = random_connected(srng, 50, 0.08, 5)
        ks = {float(r): k_matrix(net, cov, float(r)) for r in grid}
        for r0, r1 in itertools.combinations(grid, 2):
            corr = quadform_correlation(ks[float(r0)], ks[float(r1)])
            low = min(low, corr)
            if 0.5 in (round(r0, 1), round(r1, 1)):
                low_half = min(low_half, corr)
    ok = worst_mc <= 0.02 and low >= 0.70 and low_half > 0.88
    assert verdict(6, "exact quadratic-form correlations", ok,
                   f"MC gap {worst_mc:.3f}, min {low:.3f}, min at rho0=0.5 {low_half:.3f}")


def test_criterion_07_gap_bounds():
    spec = study_spec_from_dict({"kind": "gap_histogram"})
    res = run_study(spec)
    rows = [r for r in res.rows if r["status"] == "ok"]
    gaps = np.array([r["gap"] for r in rows])
    ok = (
        len(rows) == 400
        and gaps.min() >= -1e-8
        and all(r["gap"] <= r["bound_a"] + 1e-8 for r in rows)
        and all(r["gap"] <= r["bound_b"] + 1e-8 for r in rows)
        and all(r["second_derivative_term"] >= 0.0 for r in rows)
    )
    assert verdict(7, "prior-averaging gap within both bounds", ok,
                   f"{len(rows)} designs, gap range [{gaps.min():.2e}, {gaps.max():.3f}]")


def test_criterion_08_bipartite_illustration():
    net, cov = paired_bipartite_instance(10)
    report = solve_exact(hybrid_problem(net, cov, 0.5, 0.001), relax=False)
    x = report.design.x
    z = cov.values[:, 1]
    t1 = 0.5 * report.constraint_value
    counts_equal = all(
        np.sum((z == lv) & (x > 0)) == np.sum((z == lv) & (x < 0))
        for lv in (-1.0, 1.0)
    )
    ok = report.feasible and t1 == -0.5 * net.m and counts_equal
    assert verdict(8, "paired instance cuts every edge and balances", ok,
                   f"T1 {t1}, target {-0.5 * net.m}, counts equal: {counts_equal}")


def test_criterion_09_network_advantage_trend():
    spec = study_spec_from_dict({"kind": "network_vs_no_network"})
    res = run_study(spec)
    wins = 0
    for rep in range(10):
        hi = [r for r in res.rows if r["replicate"] == rep and r["rho_t"] == 0.9
              and r["method_kind"] == "network"]
        lo = [r for r in res.rows if r["replicate"] == rep and r["rho_t"] == 0.9
              and r["method_kind"] == "no_network"]
        wins += hi[0]["pip"] > lo[0]["pip"]
    net_pips = {
        rho: np.median([r["pip"] for r in res.rows
                        if r["method_kind"] == "network" and r["rho_t"] == rho])
        for rho in (0.1, 0.9)
    }
    ok = wins >= 8 and net_pips[0.9] > net_pips[0.1]
    assert verdict(9, "network-aware design beats covariate-only", ok,
                   f"wins {wins}/10, median improvement {net_pips[0.1]:.3f} -> {net_pips[0.9]:.3f}")


def test_criterion_10_robustness_band():
    spec = study_spec_from_dict({"kind": "rho_robustness"})
    res = run_study(spec)
    diffs = [abs(r["pip_difference"]) for r in res.rows if r["status"] == "ok"]
    med = float(np.median(diffs))
    ok = len(diffs) == 90 and med <= 0.04
    assert verdict(10, "working-correlation designs stay near optimal", ok,
                   f"median |improvement difference| {med:.4f}")


def test_criterion_11_pseudo_experiment():
    spec = study_spec_from_dict({"kind": "pseudo_experiment"})
    res = run_study(spec)
    med = {
        kind: float(np.median([r["percentile"] for r in res.rows
                               if r["design_kind"] == kind and r["percentile"] is not None]))
        for kind in ("hybrid", "no_network")
    }
    ok = med["hybrid"] < 0.5 and med["hybrid"] < med["no_network"]
    assert verdict(11, "optimized design ranks below random designs on MSE", ok,
                   f"median percentile: optimized {med['hybrid']:.2f}, "
                   f"covariate-only {med['no_network']:.2f}")


def test_criterion_12_car_machinery():
    rng = np.random.default_rng(20240812)
    net, _ = random_connected(rng, 25, 0.2, 0)
    sigma2 = 1.7
    factor = factor_precision(net, 0.6)
    target = sigma2 * np.linalg.inv(precision_matrix(net, 0.6).toarray())
    draws = np.empty((30000, 25))
    gen = np.random.default_rng(7)
    for i in range(draws.shape[0]):
        draws[i] = sample_noise(factor, sigma2, gen)
    emp = np.cov(draws, rowvar=False)
    cov_gap = float(np.abs(emp - target).max() / np.abs(target).max())

    worst = 0.0
    fitted = 0
    for _ in range(20):
        n = int(rng.integers(10, 40))
        net, cov = random_connected(rng, n, 0.3, int(rng.integers(0, 3)))
        rho = float(rng.uniform(0.0, 0.9))
        x = rng.integers(0, 2, size=n) * 2.0 - 1.0
        y = rng.standard_normal(n)
        try:
            fit = fit_gls(net, cov, x, y, rho)
        except Exception:
            continue
        fitted += 1
        R = precision_matrix(net, rho).toarray()
        F = cov.values
        K = R - R @ F @ np.linalg.inv(F.T @ R @ F) @ F.T @ R
        direct = fit.sigma2_hat / float(x @ K @ x)
        worst = max(worst, abs(direct - fit.var_theta) / max(direct, 1e-300))
    ok = cov_gap <= 0.02 and fitted >= 18 and worst <= 1e-8
    assert verdict(12, "noise covariance and variance routes agree", ok,
                   f"sampling gap {cov_gap:.4f}, GLS route gap {worst:.2e}")


def test_criterion_13_cli_determinism(tmp_path):
    def run(*argv):
        return cli_main([str(a) for a in argv])

    prefix = {}
    for tag in ("a", "b"):
        prefix[tag] = tmp_path / tag
        assert run("generate", "--n", 24, "--p", 3, "--density", 0.2,
                   "--seed", 3, "--out-prefix", prefix[tag]) == 0
    edges, covs = f"{prefix['a']}_edges.txt", f"{prefix['a']}_covariates.csv"
    spec = tmp_path / "s.yaml"
    spec.write_text("kind: alpha_sweep\nn: 16\np: 2\nreplicates: 2\n"
                    "alphas: [0.1]\nrho_ts: [0.5]\nrestarts: 4\nseed: 2\n")
    outputs = {}
    for tag in ("a", "b"):
        d = tmp_path / f"design_{tag}.csv"
        e = tmp_path / f"eval_{tag}.csv"
        g = tmp_path / f"diag_{tag}.csv"
        s = tmp_path / f"study_{tag}.csv"
        x = tmp_path / f"x_{tag}.design"
        assert run("design", edges, covs, "--design-out", x, "--output", d) == 0
        assert run("evaluate", edges, covs, x, "--rho-t", "0.2,0.8",
                   "--output", e) == 0
        assert run("diagnose", edges, covs, "--designs", 3,
                   "--scatter-designs", 50, "--prior-draws", 30,
                   "--output", g) == 0
        assert run("study", spec, "--output", s) == 0
        outputs[tag] = [p.read_bytes() for p in (d, e, g, s, x)]
    gen_same = all(
        (tmp_path / f"a_{suffix}").read_bytes() == (tmp_path / f"b_{suffix}").read_bytes()
        for suffix in ("edges.txt", "covariates.csv")
    )
    ok = gen_same and outputs["a"] == outputs["b"]
    assert verdict(13, "repeated CLI invocations are byte-identical", ok)
