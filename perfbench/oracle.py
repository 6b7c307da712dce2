"""Output checks that do not use netdesign: dense numpy algebra and row identities.

Each check returns a list of problems; an empty list means the output
passed.  The benchmark counts an operation whose output has a problem as
failed.
"""

from __future__ import annotations

import csv
import io
import math
from statistics import NormalDist

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def cap_value(m: float, alpha: float) -> float:
    """Connection cap q(alpha) = sqrt(m) * z_alpha, m the total degree."""
    return math.sqrt(m) * NormalDist().inv_cdf(alpha)


def parse_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def dense_terms(W: np.ndarray, F: np.ndarray, x: np.ndarray, rho: float) -> dict:
    """x'Wx, the imbalance x'RF(F'RF)^{-1}F'Rx and the precision x'Kx, densely.

    Also the mean of x'Kx over uniformly random balanced designs,
    tr K + c (1'K1 - tr K), with c = E[x_i x_j] for i != j.
    """
    n = W.shape[0]
    R = np.diag(W.sum(axis=1)) - rho * W
    RF = R @ F
    K = R - RF @ np.linalg.solve(F.T @ RF, RF.T)
    imbalance = float(x @ RF @ np.linalg.solve(F.T @ RF, RF.T @ x))
    c = -1.0 / (n - 1) if n % 2 == 0 else -1.0 / n
    tr = float(np.trace(K))
    return {
        "cut": float(x @ W @ x),
        "imbalance": imbalance,
        "precision": float(x @ K @ x),
        "expected_precision": tr + c * (float(K.sum()) - tr),
    }


def check_design(W: np.ndarray, F: np.ndarray, x: np.ndarray, record: dict,
                 rho0: float, alpha: float) -> tuple:
    """Check one `netdesign design` result against the dense oracle.

    `record` is the CSV row the program wrote (objective, constraint_value,
    alpha, feasible); `x` the design it wrote.  Returns (problems, terms).
    """
    problems = []
    n = W.shape[0]
    if x.shape != (n,) or not np.all(np.abs(x) == 1.0):
        return [f"design is not a +/-1 vector of length {n}"], None
    if abs(float(x.sum())) > 1.0:
        problems.append(f"design is unbalanced: arm sum {x.sum():+.0f}")
    terms = dense_terms(W, F, x, rho0)
    m = float(W.sum())
    alpha_used = float(record["alpha"])
    if alpha_used < alpha:
        problems.append(f"alpha used {alpha_used} is below the requested {alpha}")
    if terms["cut"] > cap_value(m, alpha_used) + REL_TOL:
        problems.append(
            f"x'Wx = {terms['cut']} exceeds the cap {cap_value(m, alpha_used)}"
            f" at alpha {alpha_used}"
        )
    if record.get("feasible") != "true":
        problems.append("result is not marked feasible")
    objective = float(record["objective"])
    if not _close(objective, terms["imbalance"]):
        problems.append(f"objective {objective} != oracle {terms['imbalance']}")
    if not _close(float(record["constraint_value"]), terms["cut"]):
        problems.append(
            f"constraint value {record['constraint_value']} != oracle {terms['cut']}"
        )
    # The precision the program's decomposition implies must match x'Kx.
    implied = m - rho0 * float(record["constraint_value"]) - objective
    if not _close(implied, terms["precision"]):
        problems.append(f"precision {implied} != oracle {terms['precision']}")
    return problems, terms


def check_alpha_sweep_row(row: dict, rho0: float) -> list:
    """Identities every alpha_sweep row must satisfy.

    precision + network_term + imbalance_term is the total degree m; the
    network term is rho_t * x'Wx; x'Wx meets the cap at the alpha used;
    at rho_t = rho0 the imbalance term is the solver's objective.
    """
    if row["status"] != "ok":
        return [f"status {row['status']}"]
    prec, t1, t2 = (float(row[k]) for k in ("precision", "network_term", "imbalance_term"))
    rho_t, cut = float(row["rho_t"]), float(row["constraint_value"])
    values = (prec, t1, t2, cut, float(row["pip"]), float(row["objective"]))
    if not all(math.isfinite(v) for v in values):
        return ["non-finite value"]
    problems = []
    m = prec + t1 + t2
    if t2 < -REL_TOL * m or prec <= 0.0:
        problems.append("negative imbalance term or precision")
    if not _close(t1, rho_t * cut, rel=1e-9):
        problems.append(f"network term {t1} != rho_t * x'Wx = {rho_t * cut}")
    if cut > cap_value(m, float(row["alpha_used"])) + REL_TOL * m:
        problems.append(f"x'Wx = {cut} exceeds the cap at alpha {row['alpha_used']}")
    if rho_t == rho0 and not _close(t2, float(row["objective"]), rel=1e-9):
        problems.append(f"imbalance term {t2} != objective {row['objective']}")
    return problems


def check_alpha_sweep_table(rows: list) -> list:
    """Within a replicate the total degree m is the same on every row."""
    problems = []
    by_rep = {}
    for row in rows:
        if row["status"] == "ok":
            m = sum(float(row[k]) for k in ("precision", "network_term", "imbalance_term"))
            by_rep.setdefault(row["replicate"], []).append(m)
    for rep, ms in by_rep.items():
        if not all(_close(m, ms[0], rel=1e-9) for m in ms):
            problems.append(f"replicate {rep}: total degree differs across rows")
    return problems


def check_gap_row(row: dict) -> list:
    """The criterion-7 inequalities, with their tolerances unchanged."""
    if row["status"] != "ok":
        return [f"status {row['status']}"]
    gap = float(row["gap"])
    problems = []
    if not gap >= -1e-8:
        problems.append(f"gap {gap} is negative")
    if not gap <= float(row["bound_a"]) + 1e-8:
        problems.append(f"gap {gap} exceeds bound_a {row['bound_a']}")
    if not gap <= float(row["bound_b"]) + 1e-8:
        problems.append(f"gap {gap} exceeds bound_b {row['bound_b']}")
    if not float(row["second_derivative_term"]) >= 0.0:
        problems.append("negative second-derivative term")
    if not float(row["t_at_rho0"]) > 0.0:
        problems.append("non-positive precision at rho0")
    return problems


def check_pseudo_row(row: dict) -> list:
    """mse finite and positive; percentile, where given, in [0, 1]."""
    if row["status"] != "ok":
        return [f"status {row['status']}"]
    problems = []
    mse = float(row["mse"])
    if not (math.isfinite(mse) and mse > 0.0):
        problems.append(f"mse {row['mse']} is not finite and positive")
    if row["percentile"] != "":
        pct = float(row["percentile"])
        if not 0.0 <= pct <= 1.0:
            problems.append(f"percentile {pct} outside [0, 1]")
    elif row["design_kind"] != "random":
        problems.append("optimized design has no percentile")
    return problems
