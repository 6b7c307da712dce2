"""Build a synthetic network experiment and compare three assignments.

Run from the repository root after installing the package:

    python3 demos/quickstart.py
"""

import numpy as np

from netdesign import (
    CriterionEvaluator,
    generate_bernoulli_network,
    generate_pm1_covariates,
    hybrid_problem,
    pip,
    random_balanced_design,
    repair_isolated,
    solve,
    solve_no_network,
)

n, p, density = 60, 4, 0.08
rho0, alpha = 0.5, 0.001

net = generate_bernoulli_network(n, density, seed=11)
net = repair_isolated(net, "connect", seed=12).network
cov = generate_pm1_covariates(n, p, seed=13)
print(f"instance: {net.n} units, {len(net.edges)} edges, {cov.p} covariates")

# Three ways to split the same units into two arms.
report = solve(hybrid_problem(net, cov, rho0, alpha), seed=0)
nonet = solve_no_network(cov, seed=0)
rand = random_balanced_design(n, seed=0)

print(f"solver: {report.method}, feasible={report.feasible}, "
      f"cap level alpha={report.alpha}")

ev = CriterionEvaluator(net, cov, rho0)
print(f"\n{'design':>16} {'precision':>10} {'net term':>9} "
      f"{'imbalance':>10} {'improvement':>12}")
for name, x in [("network-aware", report.design.x),
                ("covariate-only", nonet.design.x),
                ("random balanced", rand.x)]:
    br = ev.breakdown(x)
    print(f"{name:>16} {br.precision:10.3f} {br.network_term:9.3f} "
          f"{br.imbalance_term:10.3f} {pip(net, cov, x, rho0):12.1%}")

# The improvement column is relative to the average over all balanced
# assignments, so a random draw should sit near zero.
se_ratio = np.sqrt(ev.breakdown(nonet.design.x).precision
                   / ev.breakdown(report.design.x).precision)
print(f"\nstandard error vs covariate-only balance: x{se_ratio:.3f}")
