"""Run the bundled cap-level sweep and summarize it.

    python3 demos/run_study.py [output.csv]
"""

import sys

import numpy as np

from netdesign import bundled_study_path, load_study_spec, run_study

spec = load_study_spec(bundled_study_path("alpha_sweep_small"))
print(f"study: {spec.kind} ({spec.name}), seed {spec.seed}")

result = run_study(spec)
if len(sys.argv) > 1:
    result.write(sys.argv[1])
    print(f"wrote {len(result.rows)} rows to {sys.argv[1]}")

# Tighter caps force deeper cuts; the payoff shows up when the true
# coefficient is large.
for rho_t in (0.3, 0.9):
    print(f"\nmedian improvement at true rho = {rho_t}")
    for alpha in spec.params["alphas"]:
        pips = [r["pip"] for r in result.rows
                if r["alpha_requested"] == alpha and r["rho_t"] == rho_t
                and r["status"] == "ok"]
        print(f"  alpha {alpha:<8} {float(np.median(pips)):.1%}")
